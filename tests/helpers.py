"""Reference evaluations built from the package's own primitives.

Unlike oracles.py, this module imports spherecoef: each helper composes
KernelSpec.chi, gegenbauer.series_eval, gegenbauer._chebyshev and
gegenbauer._connection, the series of the normalised polynomials
C_n^nu / C_n^nu(1), with the constants h(n, d) / |S^{d-1}| of
oracles.harmonic_dim and oracles.sphere_area and the values C_n^nu(1) of
oracles.at_one_exact, so that eval_all is bit-identical to the package's
arithmetic.  Tests use them to evaluate single zonal kernels and
polynomial tables that the runtime never forms on its own.
"""

from __future__ import annotations

import numpy as np

from oracles import at_one_exact, harmonic_dim, sphere_area
from spherecoef import gegenbauer


def _diagonal(max_degree, d):
    """The row q_n(x, x) = h(n, d) / |S^{d-1}| for n = 0..max_degree."""
    return np.array([harmonic_dim(n, d) for n in range(max_degree + 1)]) / sphere_area(d)


def projector_kernel(n, d, t):
    """Zonal kernel q_n of the projection onto degree-n harmonics on
    S^{d-1}, at cosine(s) t."""
    coeffs = np.zeros(n + 1)
    coeffs[n] = _diagonal(n, d)[n]
    return gegenbauer.series_eval((d - 2) / 2.0, coeffs, t)


def kernel_eval(spec, t, odd_only=False):
    """The smoothed kernel K_T of a KernelSpec at cosine(s) t, in one
    recursion sweep; odd_only keeps only its odd degrees."""
    coeffs = _diagonal(spec.degree, spec.dimension) * spec.chi()
    if odd_only:
        coeffs[::2] = 0.0
    return gegenbauer.series_eval((spec.dimension - 2) / 2.0, coeffs, t)


def eval_all(nu, max_degree, t):
    """Table of C_0^nu(t), ..., C_max_degree^nu(t): entry [n] is C_n^nu at
    t, an array of cosines in [-1, 1], summed from the Chebyshev sweep
    through the normalised connection table times at_one_exact in
    series_eval's order, so that it is series_eval's value for the
    coefficient C_n^nu(1) at degree n and 0 elsewhere, bit for bit."""
    t = np.asarray(t, dtype=float)
    table = gegenbauer._connection(nu, max_degree)
    at_one = at_one_exact(nu, max_degree)
    out = np.zeros((int(max_degree) + 1,) + t.shape)
    for j, values in enumerate(gegenbauer._chebyshev(max_degree, t)):
        for n in range(j, int(max_degree) + 1):
            if table[n, j] != 0.0:
                out[n] += values * (at_one[n] * table[n, j])
    return out
