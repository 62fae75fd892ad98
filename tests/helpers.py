"""Reference evaluations built from the package's own primitives.

Unlike oracles.py, this module imports spherecoef: each helper composes
KernelSpec.chi, gegenbauer.series_eval, gegenbauer.chebyshev,
gegenbauer.connection and gegenbauer.eval_at_one, with the projector
constants of oracles.projector_constants, so that eval_all is
bit-identical to the package's arithmetic.  Tests use them to evaluate
single zonal kernels and polynomial tables that the runtime never forms
on its own.
"""

from __future__ import annotations

import numpy as np

from oracles import projector_constants
from spherecoef import gegenbauer


def projector_kernel(n, d, t):
    """Zonal kernel q_n of the projection onto degree-n harmonics on
    S^{d-1}, at cosine(s) t."""
    coeffs = np.zeros(n + 1)
    coeffs[n] = projector_constants(n, d)[n]
    return gegenbauer.series_eval((d - 2) / 2.0, coeffs, t)


def kernel_eval(spec, t, odd_only=False):
    """The smoothed kernel K_T of a KernelSpec at cosine(s) t, in one
    recursion sweep; odd_only keeps only its odd degrees."""
    coeffs = projector_constants(spec.degree, spec.dimension) * spec.chi()
    if odd_only:
        coeffs[::2] = 0.0
    return gegenbauer.series_eval(spec.nu, coeffs, t)


def eval_all(nu, max_degree, t):
    """Table of C_0^nu(t), ..., C_max_degree^nu(t): entry [n] is C_n^nu at
    t, an array of cosines in [-1, 1], summed from the Chebyshev sweep
    through the normalised connection table times eval_at_one in
    series_eval's order, so that it is series_eval's value for the unit
    coefficients of degree n, bit for bit."""
    t = np.asarray(t, dtype=float)
    table = gegenbauer.connection(nu, max_degree)
    at_one = [gegenbauer.eval_at_one(nu, n) for n in range(int(max_degree) + 1)]
    out = np.zeros((int(max_degree) + 1,) + t.shape)
    for j, values in enumerate(gegenbauer.chebyshev(max_degree, t)):
        for n in range(j, int(max_degree) + 1):
            if table[n, j] != 0.0:
                out[n] += values * (at_one[n] * table[n, j])
    return out
