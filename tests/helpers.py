"""Reference evaluations built from the package's own primitives.

Unlike oracles.py, this module imports spherecoef: each helper composes
kernels.projector_constants, KernelSpec.chi, gegenbauer.series_eval and
gegenbauer.sweep, so its values are bit-identical to the package's
arithmetic.  Tests use them to evaluate single zonal kernels and
polynomial tables that the runtime never forms on its own.
"""

from __future__ import annotations

import numpy as np

from spherecoef import gegenbauer
from spherecoef.kernels import projector_constants


def projector_kernel(n, d, t):
    """Zonal kernel q_n of the projection onto degree-n harmonics on
    S^{d-1}, at cosine(s) t."""
    coeffs = np.zeros(n + 1)
    coeffs[n] = projector_constants(n, d)[n]
    return gegenbauer.series_eval((d - 2) / 2.0, coeffs, t)


def kernel_eval(spec, t, odd_only=False):
    """The smoothed kernel K_T of a KernelSpec at cosine(s) t, in one
    recursion sweep; odd_only keeps only its odd degrees."""
    coeffs = projector_constants(spec.degree, spec.dimension, spec.chi())
    if odd_only:
        coeffs[::2] = 0.0
    return gegenbauer.series_eval(spec.nu, coeffs, t)


def eval_all(nu, max_degree, t):
    """Table of C_0^nu(t), ..., C_max_degree^nu(t): entry [n] is C_n^nu at
    t, an array of cosines in [-1, 1]."""
    t = np.asarray(t, dtype=float)
    out = np.empty((int(max_degree) + 1,) + t.shape)
    for n, c in enumerate(gegenbauer.sweep(nu, max_degree, t)):
        out[n] = c
    return out
