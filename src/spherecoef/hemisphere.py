"""The hemisphere-averaging operator on S^{d-1} and its inverse.

The operator sends a function f to x -> integral of f over the closed
hemisphere {b : x'b >= 0}.  It is diagonal on surface harmonics; the
eigenvalue on degree n is

    n = 0:      |S^{d-1}| / 2
    n even>=2:  0
    n = 2p+1:   (-1)^p |S^{d-2}| (2p-1)!! / ((d-1)(d+1)...(d+2p-1)),

which for d = 2 reduces to 2 sin(n pi / 2) / n.  Even degrees >= 2 are the
null space, so only odd content is invertible; densities supported in an
open hemisphere are recoverable from their odd part alone.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .kernels import HarmonicMixture, _check_degree_dim
from .sphere import surface_area

__all__ = ["eigenvalue", "transform", "invert"]


def _lower_area(d):
    """|S^{d-2}|, valid down to d = 2 (|S^0| = 2)."""
    return 2.0 * math.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0)


def eigenvalue(n, d):
    """Eigenvalue of the hemisphere-averaging operator on degree n."""
    n, d = _check_degree_dim(n, d)
    if n == 0:
        return surface_area(d) / 2.0
    if n % 2 == 0:
        return 0.0
    p = (n - 1) // 2
    val = _lower_area(d) / (d - 1)
    for j in range(1, p + 1):
        val *= -(2.0 * j - 1.0) / (d + 2.0 * j - 1.0)
    return val


def _require_odd(g):
    if not isinstance(g, HarmonicMixture):
        raise TypeError("expected a HarmonicMixture")
    if not g.is_odd():
        raise ValueError(
            "expansion has even-degree content; the hemisphere operator is "
            "only invertible on odd degrees"
        )


def _eigenvalues(g):
    """The eigenvalues of degrees 0..g.max_degree, as a row."""
    return np.array([eigenvalue(n, g.dimension) for n in range(g.max_degree + 1)])


def transform(g):
    """Apply the operator to an odd band-limited expansion (exact, spectral):
    the mixture with its coefficient row times the eigenvalue row."""
    _require_odd(g)
    return dataclasses.replace(g, degree_coeffs=g.degree_coeffs * _eigenvalues(g))


def invert(g):
    """Invert the operator on an odd band-limited expansion (exact, spectral):
    the mixture with its coefficient row over the eigenvalue row.

    Zero coefficients stay zero, as is_odd ignores them: an even degree
    may carry one, and its eigenvalue is 0."""
    _require_odd(g)
    c = g.degree_coeffs
    inverted = np.divide(c, _eigenvalues(g), out=np.zeros_like(c), where=c != 0.0)
    return dataclasses.replace(g, degree_coeffs=inverted)
