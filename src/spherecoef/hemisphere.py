"""The hemisphere-averaging operator on S^{d-1} and its inverse.

The operator sends a function f to x -> integral of f over the closed
hemisphere {b : x'b >= 0}.  It is diagonal on surface harmonics; the
eigenvalue on degree n is

    n = 0:      |S^{d-1}| / 2
    n even>=2:  0
    n = 2p+1:   (-1)^p |S^{d-2}| (2p-1)!! / ((d-1)(d+1)...(d+2p-1)),

which for d = 2 reduces to 2 sin(n pi / 2) / n.  eigenvalues gives them as
one row over degrees 0..T, and transform and invert rescale a mixture's
coefficient row by it.  Even degrees >= 2 are the null space, so only odd
content is invertible; densities supported in an open hemisphere are
recoverable from their odd part alone.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .kernels import HarmonicMixture
from .sphere import _integer, surface_area

__all__ = ["eigenvalues", "transform", "invert"]


def eigenvalues(max_degree, d):
    """The eigenvalues of degrees 0..max_degree on S^{d-1}, as a row: the
    one row that every spectral use of the operator reads.

    The odd entries are one cumulative product: |S^{d-2}| / (d - 1) at
    n = 1, then each odd n multiplies in -(n - 2) / (d + n - 2).
    """
    max_degree, d = _integer(max_degree, "degree", 0), _integer(d, "dimension", 2)
    row = np.zeros(max_degree + 1)
    row[0] = surface_area(d) / 2.0
    odd = np.arange(1.0, max_degree + 1, 2.0)
    ratios = -(odd - 2.0) / (d + odd - 2.0)
    ratios[:1] = surface_area(d - 1) / (d - 1)
    row[1::2] = np.cumprod(ratios)
    return row


def _require_odd(g):
    if not isinstance(g, HarmonicMixture):
        raise TypeError("expected a HarmonicMixture")
    if not g.is_odd():
        raise ValueError(
            "expansion has even-degree content; the hemisphere operator is "
            "only invertible on odd degrees"
        )


def transform(g):
    """Apply the operator to an odd band-limited expansion (exact, spectral):
    the mixture with its coefficient row times the eigenvalue row."""
    _require_odd(g)
    return dataclasses.replace(g, degree_coeffs=g.degree_coeffs * eigenvalues(g.max_degree, g.dimension))


def invert(g):
    """Invert the operator on an odd band-limited expansion (exact, spectral):
    the mixture with its coefficient row over the eigenvalue row.

    Zero coefficients stay zero, as is_odd ignores them: an even degree
    may carry one, and its eigenvalue is 0."""
    _require_odd(g)
    c = g.degree_coeffs
    inverted = np.divide(c, eigenvalues(g.max_degree, g.dimension), out=np.zeros_like(c), where=c != 0.0)
    return dataclasses.replace(g, degree_coeffs=inverted)
