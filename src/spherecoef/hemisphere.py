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

import math

from .kernels import HarmonicMixture, laplacian_eigenvalue
from .sphere import surface_area

__all__ = [
    "eigenvalue",
    "transform",
    "invert",
    "invert_by_laplacian",
]


def _lower_area(d):
    """|S^{d-2}|, valid down to d = 2 (|S^0| = 2)."""
    return 2.0 * math.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0)


def eigenvalue(n, d):
    """Eigenvalue of the hemisphere-averaging operator on degree n."""
    if int(n) != n or n < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {n}")
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d}")
    n, d = int(n), int(d)
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


def transform(g):
    """Apply the operator to an odd band-limited expansion (exact, spectral)."""
    _require_odd(g)
    return g.with_degree_coeffs(
        {n: c * eigenvalue(n, g.dimension) for n, c in g.degree_coeffs.items()}
    )


def invert(g):
    """Invert the operator on an odd band-limited expansion (exact, spectral).

    Zero coefficients are dropped, as is_odd ignores them: an even degree
    may carry one, and its eigenvalue is 0."""
    _require_odd(g)
    return g.with_degree_coeffs(
        {n: c / eigenvalue(n, g.dimension) for n, c in g.degree_coeffs.items() if c != 0.0}
    )


def invert_by_laplacian(g):
    """Invert through the polynomial-in-Laplacian route (d a multiple of 4).

    For d divisible by 4 the reciprocal eigenvalue on degree n = 2p+1 equals

        (-1)^p prod_{k=1}^{d/4} [zeta_{n,d} + 2(k-1)(d-2k)]
        / (|S^{d-2}| (d-3)!!),

    a polynomial in the Laplace-Beltrami eigenvalue zeta_{n,d} applied
    spectrally, with an alternating sign per odd eigenspace.  Independent
    of the double-factorial-ratio route in eigenvalue(); used as a
    cross-check of the inversion.
    """
    _require_odd(g)
    d = g.dimension
    if d % 4 != 0:
        raise ValueError(f"the differential route needs d divisible by 4, got {d}")
    dfact = 1
    m = d - 3
    while m > 1:
        dfact *= m
        m -= 2
    new = {}
    for n, c in g.degree_coeffs.items():
        p = (n - 1) // 2
        zeta = laplacian_eigenvalue(n, d)
        prod = 1.0
        for k in range(1, d // 4 + 1):
            prod *= zeta + 2.0 * (k - 1) * (d - 2 * k)
        new[n] = c * (-1.0) ** p * prod / (_lower_area(d) * dfact)
    return g.with_degree_coeffs(new)

