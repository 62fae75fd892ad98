"""Surface-harmonic machinery: eigenspace dimensions, zonal projector
kernels, smoothed projection kernels and anchored harmonic expansions.

Degree-n content on S^{d-1} is handled through the zonal projector kernel

    q_n(x, y) = h(n, d) * C_n^nu(x'y) / (|S^{d-1}| * C_n^nu(1)),

with nu = (d-2)/2, so no explicit orthonormal basis is ever constructed.
A smoothed projection kernel is K_T(x, y) = sum_{n<=T} chi(n, T) q_n(x, y)
for one of the weight families below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gegenbauer
from .sphere import check_on_sphere, surface_area

__all__ = [
    "eigenspace_dim",
    "laplacian_eigenvalue",
    "projector_constants",
    "projector_kernel",
    "KernelSpec",
    "chi_weight",
    "chi_weights",
    "chi_table",
    "kernel_eval",
    "kernel_odd_eval",
    "HarmonicMixture",
]

_FAMILIES = ("riesz", "delayed_means", "dirichlet")

# Cosines per evaluation block.  Each temporary of the Gegenbauer sweep is
# then 128 KB: it stays in cache and comes from the allocator's heap rather
# than from a fresh, page-faulting mapping, which made blocks of millions
# of cosines two to three times slower per point.
EVAL_CHUNK = 1 << 14


def _check_degree_dim(n, d):
    if int(n) != n or n < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {n}")
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d}")
    return int(n), int(d)


def eigenspace_dim(n, d):
    """Dimension of the space of degree-n surface harmonics on S^{d-1}.

    Exact integer; equals 1 at n = 0, 2 for every n >= 1 when d = 2, and
    2n + 1 when d = 3.
    """
    n, d = _check_degree_dim(n, d)
    if n == 0:
        return 1
    return math.comb(n + d - 2, n) + math.comb(n + d - 3, n - 1)


def laplacian_eigenvalue(n, d):
    """Eigenvalue n (n + d - 2) of -Laplace-Beltrami on degree-n harmonics."""
    n, d = _check_degree_dim(n, d)
    return float(n * (n + d - 2))


def _at_one(max_degree, d):
    """The values C_n^nu(1) for n = 0..max_degree, with nu = (d-2)/2."""
    max_degree, d = _check_degree_dim(max_degree, d)
    return np.array([gegenbauer.eval_at_one((d - 2) / 2.0, n) for n in range(max_degree + 1)])


def projector_constants(max_degree, d, scale=1.0):
    """The constants scale[n] h(n, d) / (|S^{d-1}| C_n^nu(1)) for
    n = 0..max_degree.  With scale 1 they turn C_n^nu(x'y) into the zonal
    projector q_n(x, y); with per-degree coefficients c_n as scale they
    turn sum_n c_n q_n into a Gegenbauer series.  The scale multiplies
    h(n, d) before the division, so each constant is rounded once."""
    max_degree, d = _check_degree_dim(max_degree, d)
    dims = np.array([eigenspace_dim(n, d) for n in range(max_degree + 1)], dtype=float)
    return scale * dims / (surface_area(d) * _at_one(max_degree, d))


def projector_kernel(n, d, t):
    """Zonal kernel of the projection onto degree-n harmonics, at cosine t."""
    n, d = _check_degree_dim(n, d)
    coeffs = np.zeros(n + 1)
    coeffs[n] = projector_constants(n, d)[n]
    return gegenbauer.series_eval((d - 2) / 2.0, coeffs, t)


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class KernelSpec:
    """A smoothed projection kernel: weight family, cutoff degree, dimension.

    family : "riesz", "delayed_means" or "dirichlet"
    degree : truncation degree T >= 0
    dimension : ambient dimension d >= 2
    s, l : Riesz parameters (smoothness exponent and integer power); l must
        exceed (d-2)/2.  Ignored by the other families.
    """

    family: str
    degree: int
    dimension: int
    s: float = 2.0
    l: int = 3

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        if int(self.degree) != self.degree or self.degree < 0:
            raise ValueError(f"degree must be a nonnegative integer, got {self.degree}")
        if int(self.dimension) != self.dimension or self.dimension < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.dimension}")
        if self.family == "riesz":
            if self.s <= 0:
                raise ValueError(f"riesz smoothness s must be > 0, got {self.s}")
            if int(self.l) != self.l or self.l <= (self.dimension - 2) / 2.0:
                raise ValueError(
                    f"riesz power l must be an integer > (d-2)/2 = "
                    f"{(self.dimension - 2) / 2.0}, got {self.l}"
                )
        if self.family == "delayed_means" and not _is_power_of_two(self.degree):
            raise ValueError(
                f"delayed_means requires a power-of-two degree, got {self.degree}"
            )

    @property
    def nu(self):
        return (self.dimension - 2) / 2.0

    def chi(self):
        """All filter weights chi(n, T) for n = 0..degree as an array."""
        return chi_weights(self)


def _bump(u):
    """exp(-1/u) for u > 0, else 0 (smooth cutoff building block)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / u[pos])
    return out


def _delayed_means_profile(x):
    """C^inf nonincreasing profile equal to 1 on [0, 1/2] and 0 on [1, inf)."""
    x = np.asarray(x, dtype=float)
    a = _bump(2.0 - 2.0 * x)
    b = _bump(2.0 * x - 1.0)
    with np.errstate(invalid="ignore"):
        out = np.where(a + b > 0.0, a / np.where(a + b > 0.0, a + b, 1.0), 0.0)
    return out


def chi_table(family, degrees, max_n, d, s=2.0, l=3):
    """Weights chi(n, T) for several cutoffs at once.

    Row k holds chi(n, degrees[k]) for n = 0..max_n, zero above that
    cutoff; the family and the Riesz parameters s, l are as in KernelSpec.
    """
    n = np.arange(max_n + 1, dtype=float)
    top = np.asarray(degrees, dtype=float)[:, None]
    inside = n <= top
    if family == "dirichlet":
        table = np.ones(inside.shape)
    elif family == "riesz":
        zeta = n * (n + d - 2)
        ratio = np.where(inside, zeta / (top * (top + d - 2) + 1.0), 0.0)
        table = (1.0 - ratio ** (s / 2.0)) ** l
    else:
        table = np.where(top > 0, _delayed_means_profile(n / np.maximum(top, 1.0)), 1.0)
    return np.where(inside, table, 0.0)


def chi_weights(spec):
    """All weights chi(n, T) for n = 0..T as an array (single call)."""
    return chi_table(spec.family, [spec.degree], spec.degree, spec.dimension, s=spec.s, l=spec.l)[0]


def chi_weight(spec, n):
    """Weight chi(n, T) for the given KernelSpec; 0 above the cutoff degree."""
    if int(n) != n or n < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {n}")
    if n > spec.degree:
        return 0.0
    return float(chi_weights(spec)[int(n)])


def _series_coeffs(spec, odd_only=False):
    """Per-degree coefficients turning chi weights into a Gegenbauer series."""
    coeffs = projector_constants(spec.degree, spec.dimension, chi_weights(spec))
    if odd_only:
        coeffs[::2] = 0.0
    return coeffs


def kernel_eval(spec, t):
    """Evaluate the smoothed kernel K_T at cosine(s) t (one recursion sweep)."""
    return gegenbauer.series_eval(spec.nu, _series_coeffs(spec), t)


def kernel_odd_eval(spec, t):
    """Odd part of the smoothed kernel: only odd degrees contribute, and
    kernel_odd_eval(spec, -t) = -kernel_odd_eval(spec, t)."""
    return gegenbauer.series_eval(spec.nu, _series_coeffs(spec, odd_only=True), t)


@dataclass
class HarmonicMixture:
    """Band-limited function anchored at sphere points.

    Represents g(b) = sum_n degree_coeffs[n] * sum_i weights[i] * q_n(x_i, b)
    with x_i the anchor points.  This is the one closed form for every
    kernel-smoothed statistic in the package (a coefficient-density
    estimate is an odd mixture, its choice probability the mixture's
    hemisphere transform): evaluation needs one Gegenbauer sweep over the
    cosine matrix, and spectral operators act by rescaling degree_coeffs.
    """

    dimension: int
    anchors: np.ndarray
    weights: np.ndarray
    degree_coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.anchors = check_on_sphere(self.anchors, d=self.dimension, tol=1e-8)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.anchors.shape[0],):
            raise ValueError("weights must have one entry per anchor")
        clean = {}
        for n, c in self.degree_coeffs.items():
            if int(n) != n or n < 0:
                raise ValueError(f"degrees must be nonnegative integers, got {n}")
            clean[int(n)] = float(c)
        self.degree_coeffs = clean

    @property
    def degrees(self):
        return sorted(self.degree_coeffs)

    @property
    def max_degree(self):
        return max(self.degree_coeffs) if self.degree_coeffs else 0

    def is_odd(self):
        """True when only odd degrees carry nonzero coefficients."""
        return all(n % 2 == 1 for n, c in self.degree_coeffs.items() if c != 0.0)

    def with_degree_coeffs(self, new_coeffs):
        return HarmonicMixture(
            dimension=self.dimension,
            anchors=self.anchors,
            weights=self.weights,
            degree_coeffs=dict(new_coeffs),
        )

    def terms(self, points, chunk_size=None):
        """Per-anchor terms, block by block: yields (rows, T) with
        T[k, i] = sum_n degree_coeffs[n] q_n(x_i, b_k) for the points b_k
        in the slice rows of the (m, d) batch; the mixture is T @ weights."""
        pts = check_on_sphere(points, d=self.dimension, tol=1e-8)
        coeffs = np.zeros(self.max_degree + 1)
        for n, c in self.degree_coeffs.items():
            coeffs[n] = c
        coeffs = projector_constants(self.max_degree, self.dimension, coeffs)
        nu = (self.dimension - 2) / 2.0
        if chunk_size is None:
            chunk_size = max(1, EVAL_CHUNK // max(1, self.anchors.shape[0]))
        for start in range(0, pts.shape[0], chunk_size):
            rows = slice(start, start + chunk_size)
            cosines = np.clip(pts[rows] @ self.anchors.T, -1.0, 1.0)
            yield rows, gegenbauer.series_eval(nu, coeffs, cosines)

    def evaluate(self, points, chunk_size=None):
        """Evaluate the mixture at one point (d,) or a batch (m, d)."""
        out = np.empty(np.atleast_2d(points).shape[0])
        for rows, terms in self.terms(points, chunk_size):
            out[rows] = terms @ self.weights
        return float(out[0]) if np.ndim(points) == 1 else out

    __call__ = evaluate

