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
    "projector_constants",
    "KernelSpec",
    "chi_table",
    "MAX_DEGREE",
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
        if int(self.degree) != self.degree or not 0 <= self.degree <= MAX_DEGREE:
            raise ValueError(
                f"degree must be an integer in [0, {MAX_DEGREE}], got {self.degree}"
            )
        if int(self.dimension) != self.dimension or self.dimension < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.dimension}")
        if self.family == "riesz":
            if not 0 < self.s < math.inf:
                raise ValueError(f"riesz smoothness s must be finite and > 0, got {self.s}")
            if not (self.dimension - 2) / 2.0 < self.l < math.inf or int(self.l) != self.l:
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
        table = chi_table(self.family, [self.degree], self.degree, self.dimension, s=self.s, l=self.l)
        return table[0]


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


# Largest filter degree any kernel may have; KernelSpec and EstimatorConfig
# refuse more.  Arrays over degrees (filter weights, per-degree self-sums,
# Gegenbauer sweeps) grow with the band limit, so a band limit above this
# is refused rather than allocated.  128 is twice the degree 64 planned for
# an uncapped cross-validation search (its minimiser is 55 at N = 50 000),
# and a power of two, so delayed_means can use it.
MAX_DEGREE = 128


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


@dataclass
class HarmonicMixture:
    """Band-limited function anchored at sphere points.

    Represents g(b) = sum_n degree_coeffs[n] * sum_i weights[i] * q_n(x_i, b)
    with x_i the anchor points.  This is the one closed form for every
    kernel-smoothed statistic in the package (a coefficient-density
    estimate is an odd mixture, its choice probability the mixture's
    hemisphere transform), and spectral operators act by rescaling
    degree_coeffs.  So every such statistic is one row of coefficients
    against the same per-degree sums D[n, k] = sum_i weights[i]
    C_n^nu(x_i'b_k): evaluate_series sweeps a block's cosines once, reduces
    each degree that carries a coefficient by one matrix-vector product
    with the weights, and applies any number of coefficient rows to the
    result.  terms keeps the per-anchor values, for statistics that need
    more than their weighted sum (the standard error).

    weights is kept as passed when it is already a float array, not copied:
    a DensityEstimate's odd mixture holds the fit's own weights array, and
    a factor common to every anchor (the estimate's 1/N) sits in
    degree_coeffs instead.
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

    def series_coeffs(self):
        """Gegenbauer series coefficients indexed by degree 0..max_degree:
        degree_coeffs[n] times the projector constant of degree n, so that
        g(b) = sum_n series_coeffs()[n] sum_i weights[i] C_n^nu(x_i'b)."""
        coeffs = np.zeros(self.max_degree + 1)
        for n, c in self.degree_coeffs.items():
            coeffs[n] = c
        return projector_constants(self.max_degree, self.dimension, coeffs)

    def _cosine_blocks(self, pts):
        """The one block loop: yields (rows, t) with t[k, i] = x_i'b_k
        clipped to [-1, 1], for the points b_k in the slice rows of the
        checked (m, d) batch pts, about EVAL_CHUNK cosines a block."""
        chunk_size = max(1, EVAL_CHUNK // max(1, self.anchors.shape[0]))
        for start in range(0, pts.shape[0], chunk_size):
            rows = slice(start, start + chunk_size)
            yield rows, np.clip(pts[rows] @ self.anchors.T, -1.0, 1.0)

    def terms(self, points):
        """Per-anchor terms, block by block: yields (rows, T) with
        T[k, i] = sum_n degree_coeffs[n] q_n(x_i, b_k) for the points b_k
        in the slice rows of the (m, d) batch; the mixture is T @ weights."""
        pts = check_on_sphere(points, d=self.dimension, tol=1e-8)
        coeffs = self.series_coeffs()
        nu = (self.dimension - 2) / 2.0
        for rows, cosines in self._cosine_blocks(pts):
            yield rows, gegenbauer._series_eval(nu, coeffs, cosines)

    def evaluate_series(self, points, series):
        """Evaluate several Gegenbauer series over these anchors and
        weights in one sweep.

        series is an (r, D) array whose rows are Gegenbauer coefficients
        indexed by degree, as series_coeffs gives them; the rows of
        mixtures that share these anchors and weights, such as a mixture
        and its hemisphere transform, evaluate together.  Returns the
        (r, m) values series @ D at the (m, d) points, with
        D[n, k] = sum_i weights[i] C_n^nu(x_i'b_k) the per-degree sums.  Each block of cosines goes through one
        gegenbauer.sweep up to the highest degree any row uses, and only
        the degrees some row uses are reduced, each by one matrix-vector
        product with the weights.
        """
        pts = check_on_sphere(points, d=self.dimension, tol=1e-8)
        series = np.atleast_2d(np.asarray(series, dtype=float))
        out = np.zeros((series.shape[0], pts.shape[0]))
        used = np.any(series != 0.0, axis=0)
        if not used.any():
            return out
        top, live = int(np.flatnonzero(used)[-1]), series[:, used]
        nu = (self.dimension - 2) / 2.0
        for rows, cosines in self._cosine_blocks(pts):
            degrees = gegenbauer.sweep(nu, top, cosines)
            sums = [cur @ self.weights for n, cur in enumerate(degrees) if used[n]]
            out[:, rows] = live @ np.array(sums)
        return out

    def evaluate(self, points):
        """Evaluate the mixture at one point (d,) or a batch (m, d)."""
        (out,) = self.evaluate_series(points, self.series_coeffs())
        return float(out[0]) if np.ndim(points) == 1 else out

    __call__ = evaluate
