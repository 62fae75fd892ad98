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
from dataclasses import dataclass

import numpy as np

from . import gegenbauer
from .sphere import check_on_sphere, surface_area

__all__ = [
    "eigenspace_dim",
    "projector_constants",
    "KernelSpec",
    "chi_table",
    "MAX_DEGREE",
    "degree_sums",
    "HarmonicMixture",
]

_FAMILIES = ("riesz", "delayed_means", "dirichlet")

# Cosines per block of _cosine_blocks, for evaluation and self-sums alike.
# Each temporary of the Gegenbauer sweep is then 128 KB: it stays in cache
# and comes from the allocator's heap rather than from a fresh,
# page-faulting mapping, which made blocks of millions of cosines two to
# three times slower per point.
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


def _cosine_blocks(anchors, points):
    """The one block loop: yields (rows, t) with t[k, i] = a_i'b_k clipped
    to [-1, 1], for the anchors a_i and the points b_k in the slice rows of
    the (m, d) batch points, about EVAL_CHUNK cosines a block."""
    chunk_size = max(1, EVAL_CHUNK // max(1, anchors.shape[0]))
    for start in range(0, points.shape[0], chunk_size):
        rows = slice(start, start + chunk_size)
        yield rows, np.clip(points[rows] @ anchors.T, -1.0, 1.0)


def degree_sums(anchors, weights, points, used):
    """Per-degree weighted sums D[n, k] = sum_i W[n, i] C_n^nu(a_i'b_k) of
    the (N, d) anchors a_i at the (m, d) points b_k, for the degrees n
    flagged in the boolean array used, with nu = (d - 2)/2 for the points' d.

    weights is one (N,) vector, W[n] = weights for every degree, or one
    row per degree, W[n] = weights[n].  Returns a (u, m) array with one
    row per flagged degree, in increasing order.  Each block of cosines
    goes through one gegenbauer.sweep up to the highest flagged degree,
    and each flagged degree is reduced by one matrix-vector product with
    its weights.
    """
    degrees = np.flatnonzero(used).tolist()
    out = np.empty((len(degrees), points.shape[0]))
    if not degrees:
        return out
    slot = {n: k for k, n in enumerate(degrees)}
    nu = (points.shape[1] - 2) / 2.0
    rows_of = weights if np.ndim(weights) == 2 else [weights] * (degrees[-1] + 1)
    for rows, cosines in _cosine_blocks(anchors, points):
        for n, cur in enumerate(gegenbauer.sweep(nu, degrees[-1], cosines)):
            if n in slot:
                out[slot[n], rows] = cur @ rows_of[n]
    return out


@dataclass
class HarmonicMixture:
    """Band-limited function anchored at sphere points.

    Represents g(b) = sum_n degree_coeffs[n] * sum_i weights[i] * q_n(x_i, b)
    with x_i the (N, d) anchors.  degree_coeffs is a nonempty 1-D float
    array indexed by degree 0..max_degree, the layout of KernelSpec.chi and
    projector_constants.  This is the one closed form for every
    kernel-smoothed statistic in the package (a coefficient-density
    estimate is an odd mixture, its choice probability the mixture's
    hemisphere transform), and spectral operators act by rescaling
    degree_coeffs (dataclasses.replace gives the rescaled mixture).  So
    every such statistic is one row of coefficients against the same
    per-degree sums D[n, k] = sum_i weights[i] C_n^nu(x_i'b_k)
    (degree_sums): evaluate_series takes them for each degree that carries
    a coefficient and applies any number of coefficient rows to them.
    terms keeps the per-anchor values, for statistics that need more than
    their weighted sum (the standard error).  Both check query points at
    one tolerance, |norm - 1| <= 1e-8.

    weights is kept as passed when it is already a float array, not copied:
    a DensityEstimate's odd mixture holds the fit's own weights array, and
    a factor common to every anchor (the estimate's 1/N) sits in
    degree_coeffs instead.
    """

    anchors: np.ndarray
    weights: np.ndarray
    degree_coeffs: np.ndarray

    def __post_init__(self):
        self.anchors = check_on_sphere(self.anchors, tol=1e-8)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.anchors.shape[0],):
            raise ValueError("weights must have one entry per anchor")
        self.degree_coeffs = np.asarray(self.degree_coeffs, dtype=float)
        if self.degree_coeffs.ndim != 1 or self.degree_coeffs.size == 0:
            raise ValueError("degree_coeffs must be a nonempty 1-D array indexed by degree")

    @property
    def dimension(self):
        return self.anchors.shape[1]

    @property
    def max_degree(self):
        return self.degree_coeffs.size - 1

    def is_odd(self):
        """True when only odd degrees carry nonzero coefficients."""
        return not np.any(self.degree_coeffs[::2])

    def series_coeffs(self):
        """Gegenbauer series coefficients indexed by degree 0..max_degree:
        degree_coeffs[n] times the projector constant of degree n, so that
        g(b) = sum_n series_coeffs()[n] sum_i weights[i] C_n^nu(x_i'b)."""
        return projector_constants(self.max_degree, self.dimension, self.degree_coeffs)

    def terms(self, points):
        """Per-anchor terms, block by block: yields (rows, T) with
        T[k, i] = sum_n degree_coeffs[n] q_n(x_i, b_k) for the points b_k
        in the slice rows of the (m, d) batch; the mixture is T @ weights."""
        pts = check_on_sphere(points, d=self.dimension, tol=1e-8)
        coeffs = self.series_coeffs()
        nu = (self.dimension - 2) / 2.0
        for rows, cosines in _cosine_blocks(self.anchors, pts):
            yield rows, gegenbauer._series_eval(nu, coeffs, cosines)

    def evaluate_series(self, points, series):
        """Evaluate several Gegenbauer series over these anchors and
        weights in one sweep.

        series is an (r, D) array whose rows are Gegenbauer coefficients
        indexed by degree, as series_coeffs gives them; the rows of
        mixtures that share these anchors and weights, such as a mixture
        and its hemisphere transform, evaluate together.  Returns the
        (r, m) values series @ D at the (m, d) points, with D the
        per-degree sums of degree_sums, taken only for the degrees some
        row uses.
        """
        pts = check_on_sphere(points, d=self.dimension, tol=1e-8)
        series = np.atleast_2d(np.asarray(series, dtype=float))
        used = np.any(series != 0.0, axis=0)
        return series[:, used] @ degree_sums(self.anchors, self.weights, pts, used)

    def evaluate(self, points):
        """Evaluate the mixture at one point (d,) or a batch (m, d)."""
        (out,) = self.evaluate_series(points, self.series_coeffs())
        return float(out[0]) if np.ndim(points) == 1 else out

    __call__ = evaluate
