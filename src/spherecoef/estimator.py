"""Plug-in density estimation for random coefficients in binary choice.

The model: y = 1{x'beta >= 0} with x and beta independent, both living on
the unit sphere after scale normalization.  The choice probability as a
function of x is the hemisphere average of the coefficient density, so the
density is recovered by inverting that operator degree by degree.  The
closed-form estimator reweights each observation by the sign (2y-1) over a
trimmed covariate-density estimate and sums an explicitly filtered odd
kernel in x_i'b.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import hemisphere
from .kernels import (
    MAX_DEGREE,
    KernelSpec,
    HarmonicMixture,
    _cheaper_series,
    _check_family,
    _chebyshev_rows,
    _is_power_of_two,
    chi_table,
    degree_sums,
    projector_diagonal,
    self_sums,
)
from .sphere import (
    QuadratureRule,
    _finite,
    _integer,
    build_quadrature,
    check_on_sphere,
    coarea_factor,
    normalize,
    surface_area,
)

__all__ = [
    "ChoiceSample",
    "EstimatorConfig",
    "FxEstimate",
    "DensityEstimate",
    "ChoiceProbabilityEstimate",
    "IdentificationReport",
    "estimate_fx",
    "estimate_fbeta",
    "estimate_choice_probability",
    "weight_summary",
    "standard_error",
    "confidence_interval",
    "marginal_density",
    "identification_diagnostic",
    "CoefficientDensity",
]


@dataclass
class ChoiceSample:
    """Binary choices plus normalized covariate directions.

    y is an (N,) array with values in {0, 1}; x is (N, d) with unit rows
    whose first coordinate is nonnegative (the scale-fixing convention:
    flipping the sign of a row and its choice leaves the model invariant,
    so all rows are folded onto one half of the sphere with the intercept
    coordinate first).
    """

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y)
        if y.ndim != 1:
            raise ValueError(f"y must be one-dimensional, got shape {y.shape}")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("y must contain only 0 and 1")
        self.y = y.astype(np.int64)
        x = check_on_sphere(self.x)
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"y has {y.shape[0]} rows but x has {x.shape[0]}"
            )
        if np.any(x[:, 0] < -1e-12):
            raise ValueError("x rows must have nonnegative first coordinate")
        self.x = x

    @property
    def n_obs(self):
        return self.y.shape[0]

    @property
    def dimension(self):
        return self.x.shape[1]


@dataclass
class EstimatorConfig:
    """Tuning constants for the plug-in estimator.

    truncation is the number of odd degrees kept in the coefficient-density
    expansion (the spectral filter runs to degree 2*truncation, so
    truncation is at most MAX_DEGREE / 2).
    trimming_exponent r sets the covariate-density floor (log N)^(-r).
    fx_truncation is the band limit of the covariate-density kernel, at
    most MAX_DEGREE.
    family, s, l parametrize the filter profile (see kernels.KernelSpec).
    """

    truncation: int = 3
    trimming_exponent: float = 2.0
    family: str = "riesz"
    s: float = 2.0
    l: int = 3
    fx_truncation: int = 10

    def __post_init__(self):
        # a bool is a numbers.Real, but no setting's value
        for name in ("truncation", "trimming_exponent", "s", "l", "fx_truncation"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        self.truncation = _integer(self.truncation, "truncation", 1, MAX_DEGREE // 2)
        _check_family(self.family)
        if not 0 < self.trimming_exponent < math.inf:
            raise ValueError(
                f"trimming_exponent must be finite and positive, got {self.trimming_exponent}"
            )
        self.fx_truncation = _integer(self.fx_truncation, "fx_truncation", 0, MAX_DEGREE)
        # the dirichlet and delayed_means filters ignore s and l, but the
        # config is echoed into reports, which cannot hold a non-finite value
        for name in ("s", "l"):
            _finite(getattr(self, name), name)
        # the riesz bounds that hold in every dimension; l > (d-2)/2 waits
        # for KernelSpec, which knows d
        if self.family == "riesz":
            if self.s <= 0:
                raise ValueError(f"s must be > 0 for riesz, got {self.s}")
            if self.l < 1 or int(self.l) != self.l:
                raise ValueError(f"l must be an integer >= 1 for riesz, got {self.l}")
        # delayed_means filters only a power-of-two degree; 2 * truncation is
        # one exactly when truncation is
        for name in ("truncation", "fx_truncation"):
            if self.family == "delayed_means" and not _is_power_of_two(getattr(self, name)):
                raise ValueError(
                    f"{name} must be a power of two for delayed_means, got {getattr(self, name)}"
                )

    def main_kernel(self, d):
        """Filter spec for the coefficient density at dimension d."""
        return KernelSpec(self.family, 2 * self.truncation, d, s=self.s, l=self.l)

    def fx_kernel(self, d):
        """Filter spec for the covariate density at dimension d."""
        return KernelSpec(self.family, self.fx_truncation, d, s=self.s, l=self.l)

    def trimming_floor(self, n_obs):
        """Lower cutoff (log N)^(-r) applied to the covariate density."""
        if n_obs < 3:
            raise ValueError(f"need at least 3 observations, got {n_obs}")
        return math.log(n_obs) ** (-self.trimming_exponent)


@dataclass
class FxEstimate:
    """Kernel estimate of the covariate density on the sphere.

    Wraps the raw band-limited average clipped at zero (the unclipped
    average can dip negative in the filter's ripple).
    """

    mixture: HarmonicMixture

    def evaluate(self, points):
        raw = self.mixture.evaluate(points)
        return np.maximum(raw, 0.0) if isinstance(raw, np.ndarray) else max(raw, 0.0)

    __call__ = evaluate


def estimate_fx(sample, kernel):
    """Fit the covariate density by an equal-weight filtered kernel average."""
    if kernel.dimension != sample.dimension:
        raise ValueError(
            f"kernel is for dimension {kernel.dimension}, sample has {sample.dimension}"
        )
    n = sample.n_obs
    mix = HarmonicMixture(sample.x, np.full(n, 1.0 / n), kernel.chi())
    return FxEstimate(mixture=mix)


# Cap on the covariate-density bands the cross-validation searches
# (config.fx_truncation when that is larger); see _lscv_bands.
FX_CV_MAX_BAND = 24


def _lscv_bands(config):
    """Covariate-density bands the cross-validation searches: those up to
    max(FX_CV_MAX_BAND, config.fx_truncation) that KernelSpec accepts for
    config.family."""
    top = max(FX_CV_MAX_BAND, config.fx_truncation)
    if config.family == "delayed_means":
        return 2 ** np.arange(top.bit_length())
    return np.arange(top + 1)


def _lscv_scores(chi, energy, loo_totals, n_obs):
    """Least-squares cross-validation scores int f_T^2 - (2/N) sum_i
    f_{T,-i}(x_i) (Hall, Watson & Cabrera 1987) of the bands whose filter
    weights are the rows of chi: both terms are closed forms in per-degree
    totals, because the zonal projectors are orthogonal.  energy[n] is
    sum_i sum_j q_n(x_i, x_j), and loo_totals[n] the same without the
    terms j = i."""
    return (chi * chi) @ energy / n_obs**2 - 2.0 * chi @ loo_totals / (n_obs * (n_obs - 1))


def _cross_validated_fx(sample, config):
    """The covariate density at its own sample, each x_i left out of its
    own kernel average, at the band of _lscv_bands with the least
    cross-validation score, as (band, values clipped at zero): one sweep of
    the self-sums (kernels.self_sums) to the last band the search tries."""
    n_obs, d = sample.n_obs, sample.dimension
    bands = _lscv_bands(config)
    top = int(bands[-1])
    chi = chi_table(config.family, bands, top, d, s=config.s, l=config.l)
    energy, combine = self_sums(sample.x, top)
    # the terms j = i, q_n(x_i, x_i), dropped
    diagonal = projector_diagonal(top, d)
    k = int(np.argmin(_lscv_scores(chi, energy, energy - n_obs * diagonal, n_obs)))
    return int(bands[k]), np.maximum((combine(chi[k]) - chi[k] @ diagonal) / (n_obs - 1), 0.0)


@dataclass(init=False)
class DensityEstimate:
    """Closed-form estimate of the coefficient density on S^{d-1}.

    odd is the estimate's odd part, an odd HarmonicMixture anchored at the
    sample covariates x_i with the per-observation weights w_i =
    (2y_i - 1) / max(fx_values[i], trimming_floor) and the coefficient
    row of degrees 0..2 * truncation - 1 that holds chi(m) / (lambda_m N)
    at odd m and 0 at even m: the filter weights of config.main_kernel over
    the hemisphere eigenvalues, with the 1/N of the sample mean.  The
    density is twice its positive part.  weights and trimming_floor are
    read from odd and config, and every query's points are checked once,
    by odd.  trimmed_count is the number of fx_values below the trimming
    floor, which _fit counts when it builds the fit.

    fx_band is the band limit of the plug-in covariate-density estimate
    behind fx_values (None when the caller supplied them).  A plug-in fit
    keeps its sample, from which inference builds, on first read, an
    inference fit: the same anchors, coefficients and kernel, with weights
    from the leave-one-out covariate density at the cross-validated band
    (its fx_band; see _cross_validated_fx).  That band is finer than the
    one the point estimate uses, so the inference fit has less smoothing
    bias at the price of more variance; confidence_interval is built on
    it, while density, odd_values and standard_error describe this
    estimate.  A fit given fx values, and the inference fit itself,
    keep no sample and have no inference fit.

    What a fit holds beyond its sample is one N-vector, the weights (in
    odd), and the covariate-density values only where the sample cannot
    give them back: a fit given fx values and an inference fit keep those
    values, while a plug-in fit recomputes them from its sample when
    fx_values is read (_plug_in_fx, bit for bit the values it was weighted
    by, at the cost of one sweep of the self-sums).  Callers may keep many
    fits at once, and a second N-vector per fit would double what each
    keeps beyond its sample.
    """

    odd: HarmonicMixture
    config: EstimatorConfig
    fx_band: int | None
    sample: ChoiceSample | None

    def __init__(self, odd, config, fx_values, trimmed_count, fx_band=None, sample=None):
        self.odd, self.config, self.fx_band, self.sample = odd, config, fx_band, sample
        self._fx_values = None if sample is not None else fx_values
        self.trimmed_count = trimmed_count

    @property
    def fx_values(self):
        """The covariate-density values at the sample behind the weights."""
        return _plug_in_fx(self.sample, self.config) if self._fx_values is None else self._fx_values

    @functools.cached_property
    def inference(self):
        """The inference fit (None without a sample), built once."""
        if self.sample is None:
            return None
        band, loo_values = _cross_validated_fx(self.sample, self.config)
        return _fit(self.sample, self.config, loo_values, band)

    @property
    def weights(self):
        return self.odd.weights

    @property
    def trimming_floor(self):
        return self.config.trimming_floor(self.n_obs)

    @property
    def anchors(self):
        return self.odd.anchors

    @property
    def dimension(self):
        return self.odd.dimension

    @property
    def n_obs(self):
        return self.odd.anchors.shape[0]

    def odd_values(self, points):
        """The odd-part estimate at the given point(s)."""
        return self.odd.evaluate(points)

    def density(self, points):
        """Twice the positive part of the odd estimate."""
        return _twice_positive(self.odd_values(points))

    __call__ = density

    def as_mixture(self):
        """The estimate's odd part: the odd mixture itself."""
        return self.odd


def _twice_positive(odd):
    """The density from its odd part (a float for a float)."""
    out = np.where(odd > 0.0, 2.0 * odd, 0.0)
    return out if out.ndim else float(out)


def _fit(sample, config, fx_values, fx_band, keep_sample=False):
    """The DensityEstimate weighted by the covariate-density values
    fx_values at the sample, with the count of those below the trimming
    floor; keep_sample for a plug-in point fit, whose inference fit reads
    it and which recomputes fx_values from it (see DensityEstimate)."""
    n_obs, d = sample.n_obs, sample.dimension
    chi = config.main_kernel(d).chi()
    coeffs = np.zeros(chi.size - 1)
    coeffs[1::2] = chi[1::2] / (hemisphere.eigenvalues(coeffs.size - 1, d)[1::2] * n_obs)
    floor = config.trimming_floor(n_obs)
    weights = (2.0 * sample.y - 1.0) / np.maximum(fx_values, floor)
    return DensityEstimate(
        odd=HarmonicMixture(sample.x, weights, coeffs),
        config=config,
        fx_values=fx_values,
        trimmed_count=int(np.count_nonzero(fx_values < floor)),
        fx_band=fx_band,
        sample=sample if keep_sample else None,
    )


def estimate_fbeta(sample, config=None, fx=None):
    """Fit the coefficient density from a choice sample.

    fx optionally overrides the plug-in covariate-density step with an
    (N,) array of finite covariate-density values at the sample
    covariates; the fit then has no inference fit.  With fx=None the
    covariate density is itself estimated from the sample, at
    config.fx_truncation with each observation left in its own kernel
    average (_plug_in_fx).  The fit keeps the sample, so that its
    inference fit is built only when read (DensityEstimate.inference), and
    it recomputes those covariate-density values from the sample when
    fx_values is read.
    """
    config = EstimatorConfig() if config is None else config
    n_obs = sample.n_obs
    if n_obs < 3:
        raise ValueError(f"need at least 3 observations, got {n_obs}")
    if fx is not None:
        fx_values = _finite(fx, "fx")
        if fx_values.shape != (n_obs,):
            raise ValueError(f"covariate-density values have shape {fx_values.shape}, expected ({n_obs},)")
        return _fit(sample, config, fx_values, None)
    return _fit(sample, config, _plug_in_fx(sample, config), config.fx_truncation, keep_sample=True)


def _plug_in_fx(sample, config):
    """The plug-in covariate density at the sample, each observation left
    in its own kernel average: the filter weights config.fx_kernel(d).chi()
    against one sweep of the self-sums to config.fx_truncation
    (kernels.self_sums), clipped at zero."""
    _, combine = self_sums(sample.x, config.fx_truncation)
    return np.maximum(combine(config.fx_kernel(sample.dimension).chi()) / sample.n_obs, 0.0)


def weight_summary(estimate):
    """How a fit's weights were formed, as plain numbers for a report.

    trimmed_count, trimmed_share: observations whose covariate density is
        below the trimming floor, so that the floor sets their weight (the
        count the fit recorded, so that no covariate density is recomputed);
    ess_ratio: the Kish effective sample size (sum |w_i|)^2 / sum w_i^2
        over N;
    max_abs_weight: the largest |w_i|;
    fx_band: the covariate-density band behind the weights (None when the
        caller supplied the covariate density);
    lscv_band: the inference fit's cross-validated band, and
        lscv_band_at_cap whether it is the highest band the search tries,
        so that the cap rather than the data chose it (both None without
        an inference fit; reading them builds it, as an interval would).
    """
    w, n_obs, trimmed = estimate.weights, estimate.n_obs, estimate.trimmed_count
    band = None if estimate.inference is None else estimate.inference.fx_band
    return {
        "trimmed_count": trimmed,
        "trimmed_share": trimmed / n_obs,
        "ess_ratio": float(np.sum(np.abs(w))) ** 2 / (n_obs * float(np.sum(w * w))),
        "max_abs_weight": float(np.max(np.abs(w))),
        "fx_band": estimate.fx_band,
        "lscv_band": band,
        "lscv_band_at_cap": None if band is None else band == int(_lscv_bands(estimate.config)[-1]),
    }


@dataclass
class ChoiceProbabilityEstimate:
    """Estimated choice probability x -> 1/2 + odd_part(x).

    odd_part is the hemisphere transform of a density estimate's odd
    mixture (coefficients chi(m) / N at odd m, the same anchors and
    weights), so hemisphere.invert(odd_part) gives back that odd part.
    """

    odd_part: HarmonicMixture

    @property
    def dimension(self):
        return self.odd_part.dimension

    def evaluate(self, points):
        return 0.5 + self.odd_part.evaluate(points)

    __call__ = evaluate


def estimate_choice_probability(sample, config=None, fx=None):
    """Fit the choice-probability function from a choice sample.

    The choice probability is the hemisphere transform of
    estimate_fbeta(sample, config, fx=fx)'s odd part, plus 1/2; fx is None
    or an (N,) array of covariate-density values, as there.
    """
    return ChoiceProbabilityEstimate(hemisphere.transform(estimate_fbeta(sample, config, fx=fx).odd))


def standard_error(estimate, points):
    """Pointwise standard error scale of the density estimate.

    On the positive region the estimate at b is 2/N * sum_i Z_i(b), so the
    returned value is 2 * sd(Z_i(b)) with ddof=1, read from per-degree sums
    (_odd_and_spread).  Divide by sqrt(N) for the half-width scale of a
    normal confidence interval (confidence_interval applies the quantile).
    """
    _, spread = _odd_and_spread(estimate, points)
    return float(spread[0]) if np.ndim(points) == 1 else spread


def _odd_and_spread(fit, points):
    """The fit's odd part and its standard error scale 2 N sd(Z_i) at the
    points, as two (m,) arrays from one degree_sums sweep to Chebyshev
    degree 2D, for g = sum_n c_n q_n the odd part's kernel, c its
    degree_coeffs row of top degree D, and e its Chebyshev coefficients
    (kernels._chebyshev_rows): e, odd, weighted by w_i gives the odd part
    S1 = sum_i w_i g(x_i, b), and chebmul(e, e), the even coefficients of
    g^2, weighted by w_i^2 gives S2 = sum_i w_i^2 g(x_i, b)^2.  Each row is
    reduced on its own, so S1 is the odd part bit for bit.  Then N sd(Z_i)
    = N sqrt((S2 - S1^2 / N) / (N - 1)), the difference clipped at 0
    against rounding."""
    if fit.n_obs < 2:
        raise ValueError("standard error needs at least 2 observations")
    pts = check_on_sphere(points, d=fit.dimension, tol=1e-8)
    (cheb,) = _chebyshev_rows(fit.odd.degree_coeffs, fit.dimension)
    square = np.polynomial.chebyshev.chebmul(cheb, cheb)  # trailing zeros trimmed
    rows = np.zeros((2, 2 * cheb.size - 1))
    rows[0, : cheb.size], rows[1, : square.size] = cheb, square
    weights = np.stack((fit.weights * fit.weights, fit.weights))  # even, odd Chebyshev degrees
    s1, s2 = degree_sums(fit.anchors, weights, pts, rows)
    return s1, 2.0 * fit.n_obs * np.sqrt(np.maximum(s2 - s1 * s1 / fit.n_obs, 0.0) / (fit.n_obs - 1))


def confidence_interval(estimate, points, level=0.95):
    """Pointwise normal confidence interval for the density.

    Returns (lower, upper) arrays (floats at a single point): fit.density
    +- z * standard_error(fit) / sqrt(N) with z the two-sided normal
    quantile for the given level, and the lower bound clipped at 0 (a
    density is never negative); centre and standard error come from one
    degree_sums sweep (_odd_and_spread).  The fit is estimate.inference
    when the estimate has one (a plug-in fit, which builds it on the first
    call; see DensityEstimate), and the estimate itself otherwise: its
    finer, leave-one-out covariate density removes most of the smoothing
    bias that would shift an interval centred on the point estimate away
    from the truth.
    """
    # statistics is imported here so that import spherecoef does not load it
    from statistics import NormalDist

    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    fit = estimate if estimate.inference is None else estimate.inference
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    odd, spread = _odd_and_spread(fit, points)
    center = _twice_positive(odd)
    half = z * spread / math.sqrt(fit.n_obs)
    lower, upper = np.maximum(center - half, 0.0), center + half
    return (float(lower[0]), float(upper[0])) if np.ndim(points) == 1 else (lower, upper)


@functools.lru_cache(maxsize=None)
def _slice_rule(k):
    """Nodes on S^{k-1} and weights summing to 1: the rule that
    marginal_density tabulates.  The arrays are read-only, as the cache
    shares them."""
    if k == 1:
        quad = QuadratureRule(np.array([[-1.0], [1.0]]), np.ones(2), dimension=1)
    elif k == 2:
        quad = build_quadrature(2, 64)
    elif k <= 4:
        quad = build_quadrature(k, 8 if k == 3 else 4, method="product")
    else:
        quad = build_quadrature(k, 512, seed=0, method="montecarlo")
    weights = quad.weights / quad.weights.sum()
    quad.points.flags.writeable = weights.flags.writeable = False
    return quad.points, weights


def marginal_density(density, keep_dims, values, seed=None, dimension=None):
    """Marginal of a sphere density over a coordinate subset.

    A point of S^{d-1} whose kept block equals values is (values, rho u),
    with rho = sqrt(1 - |values|^2) and u on the unit sphere S^{k-1} of
    the k = d - len(keep_dims) integrated coordinates.  The marginal
    density at values is sphere.coarea_factor(k, rho) = rho^{k-2}
    |S^{k-1}| times the mean of the joint density over those points.  The
    mean is taken by a fixed rule on S^{k-1} (_slice_rule):

        k = 1   the two points +-1 (exact)
        k = 2   64 equispaced circle points
        k = 3   the product rule at resolution 8, 128 nodes
        k = 4   the product rule at resolution 4, 512 nodes
        k >= 5  512 Monte-Carlo nodes drawn with seed 0

    A fitted density is twice its odd part's positive part, so the rule is
    exact only where the slice misses the clipped region.  Largest relative
    error over perfbench query-2k's eight kept values (N = 2 000 fits,
    seeds 1-6), against an 8 192-point circle (k = 2) or an 18 432-node
    product rule (k = 3), and for 512 Monte-Carlo draws (worst of 20 seeds):

        k = 2   1.9e-4 to 1.8e-3    Monte Carlo 8.4e-2 to 0.16
        k = 3   1.7e-3 to 1.1e-2    Monte Carlo 8.1e-2 to 0.13

    seed is accepted and ignored: no rule draws at random per call.
    """
    if dimension is None:
        dimension = getattr(density, "dimension", None)
    if dimension is None:
        raise ValueError("pass dimension= when density is a bare callable")
    d = _integer(dimension, "dimension", 2)
    keep = np.asarray(keep_dims, dtype=int)
    if keep.ndim != 1 or keep.size == 0 or keep.size >= d:
        raise ValueError("keep_dims must select between 1 and d-1 coordinates")
    if np.any(keep != np.asarray(keep_dims)):
        raise ValueError(f"keep_dims must be integer coordinates, got {keep_dims}")
    if np.unique(keep).size != keep.size or keep.min() < 0 or keep.max() >= d:
        raise ValueError(f"keep_dims must be distinct coordinates in [0, {d}), got {keep_dims}")
    vals = np.atleast_1d(_finite(values, "values"))
    if vals.shape != (keep.size,):
        raise ValueError(f"values has shape {vals.shape}, expected ({keep.size},)")
    sq = float(vals @ vals)
    if sq >= 1.0:
        raise ValueError("kept coordinates must have norm strictly below 1")
    rho = math.sqrt(1.0 - sq)
    rest = np.setdiff1d(np.arange(d), keep)
    u, weights = _slice_rule(rest.size)
    pts = np.empty((len(weights), d))
    pts[:, keep] = vals
    pts[:, rest] = rho * u
    return coarea_factor(rest.size, rho) * float(weights @ density(pts))


@dataclass
class IdentificationReport:
    """Diagnostic for the one-hemisphere support assumption.

    axis maximizes the hemisphere mass of the estimated odd part over the
    probe nodes; mass_plus and mass_minus are the odd-part masses of the
    two closed hemispheres around it under the normalized surface measure;
    an odd part's are exact negatives, so mass_minus is -mass_plus.  For a
    density supported in the axis hemisphere the plus mass approaches
    +1/(2|S^{d-1}|).
    violation_score is twice the surface measure of the probe region where
    the odd part is clearly positive while the hemisphere mass centered at
    the same direction is negative, a sign incoherence that a
    one-hemisphere density cannot produce.  The positivity cutoff,
    threshold, is POSITIVITY_CUTOFF times the odd part's peak.
    """

    axis: np.ndarray
    mass_plus: float
    violation_score: float
    threshold: float

    @property
    def mass_minus(self):
        return -self.mass_plus


# The diagnostic's positivity cutoff relative to the odd part's peak: 0.3
# clears the ripple the inverted spectral filter leaves at realistic sample
# sizes, keeping the violation score near zero on well-specified data while
# antipodally symmetric coefficient distributions (whose odd part is pure
# noise) score far above 0.05 * |S^{d-1}|.
POSITIVITY_CUTOFF = 0.3


def identification_diagnostic(estimate, resolution=32, quad=None):
    """Check the estimated density for one-hemisphere support.

    The odd part and its hemisphere transform differ only in their
    per-degree coefficients (the transform rescales degree n by its
    eigenvalue), so both are read on the probe nodes as two coefficient
    rows over the same anchors and weights.  The transform's row is the
    odd row times hemisphere.eigenvalues, as hemisphere.transform(odd)
    would hold it, without a second mixture.  The two rows are
    read by whichever route costs less for N anchors, m nodes, the odd
    row's top degree and d (kernels._cheaper_series, by the rule the
    self-sums use): the weighted harmonic moments M = sum_i w_i Y(x_i),
    O((N + m) H) for H harmonics to that degree, and then one basis build
    at the nodes for both rows; or one sweep of the N m cosines
    (HarmonicMixture.evaluate_series), which stays the cheaper for few
    nodes.  The default rules take the moments in d = 2 and 3 (in d = 3,
    N = 5 000, 2 048 nodes: 0.9 ms against the sweep's 49 ms) and the
    sweep at d >= 4's 32 Monte-Carlo nodes.  The routes agree within
    about 1e-15 of each row's largest value; the probe nodes are checked
    on both.
    """
    if isinstance(estimate, DensityEstimate):
        odd = estimate.odd
    elif isinstance(estimate, HarmonicMixture):
        odd = estimate
    else:
        raise TypeError("expected a DensityEstimate or an odd HarmonicMixture")
    if not odd.is_odd():
        raise ValueError("diagnostic needs an odd expansion")
    d = odd.dimension
    if quad is None:
        quad = build_quadrature(d, resolution, seed=0)
    area = surface_area(d)
    hemi_row = odd.degree_coeffs * hemisphere.eigenvalues(odd.max_degree, d)
    odd_vals, hemi_vals = _cheaper_series(odd, quad.points, [odd.degree_coeffs, hemi_row])
    masses = hemi_vals / area
    i_best = int(np.argmax(masses))
    axis = quad.points[i_best].copy()
    mass_plus = float(masses[i_best])
    peak = float(np.max(odd_vals, initial=0.0))
    threshold = max(POSITIVITY_CUTOFF * peak, 1e-12)
    incoherent = (odd_vals > threshold) & (hemi_vals < 0.0)
    score = 2.0 * float(np.sum(quad.weights[incoherent]))
    return IdentificationReport(axis=axis, mass_plus=mass_plus, violation_score=score, threshold=threshold)


class CoefficientDensity:
    """Estimator-style front end: fit on (X, y), then query densities.

    Parameters are EstimatorConfig's fields.  X rows are renormalized to
    unit length (they must already be within 1e-6 of it) and must have
    nonnegative first coordinate.  Query rows are taken the same way.
    """

    def __init__(
        self,
        truncation=EstimatorConfig.truncation,
        trimming_exponent=EstimatorConfig.trimming_exponent,
        family=EstimatorConfig.family,
        s=EstimatorConfig.s,
        l=EstimatorConfig.l,
        fx_truncation=EstimatorConfig.fx_truncation,
    ):
        self.truncation = truncation
        self.trimming_exponent = trimming_exponent
        self.family = family
        self.s = s
        self.l = l
        self.fx_truncation = fx_truncation

    def get_params(self, deep=True):
        return {f.name: getattr(self, f.name) for f in fields(EstimatorConfig)}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in self.get_params():
                raise ValueError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    def fit(self, X, y):
        config = EstimatorConfig(**self.get_params())
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
        sample = ChoiceSample(y=np.asarray(y), x=normalize(check_on_sphere(X, tol=1e-6)))
        self.config_ = config
        self.estimate_ = estimate_fbeta(sample, config)
        self.choice_probability_ = ChoiceProbabilityEstimate(hemisphere.transform(self.estimate_.odd))
        self.n_features_in_ = sample.dimension
        return self

    def _check_fitted(self):
        if not hasattr(self, "estimate_"):
            raise RuntimeError("call fit before querying the estimator")

    def _points(self, B):
        """Query rows taken as fit takes X; a single point stays one."""
        self._check_fitted()
        pts = normalize(check_on_sphere(B, d=self.n_features_in_, tol=1e-6))
        return pts.reshape(np.shape(B))

    def density(self, B):
        pts = self._points(B)
        return self.estimate_.density(pts)

    def odd_density(self, B):
        pts = self._points(B)
        return self.estimate_.odd_values(pts)

    def standard_error(self, B):
        pts = self._points(B)
        return standard_error(self.estimate_, pts)

    def confidence_interval(self, B, level=0.95):
        pts = self._points(B)
        return confidence_interval(self.estimate_, pts, level=level)

    def marginal(self, keep_dims, values, seed=None):
        """Marginal density of the fit at values of the kept coordinates,
        by marginal_density's fixed rule; seed is accepted and ignored."""
        self._check_fitted()
        return marginal_density(self.estimate_, keep_dims, values)

    def diagnostic(self, resolution=32):
        self._check_fitted()
        return identification_diagnostic(self.estimate_, resolution=resolution)

    def predict_proba(self, X):
        """Estimated P(y=1 | x) for new covariate directions, clipped to [0, 1]."""
        pts = self._points(X)
        p = np.clip(self.choice_probability_.evaluate(pts), 0.0, 1.0)
        return np.column_stack([1.0 - p, p]) if isinstance(p, np.ndarray) else np.array([1.0 - p, p])

    def predict(self, X):
        pts = self._points(X)
        p = self.choice_probability_.evaluate(pts)
        return (np.asarray(p) >= 0.5).astype(np.int64)
