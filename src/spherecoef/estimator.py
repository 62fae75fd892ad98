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

import inspect
import math
from dataclasses import dataclass, fields

import numpy as np

from . import gegenbauer, hemisphere
from .kernels import KernelSpec, HarmonicMixture, _FAMILIES, _at_one, chi_table, projector_constants
from .sphere import build_quadrature, check_on_sphere, sample_uniform, surface_area

__all__ = [
    "ChoiceSample",
    "EstimatorConfig",
    "FxEstimate",
    "FxSelfEvaluation",
    "DensityEstimate",
    "ChoiceProbabilityEstimate",
    "IdentificationReport",
    "estimate_fx",
    "fx_self_evaluation",
    "estimate_fbeta",
    "estimate_choice_probability",
    "standard_error",
    "confidence_interval",
    "marginal_density",
    "identification_diagnostic",
    "rate_truncation",
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
        vals = np.unique(y)
        if not np.all(np.isin(vals, (0, 1))):
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
    expansion (the spectral filter runs to degree 2*truncation).
    trimming_exponent r sets the covariate-density floor (log N)^(-r).
    fx_truncation is the band limit of the covariate-density kernel.
    family, s, l parametrize the filter profile (see kernels.KernelSpec).
    """

    truncation: int = 3
    trimming_exponent: float = 2.0
    family: str = "riesz"
    s: float = 2.0
    l: int = 3
    fx_truncation: int = 10

    def __post_init__(self):
        if int(self.truncation) != self.truncation or self.truncation < 1:
            raise ValueError(f"truncation must be an integer >= 1, got {self.truncation}")
        self.truncation = int(self.truncation)
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        if not self.trimming_exponent > 0:
            raise ValueError(
                f"trimming_exponent must be positive, got {self.trimming_exponent}"
            )
        if int(self.fx_truncation) != self.fx_truncation or self.fx_truncation < 0:
            raise ValueError(
                f"fx_truncation must be an integer >= 0, got {self.fx_truncation}"
            )
        self.fx_truncation = int(self.fx_truncation)

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
    kernel: KernelSpec

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
    chi = kernel.chi()
    mix = HarmonicMixture(
        dimension=sample.dimension,
        anchors=sample.x,
        weights=np.full(n, 1.0 / n),
        degree_coeffs={m: float(chi[m]) for m in range(chi.size) if chi[m] != 0.0},
    )
    return FxEstimate(mixture=mix, kernel=kernel)


# Highest covariate-density band the cross-validation searches (or
# config.fx_truncation when that is larger).
FX_CV_MAX_BAND = 24


def _self_sums(x, nu, max_degree, budget=1 << 16):
    """S[n, i] = sum_{j != i} C_n^nu(x_i'x_j) for n = 0..max_degree.

    One sweep over the upper triangle of the cosine matrix, in row blocks
    of about `budget` entries: block [lo, hi) x [lo, N) adds its row sums,
    less the diagonal, to S[:, lo:hi] and the sums of its columns hi..N-1
    to S[:, hi:], so every pair is visited once.  The degrees come from
    gegenbauer.sweep on the block's cosines; blocks larger than
    kernels.EVAL_CHUNK spread the per-degree call overhead over more pairs.
    """
    n_obs = x.shape[0]
    sums = np.zeros((max_degree + 1, n_obs))
    lo = 0
    while lo < n_obs:
        width = n_obs - lo
        hi = lo + max(1, min(width, budget // width))
        rows = hi - lo
        diag = np.arange(rows)
        t = np.clip(x[lo:hi] @ x[lo:].T, -1.0, 1.0)
        for n, cur in enumerate(gegenbauer.sweep(nu, max_degree, t)):
            sums[n, lo:hi] += cur.sum(axis=1) - cur[diag, diag]
            if hi < n_obs:
                sums[n, hi:] += cur[:, rows:].sum(axis=0)
        lo = hi
    return sums


def _admissible_bands(family, top):
    """Covariate-density bands 0..top that KernelSpec accepts for the family."""
    if family == "delayed_means":
        return 2 ** np.arange(top.bit_length())
    return np.arange(top + 1)


@dataclass
class FxSelfEvaluation:
    """The covariate-density estimate at its own sample, from one sweep.

    sums[n, i] = sum_{j != i} C_n^nu(x_i'x_j) for every degree n up to
    max(FX_CV_MAX_BAND, config.fx_truncation).  From them:

    fx_values: the estimate at config.fx_truncation, each x_i left in its
        own kernel average and clipped at zero (what estimate_fx gives at
        the sample);
    bands, scores: the admissible bands and their least-squares
        cross-validation scores  int f_T^2 - (2/N) sum_i f_{T,-i}(x_i)
        (Hall, Watson & Cabrera 1987), both terms in closed form in the
        per-degree totals sum_i sums[n, i] because the zonal projectors
        are orthogonal;
    band: the minimising band;
    loo_values: the leave-one-out estimate f_{band,-i}(x_i), clipped at
        zero.
    """

    sums: np.ndarray
    fx_values: np.ndarray
    bands: np.ndarray
    scores: np.ndarray
    band: int
    loo_values: np.ndarray


def _leave_in_values(sums, chi, unit, at_one):
    """The covariate density with filter weights chi at the sample, each
    x_i left in its own kernel average, clipped at zero.  sums is
    _self_sums, unit the projector constants and at_one the values C_n(1),
    each up to at least the kernel's degree."""
    m = chi.size
    # K_T(t) = sum_n chi(n, T) unit[n] C_n(t); the diagonal terms i = j,
    # left out of sums, are C_n(1)
    vals = (chi * unit[:m]) @ (sums[:m] + at_one[:m, None]) / sums.shape[1]
    return np.maximum(vals, 0.0)


def fx_self_evaluation(sample, config):
    """Evaluate the plug-in covariate density at the sample, leave-in at
    config.fx_truncation and leave-one-out at the cross-validated band."""
    n_obs, d = sample.n_obs, sample.dimension
    if n_obs < 3:
        raise ValueError(f"need at least 3 observations, got {n_obs}")
    top = max(FX_CV_MAX_BAND, config.fx_truncation)
    nu = (d - 2) / 2.0
    sums = _self_sums(sample.x, nu, top)
    at_one = _at_one(top, d)
    unit = projector_constants(top, d)
    bands = _admissible_bands(config.family, top)
    chi = chi_table(config.family, bands, top, d, s=config.s, l=config.l)
    totals = sums.sum(axis=1)
    scores = (chi**2 * unit) @ (totals + n_obs * at_one) / n_obs**2
    scores -= 2.0 * (chi * unit) @ totals / (n_obs * (n_obs - 1))
    k = int(np.argmin(scores))
    loo = (chi[k] * unit) @ sums / (n_obs - 1)
    return FxSelfEvaluation(
        sums=sums,
        fx_values=_leave_in_values(sums, config.fx_kernel(d).chi(), unit, at_one),
        bands=bands,
        scores=scores,
        band=int(bands[k]),
        loo_values=np.maximum(loo, 0.0),
    )


def _fx_at_sample(sample, fx):
    """Covariate-density values at the sample from a callable or an array."""
    fx_vals = np.asarray(fx(sample.x) if callable(fx) else fx, dtype=float)
    if fx_vals.shape != (sample.n_obs,):
        raise ValueError(
            f"covariate-density values have shape {fx_vals.shape}, expected ({sample.n_obs},)"
        )
    return fx_vals


@dataclass
class DensityEstimate:
    """Closed-form estimate of the coefficient density on S^{d-1}.

    weights are the per-observation weights w_i = (2y_i - 1) /
    max(fx_values[i], trimming_floor).  odd is the estimate's odd part, an
    odd HarmonicMixture anchored at the sample covariates x_i with weights
    w_i / N and coefficients chi(m) / lambda_m on the odd degrees
    m <= 2 * truncation - 1: the filter weights of kernel over the
    hemisphere eigenvalues.  The density itself is twice its positive
    part.

    fx_band is the band limit of the plug-in covariate-density estimate
    behind fx_values (None when the caller supplied them).  A plug-in fit
    also carries an inference fit: the same anchors, coefficients and
    kernel, with weights from the leave-one-out covariate density at the
    cross-validated band (its fx_band).  That band is finer than the one
    the point estimate uses, so the inference fit has less smoothing bias
    at the price of more variance; confidence_interval is built on it,
    while density, odd_values, z_values and standard_error describe this
    estimate.
    """

    odd: HarmonicMixture
    weights: np.ndarray
    kernel: KernelSpec
    config: EstimatorConfig
    trimming_floor: float
    fx_values: np.ndarray
    fx_band: int | None = None
    inference: DensityEstimate | None = None

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
        check_on_sphere(points, d=self.dimension)
        return self.odd.evaluate(points)

    def density(self, points):
        """Twice the positive part of the odd estimate."""
        ov = self.odd_values(points)
        if isinstance(ov, np.ndarray):
            return np.where(ov > 0.0, 2.0 * ov, 0.0)
        return 2.0 * ov if ov > 0.0 else 0.0

    __call__ = density

    def z_values(self, point):
        """Per-observation summands Z_i at a single point (density = 2 * mean)."""
        if np.ndim(point) != 1:
            raise ValueError("z_values takes a single point")
        check_on_sphere(point, d=self.dimension)
        ((_, terms),) = self.odd.terms(point)
        return terms[0] * self.weights

    def as_mixture(self):
        """The estimate's odd part: the odd mixture itself."""
        return self.odd


def estimate_fbeta(sample, config=None, fx=None):
    """Fit the coefficient density from a choice sample.

    fx optionally overrides the plug-in covariate-density step: a callable
    evaluated at the sample covariates, or an (N,) array of precomputed
    values; the fit then has no separate inference fit.  With fx=None the
    covariate density is itself estimated from the sample
    (fx_self_evaluation): the point estimate weights by it at
    config.fx_truncation, each observation left in, and the inference fit
    by its leave-one-out value at the cross-validated band.  Both fits
    share the odd mixture's anchors and coefficients; only the weights
    differ.
    """
    config = EstimatorConfig() if config is None else config
    n_obs, d = sample.n_obs, sample.dimension
    if n_obs < 3:
        raise ValueError(f"need at least 3 observations, got {n_obs}")
    kernel = config.main_kernel(d)
    chi = kernel.chi()
    coeffs = {m: float(chi[m]) / hemisphere.eigenvalue(m, d) for m in range(1, chi.size, 2)}
    floor = config.trimming_floor(n_obs)

    def fit(fx_vals, fx_band, inference=None):
        weights = (2.0 * sample.y - 1.0) / np.maximum(fx_vals, floor)
        return DensityEstimate(
            odd=HarmonicMixture(d, sample.x, weights / n_obs, coeffs),
            weights=weights,
            kernel=kernel,
            config=config,
            trimming_floor=floor,
            fx_values=fx_vals,
            fx_band=fx_band,
            inference=inference,
        )

    if fx is not None:
        return fit(_fx_at_sample(sample, fx), None)
    fxe = fx_self_evaluation(sample, config)
    return fit(fxe.fx_values, config.fx_truncation, inference=fit(fxe.loo_values, fxe.band))


@dataclass
class ChoiceProbabilityEstimate:
    """Estimated choice probability x -> 1/2 + odd_part(x).

    odd_part is the hemisphere transform of a density estimate's odd
    mixture (coefficients chi(m), the same anchors and weights), so
    inverting the hemisphere operator on it gives back that odd part.
    """

    odd_part: HarmonicMixture

    @property
    def dimension(self):
        return self.odd_part.dimension

    def evaluate(self, points):
        return 0.5 + self.odd_part.evaluate(points)

    __call__ = evaluate

    def coefficient_odd_part(self):
        """Spectral inverse of the odd part under the hemisphere operator."""
        return hemisphere.invert(self.odd_part)


def estimate_choice_probability(sample, config=None, fx=None):
    """Fit the choice-probability function from a choice sample.

    fx is as in estimate_fbeta; with fx=None the weights use the plug-in
    covariate density at config.fx_truncation, the point estimate's.
    """
    config = EstimatorConfig() if config is None else config
    if fx is None:
        d, top = sample.dimension, config.fx_truncation
        sums = _self_sums(sample.x, (d - 2) / 2.0, top)
        chi = config.fx_kernel(d).chi()
        fx = _leave_in_values(sums, chi, projector_constants(top, d), _at_one(top, d))
    odd = estimate_fbeta(sample, config, fx=fx).odd
    return ChoiceProbabilityEstimate(hemisphere.transform(odd))


def standard_error(estimate, points):
    """Pointwise standard error scale of the density estimate.

    On the positive region the estimate at b is 2/N * sum_i Z_i(b), so the
    returned value is 2 * sd(Z_i(b)) with ddof=1.  Divide by sqrt(N) for
    the half-width scale of a normal confidence interval (see
    confidence_interval, which does that and applies the quantile).
    """
    if estimate.n_obs < 2:
        raise ValueError("standard error needs at least 2 observations")
    pts = check_on_sphere(points, d=estimate.dimension)
    out = np.empty(pts.shape[0])
    for rows, terms in estimate.odd.terms(pts):
        out[rows] = 2.0 * np.std(terms * estimate.weights, axis=1, ddof=1)
    return float(out[0]) if np.ndim(points) == 1 else out


def confidence_interval(estimate, points, level=0.95):
    """Pointwise normal confidence interval for the density.

    Returns (lower, upper) arrays: fit.density +- z * standard_error(fit) /
    sqrt(N) with z the two-sided normal quantile for the given level.  The
    fit is estimate.inference when the estimate carries one (a plug-in
    fit; see DensityEstimate), and the estimate itself otherwise.  The
    inference fit's finer, leave-one-out covariate density removes most of
    the smoothing bias that would shift an interval centred on the point
    estimate away from the truth.
    """
    from scipy.stats import norm

    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    fit = estimate if estimate.inference is None else estimate.inference
    z = norm.ppf(0.5 + level / 2.0)
    center = fit.density(points)
    half = z * standard_error(fit, points) / math.sqrt(fit.n_obs)
    return center - half, center + half


def marginal_density(density, keep_dims, values, n_draws=512, seed=None, dimension=None):
    """Marginal of a sphere density over a coordinate subset.

    Integrates out the complementary block of coordinates over the sphere
    of radius sqrt(1 - |values|^2) by Monte Carlo: the marginal at the
    point values (for the kept coordinates) is |S^{d-1}| times the average
    of the joint density over points whose kept block equals values and
    whose complementary block is rho * u with u uniform on the unit sphere
    of the complementary dimension.  When only one coordinate remains to
    integrate, u is a random sign.
    """
    if dimension is None:
        dimension = getattr(density, "dimension", None)
    if dimension is None:
        raise ValueError("pass dimension= when density is a bare callable")
    d = int(dimension)
    keep = np.asarray(keep_dims, dtype=int)
    if keep.ndim != 1 or keep.size == 0 or keep.size >= d:
        raise ValueError("keep_dims must select between 1 and d-1 coordinates")
    if np.unique(keep).size != keep.size or keep.min() < 0 or keep.max() >= d:
        raise ValueError(f"keep_dims must be distinct coordinates in [0, {d}), got {keep_dims}")
    vals = np.atleast_1d(np.asarray(values, dtype=float))
    if vals.shape != (keep.size,):
        raise ValueError(f"values has shape {vals.shape}, expected ({keep.size},)")
    sq = float(vals @ vals)
    if sq >= 1.0:
        raise ValueError("kept coordinates must have norm strictly below 1")
    rho = math.sqrt(1.0 - sq)
    rest = np.setdiff1d(np.arange(d), keep)
    if rest.size == 1:
        rng = np.random.default_rng(seed)
        u = rng.choice((-1.0, 1.0), size=(n_draws, 1))
    else:
        u = sample_uniform(rest.size, n_draws, seed=seed)
    pts = np.empty((n_draws, d))
    pts[:, keep] = vals
    pts[:, rest] = rho * u
    f = density.density if isinstance(density, DensityEstimate) else density
    return surface_area(d) * float(np.mean(f(pts)))


@dataclass
class IdentificationReport:
    """Diagnostic for the one-hemisphere support assumption.

    axis maximizes the hemisphere mass of the estimated odd part over the
    probe nodes; mass_plus and mass_minus are the odd-part masses of the
    two closed hemispheres around it under the normalized surface measure
    (they are exact negatives of each other).  For a density supported in
    the axis hemisphere the plus mass approaches +1/(2|S^{d-1}|).
    violation_score is twice the surface measure of the probe region where
    the odd part is clearly positive while the hemisphere mass centered at
    the same direction is negative, a sign incoherence that a
    one-hemisphere density cannot produce.  The positivity cutoff is
    relative to the odd part's peak; the default 0.3 clears the ripple the
    inverted spectral filter leaves at realistic sample sizes, keeping the
    score near zero on well-specified data while antipodally symmetric
    coefficient distributions (whose odd part is pure noise) score far
    above 0.05 * |S^{d-1}|.
    """

    axis: np.ndarray
    mass_plus: float
    mass_minus: float
    violation_score: float
    threshold: float


def identification_diagnostic(estimate, resolution=32, quad=None, rel_threshold=0.3):
    """Check the estimated density for one-hemisphere support."""
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
    averaged = hemisphere.transform(odd)
    hemi_vals = averaged.evaluate(quad.points)
    masses = hemi_vals / area
    i_best = int(np.argmax(masses))
    axis = quad.points[i_best].copy()
    mass_plus = float(masses[i_best])
    mass_minus = float(averaged.evaluate(-axis) / area)
    odd_vals = odd.evaluate(quad.points)
    peak = float(np.max(odd_vals, initial=0.0))
    threshold = max(rel_threshold * peak, 1e-12)
    incoherent = (odd_vals > threshold) & (hemi_vals < 0.0)
    score = 2.0 * float(np.sum(quad.weights[incoherent]))
    return IdentificationReport(
        axis=axis,
        mass_plus=mass_plus,
        mass_minus=mass_minus,
        violation_score=score,
        threshold=threshold,
    )


def rate_truncation(n_obs, dimension, smoothness=2.0, trimming_exponent=2.0, moment_order=2.0, constant=1.0):
    """Band-limit choice from the convergence-rate tradeoff.

    T grows like (N / (log N)^e)^(1 / (2s + 2d - 1)) with e = 2r plus a
    moment correction 1 - 2/q for q >= 2; the constant is a free scale.
    Returns an integer at least 1.
    """
    if n_obs < 3:
        raise ValueError(f"need at least 3 observations, got {n_obs}")
    if dimension < 2:
        raise ValueError(f"dimension must be >= 2, got {dimension}")
    if smoothness <= 0 or constant <= 0:
        raise ValueError("smoothness and constant must be positive")
    exponent = 2.0 * trimming_exponent
    if moment_order >= 2.0:
        exponent += 1.0 - 2.0 / moment_order
    base = n_obs / math.log(n_obs) ** exponent
    t = constant * base ** (1.0 / (2.0 * smoothness + 2.0 * dimension - 1.0))
    return max(1, int(round(t)))


class CoefficientDensity:
    """Estimator-style front end: fit on (X, y), then query densities.

    Parameters mirror EstimatorConfig; truncation=None picks the band
    limit from the sample size through rate_truncation.  X rows are
    renormalized to unit length (they must already be within 1e-6 of it)
    and must have nonnegative first coordinate.
    """

    def __init__(
        self,
        truncation=3,
        trimming_exponent=2.0,
        family="riesz",
        s=2.0,
        l=3,
        fx_truncation=10,
        smoothness=2.0,
        rate_constant=1.0,
    ):
        self.truncation = truncation
        self.trimming_exponent = trimming_exponent
        self.family = family
        self.s = s
        self.l = l
        self.fx_truncation = fx_truncation
        self.smoothness = smoothness
        self.rate_constant = rate_constant

    def get_params(self, deep=True):
        names = list(inspect.signature(type(self).__init__).parameters)[1:]
        return {name: getattr(self, name) for name in names}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in self.get_params():
                raise ValueError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    def _config(self, n_obs):
        params = {f.name: getattr(self, f.name) for f in fields(EstimatorConfig)}
        if self.truncation is None:
            params["truncation"] = rate_truncation(
                n_obs,
                self._dimension,
                smoothness=self.smoothness,
                trimming_exponent=self.trimming_exponent,
                constant=self.rate_constant,
            )
        return EstimatorConfig(**params)

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
        norms = np.linalg.norm(X, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ValueError("X rows must be unit vectors (within 1e-6)")
        sample = ChoiceSample(y=np.asarray(y), x=X / norms[:, None])
        self._dimension = sample.dimension
        self.config_ = self._config(sample.n_obs)
        self.sample_ = sample
        self.estimate_ = estimate_fbeta(sample, self.config_)
        self.choice_probability_ = ChoiceProbabilityEstimate(
            hemisphere.transform(self.estimate_.odd)
        )
        self.n_features_in_ = sample.dimension
        return self

    def _check_fitted(self):
        if not hasattr(self, "estimate_"):
            raise RuntimeError("call fit before querying the estimator")

    def density(self, B):
        self._check_fitted()
        return self.estimate_.density(B)

    def odd_density(self, B):
        self._check_fitted()
        return self.estimate_.odd_values(B)

    def standard_error(self, B):
        self._check_fitted()
        return standard_error(self.estimate_, B)

    def confidence_interval(self, B, level=0.95):
        self._check_fitted()
        return confidence_interval(self.estimate_, B, level=level)

    def marginal(self, keep_dims, values, n_draws=512, seed=None):
        self._check_fitted()
        return marginal_density(self.estimate_, keep_dims, values, n_draws=n_draws, seed=seed)

    def diagnostic(self, resolution=32):
        self._check_fitted()
        return identification_diagnostic(self.estimate_, resolution=resolution)

    def predict_proba(self, X):
        """Estimated P(y=1 | x) for new covariate directions, clipped to [0, 1]."""
        self._check_fitted()
        p = np.clip(self.choice_probability_.evaluate(X), 0.0, 1.0)
        return np.column_stack([1.0 - p, p]) if isinstance(p, np.ndarray) else np.array([1.0 - p, p])

    def predict(self, X):
        self._check_fitted()
        p = self.choice_probability_.evaluate(X)
        return (np.asarray(p) >= 0.5).astype(np.int64)
