"""Tests for the coefficient-density estimator and its companions."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from spherecoef.estimator import (
    ChoiceSample,
    CoefficientDensity,
    EstimatorConfig,
    confidence_interval,
    estimate_choice_probability,
    estimate_fbeta,
    estimate_fx,
    fx_self_evaluation,
    identification_diagnostic,
    marginal_density,
    rate_truncation,
    standard_error,
)
from spherecoef import estimator
from spherecoef.kernels import EVAL_CHUNK, HarmonicMixture, KernelSpec, projector_constants
from spherecoef.simulate import DgpSpec, generate
from spherecoef.sphere import (
    angle_between,
    build_quadrature,
    normalize,
    sample_uniform,
    surface_area,
)


def _design_points(d, n, seed):
    """Random covariate directions with the sign convention of a design
    whose first regressor is the constant 1 (positive first coordinate)."""
    x = sample_uniform(d, n, seed=seed)
    x[:, 0] = np.abs(x[:, 0])
    return normalize(x)


def _random_sample(d, n, seed):
    rng = np.random.default_rng(seed)
    return ChoiceSample(y=rng.integers(0, 2, n), x=_design_points(d, n, seed + 1))


# ---------------------------------------------------------------- samples


def test_choice_sample_basic_properties():
    s = _random_sample(3, 12, seed=0)
    assert s.n_obs == 12
    assert s.dimension == 3


def test_choice_sample_validation():
    x = _design_points(3, 4, seed=1)
    with pytest.raises(ValueError):
        ChoiceSample(y=np.array([0, 1, 2, 0]), x=x)
    with pytest.raises(ValueError):
        ChoiceSample(y=np.zeros(3), x=x)  # length mismatch
    with pytest.raises(ValueError):
        ChoiceSample(y=np.zeros(4), x=2.0 * x)  # off sphere
    flipped = x.copy()
    flipped[0] = -flipped[0]
    with pytest.raises(ValueError):
        ChoiceSample(y=np.zeros(4), x=flipped)  # negative first coordinate
    for bad in (np.nan, np.inf):
        holed = x.copy()
        holed[2, 1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            ChoiceSample(y=np.zeros(4), x=holed)


# ----------------------------------------------------------------- config


def test_estimator_config_defaults_and_kernels():
    cfg = EstimatorConfig()
    assert cfg.truncation == 3
    assert cfg.trimming_exponent == 2.0
    assert cfg.family == "riesz"
    assert cfg.s == 2.0 and cfg.l == 3
    assert cfg.fx_truncation == 10
    main = cfg.main_kernel(3)
    assert main.degree == 2 * cfg.truncation and main.family == "riesz"
    fxk = cfg.fx_kernel(3)
    assert fxk.degree == 10
    n = 500
    assert cfg.trimming_floor(n) == pytest.approx(math.log(n) ** -2.0, rel=1e-15)


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(truncation=0)
    with pytest.raises(ValueError):
        EstimatorConfig(trimming_exponent=-1.0)
    with pytest.raises(ValueError):
        EstimatorConfig(family="fejer")
    with pytest.raises(ValueError):
        EstimatorConfig().trimming_floor(2)


# ------------------------------------------------------------ estimate_fx


def test_estimate_fx_degree_zero_is_uniform():
    s = _random_sample(3, 9, seed=2)
    fx = estimate_fx(s, KernelSpec("dirichlet", 0, 3))
    pts = sample_uniform(3, 20, seed=3)
    assert np.allclose(fx(pts), 1.0 / surface_area(3), atol=1e-14)


def test_estimate_fx_raw_integral_is_one():
    """Before clipping, the fitted covariate density integrates to one for
    any sample: only the constant term survives the sphere integral."""
    s = _random_sample(3, 15, seed=4)
    fx = estimate_fx(s, KernelSpec("riesz", 8, 3))
    quad = build_quadrature(3, 48)
    assert quad.integrate(fx.mixture.evaluate(quad.points)) == pytest.approx(1.0, rel=1e-10)


def test_estimate_fx_clips_negative_lobes():
    s = ChoiceSample(y=np.zeros(3), x=np.tile([1.0, 0.0, 0.0], (3, 1)))
    fx = estimate_fx(s, KernelSpec("riesz", 8, 3))
    pts = sample_uniform(3, 200, seed=5)
    vals = fx(pts)
    assert np.all(vals >= 0.0)
    assert np.any(fx.mixture.evaluate(pts) < 0.0)  # the raw expansion does dip


def test_estimate_fx_dimension_mismatch():
    s = _random_sample(3, 6, seed=6)
    with pytest.raises(ValueError):
        estimate_fx(s, KernelSpec("riesz", 8, 4))


# -------------------------------------------------- closed-form hand value


def test_density_hand_value_on_circle_dirichlet():
    """Three identical observations on the circle, unit covariate density,
    unsmoothed band limit 1: the density is cos(angle) / pi on its
    positive half and 0 elsewhere."""
    x = np.tile([1.0, 0.0], (3, 1))
    s = ChoiceSample(y=np.ones(3), x=x)
    cfg = EstimatorConfig(truncation=1, family="dirichlet")
    est = estimate_fbeta(s, cfg, fx=np.ones(3))
    for ang in (0.0, 0.4, 1.2):
        b = np.array([math.cos(ang), math.sin(ang)])
        assert est.density(b) == pytest.approx(math.cos(ang) / math.pi, abs=1e-14)
    b_neg = np.array([-1.0, 0.0])
    assert est.density(b_neg) == 0.0
    assert est.odd_values(b_neg) == pytest.approx(-1.0 / (2.0 * math.pi), abs=1e-14)


def test_density_hand_value_on_circle_riesz():
    """Same geometry through the smoothed filter: the single active degree
    is scaled by (1 - 1/5)^3 = 0.512."""
    x = np.tile([1.0, 0.0], (3, 1))
    s = ChoiceSample(y=np.ones(3), x=x)
    cfg = EstimatorConfig(truncation=1, family="riesz", s=2.0, l=3)
    est = estimate_fbeta(s, cfg, fx=np.ones(3))
    assert est.density(np.array([1.0, 0.0])) == pytest.approx(0.512 / math.pi, rel=1e-13)


# ------------------------------------------------------ weights / trimming


def test_signed_weights_and_trimming_floor():
    d, n = 3, 8
    x = _design_points(d, n, seed=7)
    y = np.array([1, 0, 1, 1, 0, 0, 1, 0])
    fx_vals = np.full(n, 0.7)
    fx_vals[2] = 1e-6  # far below the floor
    s = ChoiceSample(y=y, x=x)
    cfg = EstimatorConfig(truncation=2)
    est = estimate_fbeta(s, cfg, fx=fx_vals)
    floor = cfg.trimming_floor(n)
    expected = (2.0 * y - 1.0) / np.maximum(fx_vals, floor)
    assert np.allclose(est.weights, expected, rtol=1e-15)
    assert est.trimming_floor == pytest.approx(floor)
    assert np.array_equal(est.fx_values, fx_vals)


def test_fx_callable_and_array_paths_agree():
    s = _random_sample(3, 20, seed=8)
    cfg = EstimatorConfig(truncation=2)
    fx = estimate_fx(s, cfg.fx_kernel(3))
    est_arr = estimate_fbeta(s, cfg, fx=fx(s.x))
    est_call = estimate_fbeta(s, cfg, fx=fx)
    est_plug = estimate_fbeta(s, cfg)  # plug-in default
    pts = sample_uniform(3, 15, seed=9)
    assert np.allclose(est_call.density(pts), est_arr.density(pts), atol=1e-15)
    assert np.allclose(est_plug.density(pts), est_arr.density(pts), atol=1e-15)


# ------------------------------------- covariate-density self-evaluation

_FAMILY_BANDS = (("riesz", 10), ("dirichlet", 6), ("delayed_means", 8))


def _kernel_rounding(d, family, band):
    """Rounding bound of oracles.zonal_kernel at band T: the per-degree
    bound of the explicit polynomial sum, weighted by the kernel's
    coefficients, times a few machine epsilons."""
    nu = (d - 2) / 2.0
    total = sum(
        abs(oracles.filter_weight(family, n, band, d))
        * oracles.harmonic_dim(n, d)
        / (oracles.sphere_area(d) * oracles.gegenbauer_at_one(nu, n))
        * oracles.gegenbauer_explicit_bound(nu, n)
        for n in range(band + 1)
    )
    return 1e-14 + 8.0 * np.finfo(float).eps * total


@pytest.mark.parametrize("d", [2, 3, 4])
def test_self_sums_match_double_loop(d):
    """The upper-triangle sweep gives every degree's leave-one-out sums,
    for any row-block size (budget 1: one row per block)."""
    x = _design_points(d, 30, seed=60 + d)
    top = estimator.FX_CV_MAX_BAND
    ref = oracles.pair_sums(x, top)
    nu = (d - 2) / 2.0
    bound = np.array([oracles.gegenbauer_explicit_bound(nu, n) for n in range(top + 1)])
    tol = 1e-13 + 4.0 * np.finfo(float).eps * (x.shape[0] - 1) * bound
    for budget in (1, 97, 1 << 16):
        sums = estimator._self_sums(x, nu, top, budget=budget)
        assert sums.shape == ref.shape
        assert np.all(np.abs(sums - ref) <= tol[:, None])
    s = ChoiceSample(y=np.ones(30, dtype=int), x=x)
    fxe = fx_self_evaluation(s, EstimatorConfig())
    assert np.array_equal(fxe.sums, estimator._self_sums(x, nu, top))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("family,band", _FAMILY_BANDS)
def test_self_evaluation_matches_estimate_fx(d, family, band):
    """The leave-in values at fx_truncation are estimate_fx at the sample."""
    s = _random_sample(d, 60, seed=70 + d)
    cfg = EstimatorConfig(family=family, fx_truncation=band)
    expected = estimate_fx(s, cfg.fx_kernel(d))(s.x)
    assert np.min(expected) > 0.0  # no value clipped, so relative error is defined
    got = fx_self_evaluation(s, cfg).fx_values
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("family", ["riesz", "dirichlet", "delayed_means"])
def test_self_evaluation_loo_values_and_lscv_scores(d, family):
    """Leave-one-out values at the chosen band and the closed-form
    cross-validation scores agree with direct sums and a quadrature
    integral of the squared estimate; the chosen band is admissible."""
    # a cluster around the first axis, so that the search picks a band
    # well inside the range rather than one of the smallest
    g = np.random.default_rng(80 + d).standard_normal((25, d)) * 0.25
    g[:, 0] += 1.0
    x = normalize(g)
    s = ChoiceSample(y=np.ones(25, dtype=int), x=x)
    cfg = EstimatorConfig(family=family, fx_truncation=dict(_FAMILY_BANDS)[family])
    fxe = fx_self_evaluation(s, cfg)
    assert fxe.band in fxe.bands
    assert fxe.scores[list(fxe.bands).index(fxe.band)] == np.min(fxe.scores)
    KernelSpec(family, fxe.band, d)  # raises if the band is not admissible
    if family == "delayed_means":
        assert list(fxe.bands) == [1, 2, 4, 8, 16]
    else:
        assert list(fxe.bands) == list(range(estimator.FX_CV_MAX_BAND + 1))

    loo = np.maximum(oracles.loo_covariate_density(x, family, fxe.band), 0.0)
    assert np.max(np.abs(fxe.loo_values - loo)) <= _kernel_rounding(d, family, fxe.band)

    # f_T^2 has degree 2T <= 16: each rule below integrates it exactly or,
    # for the d = 4 Gauss-Jacobi panels, to rounding
    quad = build_quadrature(d, 64, method="trapezoid") if d == 2 else build_quadrature(
        d, 24, method="product"
    )
    for k, band in enumerate(fxe.bands):
        if band > 8:
            continue
        ref = oracles.lscv_score(x, family, int(band), quad.points, quad.weights)
        assert fxe.scores[k] == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_plugin_fit_carries_inference_fit():
    """A plug-in fit records its covariate-density band and carries an
    inference fit weighted by the leave-one-out values at the
    cross-validated band; a fit given fx values carries none."""
    s = _random_sample(3, 40, seed=26)
    cfg = EstimatorConfig(truncation=2)
    est = estimate_fbeta(s, cfg)
    fxe = fx_self_evaluation(s, cfg)
    inf = est.inference
    assert est.fx_band == cfg.fx_truncation
    assert np.array_equal(est.fx_values, fxe.fx_values)
    assert inf.fx_band == fxe.band and inf.inference is None
    assert inf.anchors is est.anchors and inf.kernel == est.kernel
    assert inf.odd.degree_coeffs == est.odd.degree_coeffs
    assert np.array_equal(inf.fx_values, fxe.loo_values)
    floor = cfg.trimming_floor(40)
    assert np.array_equal(inf.weights, (2.0 * s.y - 1.0) / np.maximum(fxe.loo_values, floor))
    given = estimate_fbeta(s, cfg, fx=fxe.fx_values)
    assert given.inference is None and given.fx_band is None
    pts = sample_uniform(3, 10, seed=27)
    assert np.allclose(given.density(pts), est.density(pts), atol=1e-15)


@pytest.mark.parametrize("family", ["riesz", "dirichlet", "delayed_means"])
def test_choice_probability_sweeps_only_to_the_point_band(family):
    """The choice probability's covariate density comes from a sweep to
    fx_truncation alone, yet equals the full self-evaluation's leave-in
    values bit for bit, and so does the fitted choice probability."""
    s = _random_sample(3, 60, seed=30)
    cfg = EstimatorConfig(truncation=2, family=family, fx_truncation=8)
    fxe = fx_self_evaluation(s, cfg)
    sums = estimator._self_sums(s.x, 0.5, cfg.fx_truncation)
    assert sums.shape[0] == cfg.fx_truncation + 1
    chi = cfg.fx_kernel(3).chi()
    unit, at_one = projector_constants(8, 3), estimator._at_one(8, 3)
    assert np.array_equal(estimator._leave_in_values(sums, chi, unit, at_one), fxe.fx_values)
    pts = sample_uniform(3, 9, seed=31)
    own = estimate_choice_probability(s, cfg).evaluate(pts)
    given = estimate_choice_probability(s, cfg, fx=fxe.fx_values).evaluate(pts)
    assert np.array_equal(own, given)


def test_estimate_fbeta_validation():
    s = _random_sample(3, 2, seed=10)
    with pytest.raises(ValueError):
        estimate_fbeta(s)
    s5 = _random_sample(3, 5, seed=11)
    with pytest.raises(ValueError):
        estimate_fbeta(s5, fx=np.ones(4))


# ------------------------------------------------- structural invariants


@pytest.mark.parametrize("d", [2, 3, 4])
def test_density_estimate_structure(d):
    s = _random_sample(d, 25, seed=12 + d)
    est = estimate_fbeta(s, EstimatorConfig(truncation=3))
    pts = sample_uniform(d, 30, seed=40 + d)
    odd = est.odd_values(pts)
    # odd symmetry and the positive-part doubling
    assert np.allclose(est.odd_values(-pts), -odd, atol=1e-13)
    dens = est.density(pts)
    assert np.allclose(dens, np.where(odd > 0.0, 2.0 * odd, 0.0), atol=1e-14)
    # antipodal exclusivity
    assert np.all(dens * est.density(-pts) == 0.0)
    # scalar path
    assert isinstance(est.density(pts[0]), float)
    # the odd part integrates to zero over a symmetric deterministic rule
    quad = build_quadrature(d, 16, method="trapezoid" if d == 2 else "product")
    assert abs(quad.integrate(est.odd_values(quad.points))) < 1e-10


def test_z_values_average_to_odd_part():
    s = _random_sample(3, 17, seed=13)
    est = estimate_fbeta(s, EstimatorConfig(truncation=2))
    b = sample_uniform(3, 1, seed=14)[0]
    z = est.z_values(b)
    assert z.shape == (17,)
    assert np.mean(z) == pytest.approx(est.odd_values(b), abs=1e-15)
    with pytest.raises(ValueError):
        est.z_values(sample_uniform(3, 2, seed=15))


def test_as_mixture_matches_odd_values():
    s = _random_sample(3, 13, seed=16)
    est = estimate_fbeta(s, EstimatorConfig(truncation=3))
    mix = est.as_mixture()
    assert mix.is_odd()
    pts = sample_uniform(3, 25, seed=17)
    assert np.allclose(mix.evaluate(pts), est.odd_values(pts), atol=1e-13)


def test_direct_transcription_agrees():
    """The packaged evaluator equals a from-scratch loop over the defining
    sum at a handful of points (the acceptance suite does this at scale)."""
    rng = np.random.default_rng(18)
    s = _random_sample(3, 11, seed=19)
    fx_vals = rng.uniform(0.4, 1.5, 11)
    est = estimate_fbeta(s, EstimatorConfig(truncation=2), fx=fx_vals)
    for b in sample_uniform(3, 5, seed=20):
        o_odd, o_den = oracles.direct_density_estimate(s.y, s.x, b, fx_vals, 2)
        assert est.odd_values(b) == pytest.approx(o_odd, abs=1e-13)
        assert est.density(b) == pytest.approx(o_den, abs=1e-13)


# ------------------------------------------------------ choice probability


def test_choice_probability_antipodal_sum_and_link():
    s = _random_sample(3, 30, seed=21)
    cfg = EstimatorConfig(truncation=3)
    rhat = estimate_choice_probability(s, cfg)
    pts = sample_uniform(3, 20, seed=22)
    total = rhat.evaluate(pts) + rhat.evaluate(-pts)
    assert np.allclose(total, 1.0, atol=1e-12)
    # the coefficient-density odd part recovered from R-hat matches the
    # direct density estimate's odd part
    est = estimate_fbeta(s, cfg)
    back = rhat.coefficient_odd_part()
    assert np.allclose(back.evaluate(pts), est.odd_values(pts), atol=1e-12)


# ------------------------------------------------------- inference helpers


def test_standard_error_matches_manual():
    s = _random_sample(3, 40, seed=23)
    est = estimate_fbeta(s, EstimatorConfig(truncation=2))
    b = np.array([0.0, 0.0, 1.0])
    manual = 2.0 * np.std(est.z_values(b), ddof=1)
    assert standard_error(est, b) == pytest.approx(manual, rel=1e-14)
    batch = standard_error(est, np.vstack([b, [0.0, 1.0, 0.0]]))
    assert batch.shape == (2,)
    assert batch[0] == pytest.approx(manual, rel=1e-14)


def test_confidence_interval_brackets_estimate():
    """The interval is the inference fit's density +- z se / sqrt(N) for a
    plug-in fit, and the estimate's own for a fit given fx values."""
    s = _random_sample(3, 40, seed=24)
    cfg = EstimatorConfig(truncation=2)
    plug = estimate_fbeta(s, cfg)
    given = estimate_fbeta(s, cfg, fx=estimate_fx(s, cfg.fx_kernel(3))(s.x))
    b = np.array([0.0, 0.0, 1.0])
    for est, fit in ((plug, plug.inference), (given, given)):
        lo, hi = confidence_interval(est, b, level=0.95)
        center = fit.density(b)
        assert center > 0.0
        half = 1.959963984540054 * standard_error(fit, b) / math.sqrt(fit.n_obs)
        assert lo == pytest.approx(center - half, rel=1e-12)
        assert hi == pytest.approx(center + half, rel=1e-12)
        lo90, hi90 = confidence_interval(est, b, level=0.90)
        assert lo < lo90 < hi90 < hi
        with pytest.raises(ValueError):
            confidence_interval(est, b, level=1.5)


def test_standard_error_needs_two_observations():
    s = _random_sample(3, 40, seed=25)
    est = estimate_fbeta(s, EstimatorConfig(truncation=1))
    one = HarmonicMixture(3, est.anchors[:1], est.weights[:1], est.odd.degree_coeffs)
    trimmed = type(est)(
        odd=one,
        weights=est.weights[:1],
        kernel=est.kernel,
        config=est.config,
        trimming_floor=est.trimming_floor,
        fx_values=est.fx_values[:1],
    )
    with pytest.raises(ValueError):
        standard_error(trimmed, np.array([0.0, 0.0, 1.0]))


def test_standard_error_blocks_match_per_point_loop():
    """The batched standard error reads the odd mixture's per-anchor terms
    block by block; across block boundaries it equals the per-point
    definition 2 * sd(Z_i(b))."""
    s = _random_sample(3, 300, seed=32)
    est = estimate_fbeta(s, EstimatorConfig(truncation=3))
    pts = sample_uniform(3, 130, seed=33)
    per_block = EVAL_CHUNK // est.n_obs
    assert pts.shape[0] > 2 * per_block  # at least two block boundaries
    batch = standard_error(est, pts)
    loop = np.array([2.0 * np.std(est.z_values(b), ddof=1) for b in pts])
    assert np.max(np.abs(batch - loop) / loop) <= 1e-14


# ---------------------------------------------------------------- marginal


def test_marginal_of_uniform_density_is_one():
    d = 3
    f = lambda pts: np.full(pts.shape[0], 1.0 / surface_area(d))
    val = marginal_density(f, keep_dims=[0], values=[0.3], n_draws=128, seed=0, dimension=d)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_marginal_single_leftover_coordinate_exact():
    """With one coordinate left to integrate and an even integrand in it,
    the random signs average to the exact two-point value."""
    d = 3
    f = lambda pts: pts[:, 2] ** 2 + pts[:, 0]
    val = marginal_density(
        f, keep_dims=[0, 1], values=[0.3, 0.4], n_draws=64, seed=1, dimension=d
    )
    expected = surface_area(3) * (0.75 + 0.3)
    assert val == pytest.approx(expected, rel=1e-12)


def test_marginal_on_density_estimate():
    s = _random_sample(3, 20, seed=26)
    est = estimate_fbeta(s, EstimatorConfig(truncation=2))
    val = marginal_density(est, keep_dims=[2], values=[0.5], n_draws=256, seed=2)
    assert np.isfinite(val) and val >= 0.0


def test_marginal_validation():
    d = 3
    f = lambda pts: np.ones(pts.shape[0])
    with pytest.raises(ValueError):
        marginal_density(f, keep_dims=[0], values=[0.3], dimension=None)
    with pytest.raises(ValueError):
        marginal_density(f, keep_dims=[0, 1, 2], values=[0.1, 0.1, 0.1], dimension=d)
    with pytest.raises(ValueError):
        marginal_density(f, keep_dims=[0], values=[1.2], dimension=d)
    with pytest.raises(ValueError):
        marginal_density(f, keep_dims=[0, 0], values=[0.1, 0.1], dimension=d)


# -------------------------------------------------------------- diagnostic


def test_diagnostic_on_well_specified_data():
    draw = generate(DgpSpec.model_1(n_obs=500, seed=0))
    est = estimate_fbeta(draw.sample)
    report = identification_diagnostic(est)
    reference = 0.05 * surface_area(3)
    assert report.violation_score <= reference
    assert angle_between(report.axis, np.array([0.0, 0.0, 1.0])) < 0.5
    assert report.mass_plus > 0.0
    assert report.mass_minus == pytest.approx(-report.mass_plus, abs=1e-12)
    # a hemisphere-supported density puts mass about 1/(2|S^2|) on its side
    assert report.mass_plus == pytest.approx(1.0 / (2.0 * surface_area(3)), rel=0.5)


def test_diagnostic_flags_antipodally_symmetric_coefficients():
    """Coefficients drawn from an even density (antipodal caps with random
    sign flips) break the one-hemisphere assumption; the odd part of the
    fitted expansion is sign-incoherent and the score jumps."""
    rng = np.random.default_rng(1000)
    n = 500
    spec = DgpSpec.model_1(n_obs=n, seed=1000)
    x = generate(spec).sample.x
    axis = np.array([0.0, 0.0, 1.0])
    cap = sample_uniform(3, n, seed=1001)
    cap = normalize(axis + 0.5 * cap)  # points concentrated around the axis
    signs = rng.choice((-1.0, 1.0), size=(n, 1))
    beta = cap * signs
    y = (np.sum(x * beta, axis=1) >= 0.0).astype(int)
    est = estimate_fbeta(ChoiceSample(y=y, x=x))
    report = identification_diagnostic(est)
    assert report.violation_score > 0.05 * surface_area(3)


def test_diagnostic_zero_odd_part():
    s = _random_sample(3, 10, seed=27)
    est = estimate_fbeta(s, EstimatorConfig(truncation=2), fx=np.ones(10))
    zero = est.as_mixture().with_degree_coeffs({1: 0.0})
    report = identification_diagnostic(zero)
    assert report.violation_score == 0.0


def test_diagnostic_input_validation():
    with pytest.raises(TypeError):
        identification_diagnostic(lambda p: p[:, 0])


# ---------------------------------------------------------- rate truncation


def test_rate_truncation_growth_and_values():
    assert rate_truncation(500, 3) == 1
    ts = [rate_truncation(n, 3) for n in (10**3, 10**5, 10**7, 10**9)]
    assert all(b >= a for a, b in zip(ts, ts[1:]))
    assert ts[-1] > ts[0]
    assert rate_truncation(500, 3, constant=3.4) == 3
    # moment correction below q = 2 drops the extra log exponent
    low_q = rate_truncation(10**6, 3, moment_order=1.5)
    assert low_q >= rate_truncation(10**6, 3, moment_order=4.0)


def test_rate_truncation_validation():
    with pytest.raises(ValueError):
        rate_truncation(2, 3)
    with pytest.raises(ValueError):
        rate_truncation(100, 1)
    with pytest.raises(ValueError):
        rate_truncation(100, 3, smoothness=0.0)
    with pytest.raises(ValueError):
        rate_truncation(100, 3, constant=-1.0)


# ----------------------------------------------------------- estimator API


def test_coefficient_density_fit_and_queries():
    draw = generate(DgpSpec.model_1(n_obs=200, seed=3))
    model = CoefficientDensity(truncation=2)
    fitted = model.fit(draw.sample.x, draw.sample.y)
    assert fitted is model
    assert model.n_features_in_ == 3
    pts = sample_uniform(3, 10, seed=28)
    dens = model.density(pts)
    assert dens.shape == (10,)
    assert np.all(dens >= 0.0)
    assert np.allclose(model.odd_density(-pts), -model.odd_density(pts), atol=1e-13)
    lo, hi = model.confidence_interval(pts[0])
    assert lo <= model.density(pts[0]) <= hi
    assert model.standard_error(pts[0]) > 0.0
    report = model.diagnostic(resolution=16)
    assert np.isfinite(report.violation_score)
    marg = model.marginal([2], [0.2], n_draws=64, seed=4)
    assert np.isfinite(marg)


def test_coefficient_density_matches_functional_path():
    draw = generate(DgpSpec.model_1(n_obs=150, seed=5))
    model = CoefficientDensity().fit(draw.sample.x, draw.sample.y)
    est = estimate_fbeta(draw.sample)
    pts = sample_uniform(3, 12, seed=29)
    assert np.allclose(model.density(pts), est.density(pts), atol=1e-13)
    # the model keeps the plug-in fit's inference fit for its intervals
    for got, want in zip(model.confidence_interval(pts), confidence_interval(est, pts)):
        assert np.allclose(got, want, atol=1e-13)
    # and its choice probability is the functional path's, clipped
    want = np.clip(estimate_choice_probability(draw.sample).evaluate(pts), 0.0, 1.0)
    assert np.allclose(model.predict_proba(pts)[:, 1], want, rtol=0.0, atol=1e-13)


def test_coefficient_density_predictions():
    draw = generate(DgpSpec.model_1(n_obs=300, seed=6))
    model = CoefficientDensity().fit(draw.sample.x, draw.sample.y)
    proba = model.predict_proba(draw.sample.x[:50])
    assert proba.shape == (50, 2)
    assert np.all((proba >= 0.0) & (proba <= 1.0))
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-12)
    labels = model.predict(draw.sample.x[:50])
    assert set(np.unique(labels)) <= {0, 1}
    # choice probabilities carry real signal: predictions beat coin flips
    agree = np.mean(model.predict(draw.sample.x) == draw.sample.y)
    assert agree > 0.55


def test_coefficient_density_rate_rule_band_limit():
    draw = generate(DgpSpec.model_1(n_obs=200, seed=7))
    model = CoefficientDensity(truncation=None, rate_constant=3.4)
    model.fit(draw.sample.x, draw.sample.y)
    assert model.config_.truncation == rate_truncation(200, 3, constant=3.4)


def test_coefficient_density_params_and_validation():
    model = CoefficientDensity()
    params = model.get_params()
    assert params["truncation"] == 3 and params["family"] == "riesz"
    model.set_params(truncation=4, family="dirichlet")
    assert model.truncation == 4 and model.family == "dirichlet"
    with pytest.raises(ValueError):
        model.set_params(bandwidth=1.0)
    with pytest.raises(RuntimeError):
        CoefficientDensity().density(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        CoefficientDensity().fit(np.ones((5, 3)), np.zeros(5))  # rows not unit


def test_coefficient_density_params_mirror_config():
    """The front end's parameters are the config's fields plus the two
    rate-rule constants, and a fixed truncation passes them through."""
    names = [f.name for f in dataclasses.fields(EstimatorConfig)]
    given = dict(truncation=2, trimming_exponent=1.5, family="dirichlet", s=3.0, l=4, fx_truncation=6)
    assert set(given) == set(names)
    model = CoefficientDensity(**given, smoothness=1.0, rate_constant=2.0)
    assert set(model.get_params()) == set(names) | {"smoothness", "rate_constant"}
    draw = generate(DgpSpec.model_1(n_obs=60, seed=3))
    model.fit(draw.sample.x, draw.sample.y)
    assert model.config_ == EstimatorConfig(**given)
