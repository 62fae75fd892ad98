"""Tests for the coefficient-density estimator and its companions."""

import dataclasses
import math
import tracemalloc

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
    identification_diagnostic,
    marginal_density,
    standard_error,
)
from spherecoef import estimator, gegenbauer, hemisphere, kernels
from spherecoef.kernels import ANCHOR_CHUNK, EVAL_CHUNK, MAX_DEGREE, HarmonicMixture, KernelSpec
from spherecoef.simulate import DgpSpec, GaussianMixture, generate, true_fbeta_on_sphere
from spherecoef.sphere import (
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
    for bad in (2, -1, 0.5, np.nan):
        with pytest.raises(ValueError, match="only 0 and 1"):
            ChoiceSample(y=np.array([0, 1, bad, 0]), x=x)
    for good in (np.array([False, True, True, False]), np.array([0.0, 1.0, 1.0, 0.0])):
        s = ChoiceSample(y=good, x=x)
        assert s.y.dtype == np.int64
        assert s.y.tolist() == [0, 1, 1, 0]
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


@pytest.mark.parametrize("name,value", [("truncation", 3), ("fx_truncation", 10), ("fx_truncation", 0)])
def test_delayed_means_config_refuses_a_band_that_is_not_a_power_of_two(name, value):
    """Refused when the config is built, naming the setting, rather than by
    every fit with the kernel's message about a degree."""
    with pytest.raises(ValueError, match=f"^{name} must be a power of two"):
        EstimatorConfig(**{"truncation": 4, "fx_truncation": 8, name: value}, family="delayed_means")
    EstimatorConfig(**{name: value})  # riesz filters any degree


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_estimator_config_refuses_non_finite_trimming_exponent(value):
    with pytest.raises(ValueError, match="finite and positive"):
        EstimatorConfig(trimming_exponent=value)


@pytest.mark.parametrize("family", ["riesz", "dirichlet", "delayed_means"])
@pytest.mark.parametrize("name,value", [(n, v) for n in ("s", "l") for v in (math.inf, -math.inf, math.nan)])
def test_estimator_config_refuses_non_finite_filter_settings(family, name, value):
    """For every family, also those whose filter ignores s or l: the
    config is echoed into reports, which refuse a non-finite value only
    after the fit has run."""
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        EstimatorConfig(family=family, **{name: value})


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


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("family", ["riesz", "delayed_means", "dirichlet"])
def test_fit_coefficients_are_filter_over_eigenvalue(d, family):
    """A fit's coefficient row holds chi(m) / (lambda_m N) at odd m and 0
    at even m, bit for bit, with lambda_m from the eigenvalue row."""
    n_obs = 7
    cfg = EstimatorConfig(truncation=4, family=family, fx_truncation=8)
    coeffs = estimate_fbeta(_random_sample(d, n_obs, seed=d), cfg, fx=np.ones(n_obs)).odd.degree_coeffs
    chi, lam = cfg.main_kernel(d).chi(), hemisphere.eigenvalues(coeffs.size - 1, d)
    assert coeffs.shape == (2 * cfg.truncation,)
    for m, c in enumerate(coeffs):
        assert c == (chi[m] / (lam[m] * n_obs) if m % 2 else 0.0)


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


def test_fx_array_and_plug_in_paths_agree():
    s = _random_sample(3, 20, seed=8)
    cfg = EstimatorConfig(truncation=2)
    fx = estimate_fx(s, cfg.fx_kernel(3))
    est_arr = estimate_fbeta(s, cfg, fx=fx(s.x))
    est_plug = estimate_fbeta(s, cfg)  # plug-in default
    pts = sample_uniform(3, 15, seed=9)
    assert np.allclose(est_plug.density(pts), est_arr.density(pts), atol=1e-15)
    with pytest.raises(TypeError):  # fx takes values, not a callable
        estimate_fbeta(s, cfg, fx=fx)


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


def _record_sweep_rows(monkeypatch):
    """Wrap gegenbauer.chebyshev so that the row count of each cosine
    array it is given is appended to the list returned."""
    rows, real = [], gegenbauer.chebyshev

    def recorded(top, t, *work):
        rows.append(t.shape[0])
        return real(top, t, *work)

    monkeypatch.setattr(gegenbauer, "chebyshev", recorded)
    return rows


def _sums_table(path, x, top):
    """A kernels.self_sums path's energies and its sums S[n, i] as a table, one
    combine per degree with that degree's unit row."""
    energy, combine = path(x, top)
    return energy, np.array([combine(unit) for unit in np.eye(top + 1)])


def _record_basis_rows(monkeypatch):
    """Wrap kernels.harmonic_basis, which every harmonic-basis block calls
    in any d (and which calls itself once per lower dimension), so that the
    row count of each call is appended to the list returned."""
    rows, real = [], kernels.harmonic_basis

    def recorded(x, top):
        rows.append(x.shape[0])
        return real(x, top)

    monkeypatch.setattr(kernels, "harmonic_basis", recorded)
    return rows


@pytest.mark.parametrize("d", [2, 3, 4])
def test_self_sums_match_double_loop(monkeypatch, d):
    """The pair sweep and the harmonic basis each give every degree's sums
    over the whole sample, and their totals as energies, for any block
    size (kernels.EVAL_CHUNK and kernels.BASIS_CHUNK 1: one row per block),
    and the cross-validated covariate density sweeps to the cap.  The
    reference is the double loop of C_n (oracles.pair_sums) times the
    projector constants, and so is its rounding bound."""
    x = _design_points(d, 30, seed=60 + d)
    top = estimator.FX_CV_MAX_BAND
    constants = oracles.projector_constants(top, d)
    ref = constants[:, None] * oracles.pair_sums(x, top)
    nu = (d - 2) / 2.0
    bound = np.array([oracles.gegenbauer_explicit_bound(nu, n) for n in range(top + 1)])
    tol = constants * (1e-13 + 4.0 * np.finfo(float).eps * (x.shape[0] - 1) * bound)
    sweep_rows, basis_rows = _record_sweep_rows(monkeypatch), _record_basis_rows(monkeypatch)
    for block in (1, 97, 1 << 16):
        monkeypatch.setattr(kernels, "EVAL_CHUNK", block)
        monkeypatch.setattr(kernels, "BASIS_CHUNK", block)
        for path, rows in ((kernels._pair_sums, sweep_rows), (kernels._basis_sums, basis_rows)):
            rows.clear()
            energy, sums = _sums_table(path, x, top)
            assert (max(rows) < x.shape[0]) == (block < 1 << 16)  # several blocks
            assert sums.shape == ref.shape
            assert np.all(np.abs(sums - ref) <= tol[:, None])
            assert np.all(np.abs(energy - ref.sum(axis=1)) <= x.shape[0] * tol)
    monkeypatch.undo()
    sweeps = _record_calls(monkeypatch, estimator, "self_sums")
    estimator._cross_validated_fx(ChoiceSample(y=np.ones(30, dtype=int), x=x), EstimatorConfig())
    assert [args[1] for args in sweeps] == [top]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_delayed_means_self_sums_stop_at_its_top_band(monkeypatch, d):
    """delayed_means tries the bands 1, 2, 4, 8 and 16, so its self-sums
    stop at degree 16 rather than at FX_CV_MAX_BAND.  They match the
    double loop times the projector constants within that oracle's
    rounding bound, as in test_self_sums_match_double_loop."""
    x = _design_points(d, 40, seed=70 + d)
    cfg = EstimatorConfig(truncation=4, family="delayed_means", fx_truncation=8)
    sweeps = _record_calls(monkeypatch, estimator, "self_sums")
    estimator._cross_validated_fx(ChoiceSample(y=np.ones(40, dtype=int), x=x), cfg)
    assert [args[1] for args in sweeps] == [16] and estimator._lscv_bands(cfg)[-1] == 16
    nu = (d - 2) / 2.0
    _, sums = _sums_table(kernels.self_sums, x, 16)
    assert sums.shape == (17, 40)
    constants = oracles.projector_constants(16, d)
    bound = np.array([oracles.gegenbauer_explicit_bound(nu, n) for n in range(17)])
    tol = constants * (1e-13 + 4.0 * np.finfo(float).eps * 39 * bound)
    assert np.all(np.abs(sums - constants[:, None] * oracles.pair_sums(x, 16)) <= tol[:, None])


def _circle_sums(x, top):
    """kernels.self_sums in d = 2 from exactly rounded sums: C_n^0(cos a) is
    (2/n) cos(n a), so the sum over j of C_n^0(x_i'x_j) splits into sums of
    cos and sin of n theta_j; times the projector constants, these are the
    sums of q_n."""
    theta = np.arctan2(x[:, 1], x[:, 0])
    ref = np.full((top + 1, x.shape[0]), float(x.shape[0]))
    for n in range(1, top + 1):
        c, s = np.cos(n * theta), np.sin(n * theta)
        ref[n] = (2.0 / n) * (c * math.fsum(c) + s * math.fsum(s))
    return oracles.projector_constants(top, 2)[:, None] * ref


@pytest.mark.parametrize(
    "d,n_obs,top",
    [
        (2, 1000, 24),
        (3, 2000, 24),
        (4, 1500, 24),
        (2, 1000, 64),
        (3, 1500, 64),
        (3, 5000, 10),
        (4, 2000, 10),
        (5, 1000, 24),
        (5, 2000, 10),
    ],
)
def test_basis_sums_accuracy(d, n_obs, top):
    """Through the harmonic basis each degree's sums are within 1e-12 of
    that degree's largest, and its energies within 1e-12 relative, to
    degree 64 and at the point fit's band, 10: against the pair sweep in
    d = 3, 4 and 5, and in d = 2 against _circle_sums, since there the
    pair sweep's own error reaches 1e-12.  At these sizes self_sums takes
    the basis, except in d = 4 at degree 24 (N (top + 1) = 37 500 below
    BASIS_RATIO H = 44 200) and in d = 5 at degree 24, where it takes the
    pair sweep."""
    x = _design_points(d, n_obs, seed=90 + d)
    energy, sums = _sums_table(kernels._basis_sums, x, top)
    if d == 2:
        ref = _circle_sums(x, top)
    else:
        pair_energy, ref = _sums_table(kernels._pair_sums, x, top)
    assert np.max(np.max(np.abs(sums - ref), axis=1) / np.max(np.abs(ref), axis=1)) <= 1e-12
    assert np.max(np.abs(energy - ref.sum(axis=1)) / np.abs(ref.sum(axis=1))) <= 1e-12
    taken = kernels.self_sums(x, top)[0]
    assert np.array_equal(taken, pair_energy if d > 3 and top == 24 else energy)


@pytest.mark.parametrize("d", [3, 4])
def test_basis_combine_sweeps_only_to_the_rows_band(monkeypatch, d):
    """The harmonic basis' energies come from its first pass alone; a
    combination row's pass over the sample builds the basis only to the
    row's last nonzero degree, and a zero row builds nothing."""
    x = _design_points(d, 200, seed=50 + d)
    top = estimator.FX_CV_MAX_BAND
    tops, real = [], kernels._basis_terms

    def recorded(points, deg):
        tops.append(int(deg))
        return real(points, deg)

    monkeypatch.setattr(kernels, "_basis_terms", recorded)
    energy, combine = kernels._basis_sums(x, top)
    assert set(tops) == {top} and energy.shape == (top + 1,)
    row = np.zeros(top + 1)
    row[:7] = 1.0
    tops.clear()
    combine(row)
    assert set(tops) == {6}
    tops.clear()
    assert np.array_equal(combine(np.zeros(top + 1)), np.zeros(200)) and tops == []


@pytest.mark.parametrize("n_obs", [3, 50, 150])
def test_circle_self_sums_take_harmonic_basis(n_obs):
    """In d = 2, kernels.self_sums takes the harmonic basis at every N, where the
    pair sweep would be cheaper below about N = 100 but less accurate:
    each degree's sums are within 1e-13 of that degree's largest exactly
    rounded sum (_circle_sums)."""
    x = _design_points(2, n_obs, seed=80)
    top = estimator.FX_CV_MAX_BAND
    assert np.array_equal(kernels.self_sums(x, top)[0], kernels._basis_sums(x, top)[0])
    _, sums = _sums_table(kernels.self_sums, x, top)
    ref = _circle_sums(x, top)
    assert np.max(np.max(np.abs(sums - ref), axis=1) / np.max(np.abs(ref), axis=1)) <= 1e-13


def test_self_evaluation_memory_is_linear():
    """At N = 20 000 the cross-validated covariate density allocates little
    beyond its sums: the cosines stream through in row blocks, no table of
    every degree's or every pair's cosines is built, and the terms j = i
    leave the sums in place."""
    s = _random_sample(3, 20_000, seed=96)
    tracemalloc.start()
    try:
        estimator._cross_validated_fx(s, EstimatorConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sums_nbytes = (estimator.FX_CV_MAX_BAND + 1) * s.n_obs * 8
    assert peak - sums_nbytes <= 4 * 2**20


def test_lscv_band_same_through_either_path(monkeypatch):
    """On model_1 at N = 500 the cross-validated band the harmonic basis'
    sums choose is the one the pair sweep's sums choose.  Each path is set
    in turn, since self_sums takes only one of them (the basis there, at
    the cap, N (top + 1) = 12 500 > BASIS_RATIO H = 5 000)."""
    cfg = EstimatorConfig()
    samples = [generate(DgpSpec.model_1(n_obs=500, seed=seed)).sample for seed in range(200)]
    monkeypatch.setattr(estimator, "self_sums", kernels._basis_sums)
    bands = [estimator._cross_validated_fx(s, cfg)[0] for s in samples]
    monkeypatch.setattr(estimator, "self_sums", kernels._pair_sums)
    assert bands == [estimator._cross_validated_fx(s, cfg)[0] for s in samples]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("family,band", _FAMILY_BANDS)
def test_self_evaluation_matches_estimate_fx(d, family, band):
    """The point fit's leave-in covariate density at fx_truncation is
    estimate_fx at the sample.  truncation = 4 gives delayed_means a
    power-of-two main kernel; the covariate density does not depend on it."""
    s = _random_sample(d, 60, seed=70 + d)
    cfg = EstimatorConfig(truncation=4, family=family, fx_truncation=band)
    expected = estimate_fx(s, cfg.fx_kernel(d))(s.x)
    assert np.min(expected) > 0.0  # no value clipped, so relative error is defined
    got = estimate_fbeta(s, cfg).fx_values
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("family", ["riesz", "dirichlet", "delayed_means"])
def test_self_evaluation_loo_values_and_lscv_scores(monkeypatch, d, family):
    """Leave-one-out values at the chosen band and the closed-form
    cross-validation scores (read from _lscv_scores as the fit calls it)
    agree with direct sums and a quadrature integral of the squared
    estimate; the chosen band is admissible and has the least score."""
    # a cluster around the first axis, so that the search picks a band
    # well inside the range rather than one of the smallest
    g = np.random.default_rng(80 + d).standard_normal((25, d)) * 0.25
    g[:, 0] += 1.0
    x = normalize(g)
    s = ChoiceSample(y=np.ones(25, dtype=int), x=x)
    # truncation 4 suits every family; the self-evaluation reads only the
    # covariate-density settings
    cfg = EstimatorConfig(truncation=4, family=family, fx_truncation=dict(_FAMILY_BANDS)[family])
    scored, real = [], estimator._lscv_scores
    monkeypatch.setattr(estimator, "_lscv_scores", lambda *args: scored.append(real(*args)) or scored[-1])
    band, loo_values = estimator._cross_validated_fx(s, cfg)
    (scores,) = scored
    bands = estimator._lscv_bands(cfg)
    assert band in bands
    assert scores[list(bands).index(band)] == np.min(scores)
    KernelSpec(family, band, d)  # raises if the band is not admissible
    if family == "delayed_means":
        assert list(bands) == [1, 2, 4, 8, 16]
    else:
        assert list(bands) == list(range(estimator.FX_CV_MAX_BAND + 1))

    loo = np.maximum(oracles.loo_covariate_density(x, family, band), 0.0)
    assert np.max(np.abs(loo_values - loo)) <= _kernel_rounding(d, family, band)

    # f_T^2 has degree 2T <= 16: each rule below integrates it exactly or,
    # for the d = 4 Gauss-Jacobi panels, to rounding
    quad = build_quadrature(d, 64, method="trapezoid") if d == 2 else build_quadrature(
        d, 24, method="product"
    )
    for k, tried in enumerate(bands):
        if tried > 8:
            continue
        ref = oracles.lscv_score(x, family, int(tried), quad.points, quad.weights)
        assert scores[k] == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_plugin_fit_carries_inference_fit():
    """A plug-in fit records its covariate-density band, keeps its sample
    and carries an inference fit weighted by the leave-one-out values at
    the cross-validated band, built once; a fit given fx values, and the
    inference fit, keep no sample and carry none."""
    s = _random_sample(3, 40, seed=26)
    cfg = EstimatorConfig(truncation=2)
    est = estimate_fbeta(s, cfg)
    band, loo_values = estimator._cross_validated_fx(s, cfg)
    inf = est.inference
    assert est.sample is s and est.inference is inf
    assert est.fx_band == cfg.fx_truncation
    assert inf.fx_band == band and inf.sample is None and inf.inference is None
    assert inf.anchors is est.anchors and inf.config is est.config
    assert np.array_equal(inf.odd.degree_coeffs, est.odd.degree_coeffs)
    # one weights array per fit, shared with its odd mixture
    assert est.odd.weights is est.weights and inf.odd.weights is inf.weights
    assert np.array_equal(inf.fx_values, loo_values)
    floor = cfg.trimming_floor(40)
    assert np.array_equal(inf.weights, (2.0 * s.y - 1.0) / np.maximum(loo_values, floor))
    given = estimate_fbeta(s, cfg, fx=est.fx_values)
    assert given.inference is None and given.fx_band is None and given.sample is None
    assert given.odd.weights is given.weights
    pts = sample_uniform(3, 10, seed=27)
    assert np.allclose(given.density(pts), est.density(pts), atol=1e-15)


def _leave_in_at_cap(sample, config):
    """The point fit's covariate density, each x_i left in its own kernel
    average, from a sweep of the self-sums to the cross-validation cap (the
    last of _lscv_bands) rather than to config.fx_truncation."""
    d, cap = sample.dimension, int(estimator._lscv_bands(config)[-1])
    _, combine = kernels.self_sums(sample.x, cap)
    row = np.zeros(cap + 1)
    row[: config.fx_truncation + 1] = config.fx_kernel(d).chi()
    return np.maximum(combine(row) / sample.n_obs, 0.0)


def _record_calls(monkeypatch, module, name):
    """Wrap module.<name> so that each call's positional arguments are
    appended to the list returned."""
    calls, real = [], getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_inference_fit_is_swept_only_when_read(monkeypatch):
    """A plug-in fit sweeps the self-sums once, to fx_truncation, and its
    point queries sweep nothing more; the first interval sweeps once more,
    to the cross-validation cap, for the inference fit, which is then
    kept: a second interval and the weight summary sweep nothing."""
    sweeps = _record_calls(monkeypatch, estimator, "self_sums")
    s = generate(DgpSpec.model_1(n_obs=300, seed=3)).sample
    cfg = EstimatorConfig()
    est = estimate_fbeta(s, cfg)
    pts = sample_uniform(3, 20, seed=4)
    est.density(pts)
    identification_diagnostic(est, resolution=8)
    assert [args[1] for args in sweeps] == [cfg.fx_truncation]
    first = confidence_interval(est, pts)
    assert [args[1] for args in sweeps] == [cfg.fx_truncation, int(estimator._lscv_bands(cfg)[-1])]
    second = confidence_interval(est, pts)
    summary = estimator.weight_summary(est)
    assert len(sweeps) == 2
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert summary["lscv_band"] == est.inference.fx_band


@pytest.mark.parametrize("d,basis_degrees", [(2, [10, 24]), (3, [10, 24]), (4, [])])
def test_point_fit_covariate_density_matches_self_evaluation(monkeypatch, d, basis_degrees):
    """The point fit's covariate density, from a sweep to fx_truncation,
    is the leave-in values from a sweep to the cross-validation cap
    (_leave_in_at_cap), within 1e-13 relative.  At N = 300, d = 2 and 3
    take the harmonic basis (basis_degrees) at both degrees, and d = 4
    the pair sweep (N (top + 1) = 3 300 < BASIS_RATIO H = 4 048 at degree
    10).  The fit sweeps once; reading fx_values sweeps once more to the
    same degree, since a plug-in fit recomputes them from its sample."""
    basis = _record_calls(monkeypatch, kernels, "_basis_sums")
    pairs = _record_calls(monkeypatch, kernels, "_pair_sums")
    s = _random_sample(d, 300, seed=40 + d)
    cfg = EstimatorConfig()
    est = estimate_fbeta(s, cfg)
    assert [args[1] for args in basis] == basis_degrees[:1]
    assert len(basis) + len(pairs) == 1
    got = est.fx_values
    assert [args[1] for args in basis] == basis_degrees[:1] * 2
    assert len(basis) + len(pairs) == 2
    want = _leave_in_at_cap(s, cfg)
    assert [args[1] for args in basis] == basis_degrees[:1] * 2 + basis_degrees[1:]
    assert len(basis) + len(pairs) == 3
    assert np.min(want) > 0.0  # no value clipped, so relative error is defined
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("family", ["riesz", "dirichlet", "delayed_means"])
def test_choice_probability_sweeps_only_to_the_point_band(monkeypatch, family):
    """The choice probability's covariate density comes from a sweep to
    fx_truncation alone, yet equals the leave-in values of a sweep to the
    cross-validation cap bit for bit, and so does the fitted choice
    probability.  The fit sweeps once, and reading its fx_values, which a
    plug-in fit recomputes from its sample, once more."""
    s = _random_sample(3, 60, seed=30)
    cfg = EstimatorConfig(truncation=2, family=family, fx_truncation=8)
    at_cap = _leave_in_at_cap(s, cfg)
    sweeps = _record_calls(monkeypatch, estimator, "self_sums")
    est = estimate_fbeta(s, cfg)
    assert [args[1] for args in sweeps] == [cfg.fx_truncation]
    fx_values = est.fx_values
    assert [args[1] for args in sweeps] == [cfg.fx_truncation] * 2
    assert np.array_equal(fx_values, at_cap)
    pts = sample_uniform(3, 9, seed=31)
    own = estimate_choice_probability(s, cfg).evaluate(pts)
    given = estimate_choice_probability(s, cfg, fx=at_cap).evaluate(pts)
    assert np.array_equal(own, given)


def _hemisphere_uniform_fits(d, seed, read):
    """read(fit, points) over 400 fits of N = 500 draws with covariates
    uniform on the hemisphere x_1 >= 0 and the true covariate density
    2/|S^{d-1}| as fx (above the trimming floor, so no weight is trimmed),
    at the pole and 7 random points.  Coefficients as model_1's: one
    centred Gaussian, covariance 0.3 I.  Returns (spec, points, config,
    the (400, 8) values read)."""
    n_obs, reps = 500, 400
    coefficients = GaussianMixture(weights=[1.0], means=[np.zeros(d - 1)], covs=0.3 * np.eye(d - 1))
    spec = DgpSpec(d, n_obs, coefficients, np.zeros(d - 1), np.eye(d - 1))
    points = np.vstack([np.eye(d)[-1], sample_uniform(d, 7, seed=5)])
    cfg = EstimatorConfig()
    rng = np.random.default_rng(seed)
    fx = np.full(n_obs, 2.0 / surface_area(d))
    values = np.empty((reps, points.shape[0]))
    for r in range(reps):
        x = normalize(rng.standard_normal((n_obs, d)))
        x[:, 0] = np.abs(x[:, 0])
        beta = normalize(np.column_stack([coefficients.sample(n_obs, rng), np.ones(n_obs)]))
        y = (np.einsum("ij,ij->i", x, beta) >= 0.0).astype(int)
        values[r] = read(estimate_fbeta(ChoiceSample(y=y, x=x), cfg, fx=fx), points)
    return spec, points, cfg, values


def _filtered_projection(spec, points, cfg, resolution):
    """sum_{n odd} chi(n) proj_n f_beta at the points: a mixture over a
    product rule weighted by f_beta (its mass within 1e-9 of 1), with chi
    written out by oracles.filter_weight."""
    d, top = spec.dimension, 2 * cfg.truncation
    chi = [oracles.filter_weight(cfg.family, n, top, d) if n % 2 else 0.0 for n in range(top)]
    quad = build_quadrature(d, resolution, method="product")
    return HarmonicMixture(quad.points, quad.weights * true_fbeta_on_sphere(spec, quad.points), chi)(points)


@pytest.mark.parametrize("d,resolution", [(3, 160), (4, 48)])
def test_odd_part_mean_is_the_filtered_projection(d, resolution):
    """On the hemisphere-uniform design (_hemisphere_uniform_fits) the odd
    part's mean is exactly sum_{n odd} chi(n) proj_n f_beta(b): 2 P(y = 1 |
    x) - 1 is twice the hemisphere transform of f_beta's odd part, which
    the fit's 1/lambda_n undoes.  The target (_filtered_projection) is
    written out apart from the package's filter, so a wrong eigenvalue,
    filter weight or 1/N in the package moves the mean off it.  At 8
    points (the pole and 7 random ones), 400 replications of N = 500: the
    largest |z| of mean minus target was 2.1 in both d."""
    spec, points, cfg, odd = _hemisphere_uniform_fits(d, 130 + d, lambda fit, pts: fit.odd_values(pts))
    target = _filtered_projection(spec, points, cfg, resolution)
    z = (odd.mean(axis=0) - target) / (odd.std(axis=0, ddof=1) / math.sqrt(odd.shape[0]))
    assert np.max(np.abs(z)) <= 4.0


@pytest.mark.parametrize("d,resolution", [(3, 160), (4, 48)])
def test_standard_error_squares_to_the_exact_variance(d, resolution):
    """On the same design, (standard_error / 2)^2 is the sample variance
    (ddof 1) of Z_i = (2y_i - 1) k(x_i'b) / f_X(x_i), for k = sum_{n odd}
    (chi(n) / lambda_n) q_n, so its mean is exactly Var Z = int_H
    k(x'b)^2 / f_X dx - (the filtered projection)^2.  k is written out
    from the oracles' filter weights, eigenvalues and Gegenbauer sums, and
    k^2, of degree 4 truncation - 2, is integrated exactly on H by the
    upper panel of the product rule (split at its equator), the
    coordinates rolled so that its polar axis is x_1.  At 8 points, 400
    replications of N = 500: the largest |z| was 1.40 in d = 3 and 1.39 in
    d = 4.  Without the S1^2 / N term it was 62 and 26, with a spread
    missing its factor 2 about 1 830, and with w_i for w_i^2 in S2 the
    spread clips to 0; 1/N for 1/(N - 1) gives 2.6, inside the bound."""
    spec, points, cfg, half = _hemisphere_uniform_fits(
        d, 140 + d, lambda fit, pts: (standard_error(fit, pts) / 2.0) ** 2
    )
    nu, area, top = (d - 2) / 2.0, oracles.sphere_area(d), 2 * cfg.truncation
    rule = build_quadrature(d, 16, method="product")
    upper = rule.points[:, -1] > 0.0
    t = np.roll(rule.points[upper], 1, axis=1) @ points.T
    k = sum(
        oracles.filter_weight(cfg.family, m, top, d)
        * oracles.harmonic_dim(m, d)
        / (oracles.halfspace_eigenvalue_1d(m, d) * oracles.gegenbauer_at_one(nu, m) * area)
        * oracles.gegenbauer_explicit(nu, m, t)
        for m in range(1, top, 2)
    )
    variance = area / 2.0 * (rule.weights[upper] @ k**2) - _filtered_projection(spec, points, cfg, resolution) ** 2
    z = (half.mean(axis=0) - variance) / (half.std(axis=0, ddof=1) / math.sqrt(half.shape[0]))
    assert np.max(np.abs(z)) <= 4.0


def test_estimate_fbeta_validation():
    s = _random_sample(3, 2, seed=10)
    with pytest.raises(ValueError):
        estimate_fbeta(s)
    s5 = _random_sample(3, 5, seed=11)
    with pytest.raises(ValueError):
        estimate_fbeta(s5, fx=np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_estimate_fbeta_refuses_non_finite_fx(bad):
    """One non-finite covariate-density value would otherwise give an
    all-zero density, NaN intervals and a zero violation score; the
    refusal names the first bad index."""
    s = generate(DgpSpec.model_1(n_obs=100, seed=1)).sample
    fx = estimate_fbeta(s).fx_values.copy()
    fx[[17, 42]] = bad
    with pytest.raises(ValueError, match=r"finite.*fx\[17\]"):
        estimate_fbeta(s, fx=fx)


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
    z = oracles.z_values(est, b)
    assert z.shape == (17,)
    assert np.mean(z) == pytest.approx(est.odd_values(b), abs=1e-15)


# Every evaluator of one fit, each called on a (2, 3) batch of points.
_EVALUATORS = {
    "odd_values": lambda est, pts: est.odd_values(pts),
    "density": lambda est, pts: est.density(pts),
    "standard_error": lambda est, pts: standard_error(est, pts),
    "confidence_interval": lambda est, pts: confidence_interval(est, pts),
    "choice_probability": lambda est, pts: estimate_choice_probability(est.sample).evaluate(pts),
    "estimate_fx": lambda est, pts: estimate_fx(est.sample, est.config.fx_kernel(3))(pts),
}


@pytest.mark.parametrize("name", list(_EVALUATORS))
def test_one_point_rule_for_every_evaluator(name):
    """Every evaluator of a fit takes the points its mixture takes: a point
    5e-10 off unit norm is accepted, one 1e-6 off is refused with the
    mixture's own message."""
    est = estimate_fbeta(_random_sample(3, 30, seed=21))
    pts = sample_uniform(3, 2, seed=22)
    _EVALUATORS[name](est, pts * (1.0 + 5e-10))
    with pytest.raises(ValueError, match=r"^points are not unit vectors \(max \|norm-1\| = 1\.000e-06\)$"):
        _EVALUATORS[name](est, pts * (1.0 + 1e-6))


def test_as_mixture_matches_odd_values():
    s = _random_sample(3, 13, seed=16)
    est = estimate_fbeta(s, EstimatorConfig(truncation=3))
    mix = est.as_mixture()
    assert mix.is_odd()
    pts = sample_uniform(3, 25, seed=17)
    assert np.allclose(mix.evaluate(pts), est.odd_values(pts), atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("truncation", [1, 3])
def test_odd_part_is_one_degree_row(d, truncation):
    """The odd part's coefficients are one row indexed by degree
    0..2 * truncation - 1: chi(m) / (lambda_m N) at odd m and 0 at even m."""
    cfg = EstimatorConfig(truncation=truncation)
    row = estimate_fbeta(_random_sample(d, 20, seed=28), cfg, fx=np.ones(20)).odd.degree_coeffs
    assert row.shape == (2 * truncation,)
    assert not np.any(row[::2])
    odd = np.arange(1, 2 * truncation, 2)
    eigenvalues = hemisphere.eigenvalues(2 * truncation - 1, d)[odd]
    assert np.allclose(row[odd], cfg.main_kernel(d).chi()[odd] / (eigenvalues * 20), rtol=1e-15, atol=0.0)


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
    back = hemisphere.invert(rhat.odd_part)
    assert np.allclose(back.evaluate(pts), est.odd_values(pts), atol=1e-12)


# ------------------------------------------------------- inference helpers


def test_standard_error_matches_manual():
    s = _random_sample(3, 40, seed=23)
    est = estimate_fbeta(s, EstimatorConfig(truncation=2))
    b = np.array([0.0, 0.0, 1.0])
    manual = 2.0 * np.std(oracles.z_values(est, b), ddof=1)
    assert standard_error(est, b) == pytest.approx(manual, rel=1e-14)
    batch = standard_error(est, np.vstack([b, [0.0, 1.0, 0.0]]))
    assert batch.shape == (2,)
    assert batch[0] == pytest.approx(manual, rel=1e-14)


def test_confidence_interval_brackets_estimate():
    """The interval is the inference fit's density +- z se / sqrt(N) for a
    plug-in fit, and the estimate's own for a fit given fx values; its
    lower bound is clipped at 0 (below 0 here for both fits)."""
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
        assert lo == pytest.approx(max(center - half, 0.0), rel=1e-12)
        assert hi == pytest.approx(center + half, rel=1e-12)
        lo90, hi90 = confidence_interval(est, b, level=0.90)
        assert lo <= lo90 < hi90 < hi
        with pytest.raises(ValueError):
            confidence_interval(est, b, level=1.5)


def test_confidence_interval_lower_bound_clipped_at_zero():
    """Where the density is clipped to 0 the interval is [0, z se / sqrt(N)],
    not centred at 0 (model_1, N = 500, seed 1: the south pole's interval
    was (-0.112, 0.112)); wherever centre - half-width >= 0 both bounds are
    the unclipped ones, bit for bit."""
    from statistics import NormalDist

    from scipy.stats import norm

    est = estimate_fbeta(generate(DgpSpec.model_1(n_obs=500, seed=1)).sample)
    fit = est.inference
    z = NormalDist().inv_cdf(0.975)
    assert z == pytest.approx(norm.ppf(0.975), rel=1e-15, abs=0.0)
    pole = np.array([0.0, 0.0, -1.0])
    lo, hi = confidence_interval(est, pole)
    assert fit.density(pole) == 0.0
    assert lo == 0.0
    assert hi == z * standard_error(fit, pole) / math.sqrt(fit.n_obs)
    assert hi == pytest.approx(0.112229457441485, rel=1e-12)
    pts = np.vstack([sample_uniform(3, 200, seed=2), pole])
    lo, hi = confidence_interval(est, pts)
    center = fit.density(pts)
    half = z * standard_error(fit, pts) / math.sqrt(fit.n_obs)
    kept = center - half >= 0.0
    assert 0 < np.sum(kept) < pts.shape[0]
    assert np.array_equal(lo[kept], (center - half)[kept])
    assert np.all(lo[~kept] == 0.0)
    assert np.array_equal(hi, center + half)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_fused_interval_matches_density_and_standard_error(d):
    """confidence_interval takes its centre and its standard error from one
    sweep of per-degree sums; the centre is the inference fit's density,
    bit for bit, and the bounds are that density +- z se / sqrt(N), the
    lower one clipped at 0, also bit for bit."""
    from statistics import NormalDist

    s = _random_sample(d, 400, seed=74 + d)
    est = estimate_fbeta(s, EstimatorConfig())
    fit = est.inference
    pts = sample_uniform(d, 300, seed=77 + d)
    lo, hi = confidence_interval(est, pts)
    center = fit.density(pts)
    half = NormalDist().inv_cdf(0.975) * standard_error(fit, pts) / math.sqrt(fit.n_obs)
    assert np.array_equal(hi, center + half)
    assert np.array_equal(lo, np.maximum(center - half, 0.0))


@pytest.mark.parametrize("d", [3, 4, 5])
def test_spread_sweep_reads_the_odd_part_bit_for_bit(d):
    """The standard error's sweep reduces the odd part's Chebyshev row on
    its own, so its S1 is odd_values bit for bit at one point and at many,
    to truncation 64; a product over the odd row and its square together
    rounded differently in d >= 3 (at truncation 4 at one point)."""
    s = _random_sample(d, 400, seed=90 + d)
    for family, truncation in (("riesz", 4), ("dirichlet", 4), ("riesz", 64), ("dirichlet", 64)):
        fit = estimate_fbeta(s, EstimatorConfig(truncation=truncation, family=family))
        for pts in (sample_uniform(d, 1, seed=d), sample_uniform(d, 300, seed=d)):
            assert np.array_equal(estimator._odd_and_spread(fit, pts)[0], fit.odd_values(pts))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_fx_mixture_evaluation_matches_per_anchor_oracle(d):
    """The covariate-density mixture, on every degree up to its band,
    evaluates within 1e-13 of the per-anchor terms route."""
    s = _random_sample(d, 400, seed=80 + d)
    mix = estimate_fx(s, EstimatorConfig().fx_kernel(d)).mixture
    pts = sample_uniform(d, 200, seed=83 + d)
    want = oracles.mixture_by_terms(mix, pts)
    assert np.max(np.abs(mix.evaluate(pts) - want)) <= 1e-13 * np.max(np.abs(want))


def test_standard_error_needs_two_observations():
    s = _random_sample(3, 40, seed=25)
    est = estimate_fbeta(s, EstimatorConfig(truncation=1))
    one = HarmonicMixture(est.anchors[:1], est.weights[:1], est.odd.degree_coeffs)
    trimmed = type(est)(odd=one, config=est.config, fx_values=est.fx_values[:1])
    with pytest.raises(ValueError):
        standard_error(trimmed, np.array([0.0, 0.0, 1.0]))


# The default config, with the nearest power-of-two bands for delayed_means.
_DEFAULT_BANDS = {
    "riesz": EstimatorConfig(),
    "dirichlet": EstimatorConfig(family="dirichlet"),
    "delayed_means": EstimatorConfig(family="delayed_means", truncation=4, fx_truncation=8),
}


@pytest.mark.parametrize("family", list(_DEFAULT_BANDS))
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_standard_error_blocks_match_per_point_loop(d, family):
    """The batched standard error reads per-degree sums, in anchor chunks
    and point blocks; across both boundaries it equals the per-point
    definition 2 * sd(Z_i(b)) over the per-observation summands
    (oracles.z_values), to 1e-14 relative at every point."""
    s = _random_sample(d, 300, seed=32)
    est = estimate_fbeta(s, _DEFAULT_BANDS[family])
    pts = sample_uniform(d, 130, seed=33)
    assert est.n_obs > 2 * ANCHOR_CHUNK  # three anchor chunks
    assert pts.shape[0] > EVAL_CHUNK // ANCHOR_CHUNK  # two point blocks a chunk
    batch = standard_error(est, pts)
    loop = np.array([2.0 * np.std(oracles.z_values(est, b), ddof=1) for b in pts])
    assert np.max(np.abs(batch - loop) / loop) <= 1e-14


@pytest.mark.parametrize("family", list(_DEFAULT_BANDS))
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_standard_error_at_truncation_64_matches_long_double(d, family):
    """At truncation 64 (odd degrees to 127, so a squared series of degree
    254) the standard error is within 1e-12 relative at every point of the
    per-observation definition formed and reduced in long double."""
    cfg = dataclasses.replace(_DEFAULT_BANDS[family], truncation=64)
    est = estimate_fbeta(_random_sample(d, 400, seed=34), cfg)
    pts = sample_uniform(d, 30, seed=35)
    want = oracles.standard_error_long_double(est, pts)
    assert np.max(np.abs(standard_error(est, pts) - want) / want) <= 1e-12


# ---------------------------------------------------------------- marginal


def test_marginal_of_uniform_density_is_half():
    """The uniform density on S^2 has marginal 1/2 on [-1, 1] in each
    coordinate (Archimedes)."""
    d = 3
    f = lambda pts: np.full(pts.shape[0], 1.0 / surface_area(d))
    val = marginal_density(f, keep_dims=[0], values=[0.3], dimension=d)
    assert val == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize(
    "d, values, expected",
    [
        (4, [0.6], lambda rho: 2.0 / math.pi * rho),
        (3, [0.3, -0.4], lambda rho: 1.0 / (2.0 * math.pi * rho)),
        (4, [0.3, 0.4], lambda rho: 1.0 / math.pi),
        (5, [0.2], lambda rho: 0.75 * rho**2),
        (6, [0.5], lambda rho: 8.0 / (3.0 * math.pi) * rho**3),
    ],
    ids=["d4-k3", "d3-k1", "d4-k2", "d5-k4", "d6-k5"],
)
def test_marginal_of_uniform_density_closed_form(d, values, expected):
    """rho^{k-2} |S^{k-1}| / |S^{d-1}| with k = d - len(values) integrated
    coordinates and rho = sqrt(1 - |values|^2): exact for every rule,
    the Monte-Carlo one of k = 5 included, since each rule's weights sum
    to 1."""
    f = lambda pts: np.full(pts.shape[0], 1.0 / surface_area(d))
    keep = list(range(d - len(values), d))
    val = marginal_density(f, keep_dims=keep, values=values, dimension=d)
    rho = math.sqrt(1.0 - float(np.dot(values, values)))
    assert val == pytest.approx(expected(rho), rel=1e-12, abs=1e-12)


def test_marginal_single_leftover_coordinate_exact():
    """With one coordinate left to integrate, the two points +-rho give the
    exact mean, and the slice's measure is 2 / rho."""
    d = 3
    f = lambda pts: pts[:, 2] ** 2 + pts[:, 0]
    val = marginal_density(f, keep_dims=[0, 1], values=[0.3, 0.4], dimension=d)
    expected = 2.0 / math.sqrt(0.75) * (0.75 + 0.3)
    assert val == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("keep", [0, 2])
def test_marginal_of_true_density_integrates_to_one(keep):
    """model_1's exact coefficient density, one coordinate kept: its
    marginal integrates to 1 over [-1, 1] (64-node Gauss-Legendre)."""
    spec = DgpSpec.model_1()
    f = lambda pts: true_fbeta_on_sphere(spec, pts)
    t, w = np.polynomial.legendre.leggauss(64)
    vals = [marginal_density(f, keep_dims=[keep], values=[v], dimension=3) for v in t]
    assert float(w @ np.array(vals)) == pytest.approx(1.0, abs=1e-3)


def test_marginal_on_density_estimate():
    s = _random_sample(3, 20, seed=26)
    est = estimate_fbeta(s, EstimatorConfig(truncation=2))
    val = marginal_density(est, keep_dims=[2], values=[0.5])
    assert np.isfinite(val) and val >= 0.0


def test_marginal_ignores_seed():
    draw = generate(DgpSpec.model_1(n_obs=300, seed=3))
    model = CoefficientDensity().fit(draw.sample.x, draw.sample.y)
    for keep, values in (([2], [0.4]), ([0, 1], [0.2, -0.3])):
        vals = {seed: model.marginal(keep, values, seed=seed) for seed in (0, 1, None)}
        assert vals[0] == vals[1] == vals[None]
        assert vals[0] == marginal_density(model.estimate_, keep, values, seed=7)


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
    with pytest.raises(ValueError, match="integer coordinates"):
        marginal_density(f, keep_dims=[0.5], values=[0.3], dimension=d)
    # nan ** 0 is 1: a NaN value would read a finite marginal
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="values must be finite"):
            marginal_density(f, keep_dims=[0], values=[bad], dimension=d)
    est = estimate_fbeta(generate(DgpSpec.model_1(n_obs=60, seed=3)).sample)
    with pytest.raises(ValueError, match="values must be finite"):
        marginal_density(est.density, keep_dims=[0, 1], values=[0.1, np.nan], dimension=d)


# -------------------------------------------------------------- diagnostic


def test_diagnostic_on_well_specified_data():
    draw = generate(DgpSpec.model_1(n_obs=500, seed=0))
    est = estimate_fbeta(draw.sample)
    report = identification_diagnostic(est)
    reference = 0.05 * surface_area(3)
    assert report.violation_score <= reference
    assert np.arccos(np.clip(report.axis @ np.array([0.0, 0.0, 1.0]), -1, 1)) < 0.5
    assert report.mass_plus > 0.0
    assert report.mass_minus == pytest.approx(-report.mass_plus, abs=1e-12)
    # a hemisphere-supported density puts mass about 1/(2|S^2|) on its side
    assert report.mass_plus == pytest.approx(1.0 / (2.0 * surface_area(3)), rel=0.5)


def test_diagnostic_minus_mass_is_exact_negative():
    """The two hemisphere masses of an odd part are exact negatives, so the
    diagnostic reports mass_minus as -mass_plus bit for bit."""
    est = estimate_fbeta(generate(DgpSpec.model_1(n_obs=500, seed=2)).sample)
    report = identification_diagnostic(est)
    assert report.mass_minus == -report.mass_plus


@pytest.mark.parametrize("d", [2, 3, 4])
def test_diagnostic_equals_the_transformed_mixture_route(d):
    """The diagnostic reads the transform's row from the eigenvalue row;
    its report is the one that the degree_coeffs rows of odd and of
    hemisphere.transform(odd), evaluated together, give, bit for bit: by
    one sweep (HarmonicMixture.evaluate_series) in d = 4, where 16 nodes
    over 300 anchors stay on the sweep, and in d = 2 and 3, where they
    take the moments, as the series of the odd mixture's weighted
    moments."""
    s = generate(DgpSpec.model_1(n_obs=300, seed=4)).sample if d == 3 else _random_sample(d, 300, seed=40 + d)
    odd = estimate_fbeta(s, EstimatorConfig(truncation=4)).odd
    quad = build_quadrature(d, 16, seed=0)
    report = identification_diagnostic(odd, quad=quad)
    rows = np.array([odd.degree_coeffs, hemisphere.transform(odd).degree_coeffs])
    assert kernels._basis_is_cheaper(300, quad.n_nodes, odd.max_degree, d) == (d < 4)
    if d < 4:
        moments = kernels._harmonic_moments(odd.anchors, odd.max_degree, odd.weights)
        odd_vals, hemi_vals = kernels._harmonic_series(moments, quad.points, rows)
    else:
        odd_vals, hemi_vals = odd.evaluate_series(quad.points, rows)
    masses = hemi_vals / surface_area(d)
    best = int(np.argmax(masses))
    assert np.array_equal(report.axis, quad.points[best])
    assert report.mass_plus == masses[best] and report.mass_minus == -masses[best]
    threshold = max(estimator.POSITIVITY_CUTOFF * float(np.max(odd_vals, initial=0.0)), 1e-12)
    assert report.threshold == threshold
    assert report.violation_score == 2.0 * float(np.sum(quad.weights[(odd_vals > threshold) & (hemi_vals < 0.0)]))


@pytest.mark.parametrize("family", ["riesz", "delayed_means", "dirichlet"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_diagnostic_routes_agree(monkeypatch, d, family):
    """The diagnostic's two routes, the weighted moments and the pair
    sweep (each set in turn through kernels._basis_is_cheaper), give the
    same axis and violation score, and masses and cutoffs within 1e-13
    relative.  Both refuse probe nodes of another dimension."""
    s = generate(DgpSpec.model_1(n_obs=400, seed=87)).sample if d == 3 else _random_sample(d, 400, seed=87 + d)
    est = estimate_fbeta(s, EstimatorConfig(truncation=4, family=family, fx_truncation=8))
    quad = build_quadrature(d, 32 if d < 4 else 1024, seed=0)
    wrong = build_quadrature(d + 1, 16, seed=0)
    reports = []
    for moments in (True, False):
        monkeypatch.setattr(kernels, "_basis_is_cheaper", lambda *sizes, taken=moments: taken)
        reports.append(identification_diagnostic(est, quad=quad))
        with pytest.raises(ValueError, match=f"expected points in R\\^{d}"):
            identification_diagnostic(est, quad=wrong)
    by_moments, by_sweep = reports
    assert np.array_equal(by_moments.axis, by_sweep.axis)
    assert by_moments.violation_score == by_sweep.violation_score
    assert by_moments.mass_plus == pytest.approx(by_sweep.mass_plus, rel=1e-13, abs=0.0)
    assert by_moments.threshold == pytest.approx(by_sweep.threshold, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("d,n_obs,moments", [(3, 5000, True), (4, 2000, False)])
def test_diagnostic_takes_the_cheaper_route(monkeypatch, d, n_obs, moments):
    """At fit-5k's shape (d = 3, N = 5 000, the default 2 048 nodes) the
    diagnostic reads the fit's weighted moments and sweeps no pair; at
    d = 4's default 32 Monte-Carlo nodes it stays on the pair sweep, where
    the moments would cost more (kernels._basis_is_cheaper)."""
    s = generate(DgpSpec.model_1(n_obs=n_obs, seed=5)).sample if d == 3 else _random_sample(d, n_obs, seed=55)
    est = estimate_fbeta(s)
    builds = _record_calls(monkeypatch, kernels, "_harmonic_moments")
    sweeps = _record_calls(monkeypatch, kernels, "degree_sums")
    identification_diagnostic(est)
    assert (len(builds), len(sweeps)) == ((1, 0) if moments else (0, 1))
    if moments:
        assert builds[0][0] is est.anchors and builds[0][1] == est.odd.max_degree


def test_plug_in_fit_holds_one_n_vector(monkeypatch):
    """After a plug-in fit, a density read on a grid and the diagnostic, at
    N = 5 000, the fit retains at most 1.25 x 8N bytes beyond its sample:
    its weights, and not the covariate-density values, which fx_values
    recomputes from the sample bit for bit as the fit weighted by them.
    Caches (the connection tables, the probe rule) are filled by one
    fit's reads beforehand."""
    s = generate(DgpSpec.model_1(n_obs=5000, seed=6)).sample
    grid = sample_uniform(3, 1152, seed=7)

    def fit_and_read():
        est = estimate_fbeta(s)
        est.density(grid)
        identification_diagnostic(est)
        return est

    fit_and_read()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        est = fit_and_read()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 1.25 * 8 * s.n_obs
    fits = _record_calls(monkeypatch, estimator, "_fit")
    again = estimate_fbeta(s)
    weighted_by = fits[0][2]
    assert np.array_equal(again.fx_values, weighted_by) and np.array_equal(est.fx_values, weighted_by)
    assert again.trimmed_count == int(np.sum(weighted_by < again.trimming_floor))


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
    zero = dataclasses.replace(est.as_mixture(), degree_coeffs=[0.0, 0.0])
    report = identification_diagnostic(zero)
    assert report.violation_score == 0.0


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("family", ["riesz", "delayed_means", "dirichlet"])
def test_diagnostic_matches_two_evaluation_oracle(d, family):
    """The diagnostic reads the odd part and its hemisphere transform from
    one sweep.  Its axis is the one two separate per-anchor evaluations
    (oracles.mixture_by_terms) give, and its masses, cutoff and score agree
    with theirs to 1e-13."""
    if d == 3:
        s = generate(DgpSpec.model_1(n_obs=400, seed=86)).sample
    else:
        s = _random_sample(d, 400, seed=86 + d)
    est = estimate_fbeta(s, EstimatorConfig(truncation=4, family=family, fx_truncation=8))
    quad = build_quadrature(d, 32 if d < 4 else 2048, seed=0)
    report = identification_diagnostic(est, quad=quad)
    averaged = hemisphere.transform(est.odd)
    hemi = oracles.mixture_by_terms(averaged, quad.points)
    odd = oracles.mixture_by_terms(est.odd, quad.points)
    area = surface_area(d)
    best = int(np.argmax(hemi))
    assert np.array_equal(report.axis, quad.points[best])
    scale = 1e-13 * np.max(np.abs(hemi)) / area
    assert abs(report.mass_plus - hemi[best] / area) <= scale
    assert abs(report.mass_minus - oracles.mixture_by_terms(averaged, -report.axis) / area) <= scale
    threshold = max(0.3 * max(np.max(odd), 0.0), 1e-12)
    assert report.threshold == pytest.approx(threshold, rel=1e-13)
    score = 2.0 * np.sum(quad.weights[(odd > threshold) & (hemi < 0.0)])
    assert abs(report.violation_score - score) <= 1e-13


def test_diagnostic_input_validation():
    with pytest.raises(TypeError):
        identification_diagnostic(lambda p: p[:, 0])


# --------------------------------------------------------- band limits


def test_band_limit_capped_at_max_degree():
    """Band limits whose filter degree exceeds MAX_DEGREE are refused where
    they are set, before any array sized by them exists; the cap itself is
    accepted."""
    top = EstimatorConfig(truncation=MAX_DEGREE // 2, fx_truncation=MAX_DEGREE)
    assert top.main_kernel(3).degree == top.fx_kernel(3).degree == MAX_DEGREE
    for key, value in [
        ("truncation", MAX_DEGREE // 2 + 1),
        ("truncation", 10**8),
        ("fx_truncation", MAX_DEGREE + 1),
        ("fx_truncation", 10**8),
    ]:
        with pytest.raises(ValueError, match=f"^{key} must be"):
            EstimatorConfig(**{key: value})


_NOT_NUMBERS = [(f.name, value) for f in dataclasses.fields(EstimatorConfig) for value in (None, "3", [3])]
_NOT_FINITE = [(name, value) for name in ("truncation", "fx_truncation") for value in (math.inf, -math.inf, math.nan)]
_BOOLS = [(f.name, True) for f in dataclasses.fields(EstimatorConfig)]


@pytest.mark.parametrize("name, value", _NOT_NUMBERS + _NOT_FINITE + _BOOLS)
def test_estimator_config_refuses_non_numbers_naming_the_field(name, value):
    """A ValueError that names the field, not the TypeError, OverflowError
    or ValueError that int() raises on None, infinity or NaN.  A bool is a
    numbers.Real but no setting's value: accepted, it would be echoed into
    reports as true, and truncation=True would read as 1."""
    with pytest.raises(ValueError, match=f"^{name} must be"):
        EstimatorConfig(**{name: value})


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
    marg = model.marginal([2], [0.2])
    assert np.isfinite(marg)


def test_coefficient_density_matches_functional_path():
    """At N = 150 (the harmonic basis at degree 10, the pair sweep for the
    inference fit's self-sums at the cap, 24) and N = 1 000 (the basis at
    both)."""
    for n_obs in (150, 1000):
        draw = generate(DgpSpec.model_1(n_obs=n_obs, seed=5))
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
    draw = generate(DgpSpec.model_1(n_obs=60, seed=3))
    with pytest.raises(ValueError, match="^truncation must be a number"):
        CoefficientDensity(truncation=None).fit(draw.sample.x, draw.sample.y)


def test_coefficient_density_queries_take_rows_as_fit_does():
    """Query rows within 1e-6 of unit norm are renormalized, as fit does X:
    every query on rows scaled by 1 + 1e-7 equals the estimate's on the
    renormalized rows, a single row still gives a single answer, and an
    unfitted model refuses every query."""
    draw = generate(DgpSpec.model_1(n_obs=400, seed=3))
    model = CoefficientDensity().fit(draw.sample.x, draw.sample.y)
    est = model.estimate_
    rows = sample_uniform(3, 5, seed=23) * (1.0 + 1e-7)
    unit = normalize(rows)
    assert np.array_equal(model.density(rows), est.density(unit))
    assert np.array_equal(model.odd_density(rows), est.odd_values(unit))
    assert np.array_equal(model.standard_error(rows), standard_error(est, unit))
    for got, want in zip(model.confidence_interval(rows), confidence_interval(est, unit)):
        assert np.array_equal(got, want)
    p = np.clip(model.choice_probability_.evaluate(unit), 0.0, 1.0)
    assert np.array_equal(model.predict_proba(rows)[:, 1], p)
    assert np.array_equal(model.predict(rows), (p >= 0.5).astype(np.int64))
    assert model.density(rows[0]) == est.density(unit[0])
    assert model.predict_proba(rows[0]).shape == (2,)
    with pytest.raises(ValueError, match="not unit vectors"):
        model.density(rows * (1.0 + 1e-5))
    for query in ("density", "odd_density", "standard_error", "confidence_interval", "predict_proba", "predict"):
        with pytest.raises(RuntimeError, match="call fit"):
            getattr(CoefficientDensity(), query)(unit)


def test_coefficient_density_defaults_are_the_config_defaults():
    assert CoefficientDensity().get_params() == dataclasses.asdict(EstimatorConfig())


def test_coefficient_density_params_mirror_config():
    """The front end's parameters are the config's fields, in order, and
    fit passes them through."""
    names = [f.name for f in dataclasses.fields(EstimatorConfig)]
    assert list(CoefficientDensity().get_params()) == names
    given = dict(truncation=2, trimming_exponent=1.5, family="dirichlet", s=3.0, l=4, fx_truncation=6)
    assert list(given) == names
    model = CoefficientDensity(**given)
    assert model.get_params() == given
    draw = generate(DgpSpec.model_1(n_obs=60, seed=3))
    model.fit(draw.sample.x, draw.sample.y)
    assert model.config_ == EstimatorConfig(**given)
