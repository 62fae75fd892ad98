"""Tests for the synthetic designs and their exact sphere densities."""

import math

import numpy as np
import pytest

import oracles
from spherecoef.simulate import (
    DgpSpec,
    GaussianMixture,
    generate,
    true_fbeta_on_sphere,
    true_fx_on_sphere,
)
from spherecoef.sphere import build_quadrature, sample_uniform, surface_area


# ---------------------------------------------------------------- mixtures


def test_gaussian_mixture_pdf_matches_explicit_formula():
    mix = GaussianMixture(
        weights=[0.3, 0.7],
        means=[[1.0, -1.0], [0.0, 2.0]],
        covs=np.stack([np.eye(2), [[2.0, 0.5], [0.5, 1.0]]]),
    )
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((25, 2))
    got = mix.pdf(pts)
    ref = np.array(
        [oracles.gaussian_mixture_pdf(p, mix.weights, mix.means, mix.covs) for p in pts]
    )
    assert np.allclose(got, ref, rtol=1e-12)


def test_gaussian_mixture_sampling_moments():
    mix = GaussianMixture(weights=[1.0], means=[[2.0, -1.0]], covs=0.5 * np.eye(2))
    draws = mix.sample(20000, rng=np.random.default_rng(1))
    assert draws.shape == (20000, 2)
    assert np.allclose(draws.mean(axis=0), [2.0, -1.0], atol=0.05)
    assert np.allclose(np.cov(draws.T), 0.5 * np.eye(2), atol=0.05)


def test_gaussian_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture(weights=[0.5, 0.6], means=[[0.0], [1.0]], covs=np.ones((2, 1, 1)))
    with pytest.raises(ValueError):
        GaussianMixture(weights=[1.0, -0.0], means=[[0.0], [1.0]], covs=np.ones((2, 1, 1)))
    with pytest.raises(ValueError):
        GaussianMixture(weights=[1.0], means=[[0.0, 0.0]], covs=np.eye(3))
    for cov in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]):  # singular, indefinite
        with pytest.raises(np.linalg.LinAlgError):
            GaussianMixture(weights=[1.0], means=[[0.0, 0.0]], covs=cov)
    with pytest.raises(ValueError, match="finite"):
        GaussianMixture(weights=[1.0], means=[[0.0, 0.0]], covs=[[np.nan, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_gaussian_density_matches_scipy(m):
    """The Cholesky density against scipy's, on random positive definite
    covariances, within 1e-12 of each case's largest density."""
    from scipy.stats import multivariate_normal

    rng = np.random.default_rng(40 + m)
    for _ in range(10):
        a = rng.standard_normal((m, m))
        cov = a @ a.T + 0.05 * np.eye(m)
        mean = rng.standard_normal(m)
        pts = mean + 2.0 * rng.standard_normal((300, m)) @ a.T
        ref = multivariate_normal(mean=mean, cov=cov).pdf(pts)
        got = GaussianMixture(weights=[1.0], means=[mean], covs=cov).pdf(pts)
        assert got.shape == (300,)
        assert np.max(np.abs(got - ref)) <= 1e-12 * ref.max()


# ------------------------------------------------------------------ designs


def test_benchmark_design_fields():
    m1 = DgpSpec.model_1(n_obs=123, seed=9)
    assert m1.dimension == 3 and m1.n_obs == 123 and m1.seed == 9
    assert m1.fixed_value == 1.0
    assert np.allclose(m1.covariate_cov, 2.0 * np.eye(2))
    assert np.allclose(m1.coefficients.covs[0], 0.3 * np.eye(2))
    m2 = DgpSpec.model_2()
    assert np.allclose(m2.coefficients.weights, [0.5, 0.5])
    assert np.allclose(m2.coefficients.means, [[0.7, -0.7], [-0.7, 0.7]])
    assert np.allclose(
        m2.coefficients.covs[0], 0.3 * np.array([[1.0, 0.5], [0.5, 1.0]])
    )


def test_dgp_spec_validation():
    mix = GaussianMixture(weights=[1.0], means=[[0.0, 0.0]], covs=np.eye(2))
    with pytest.raises(ValueError):
        DgpSpec(dimension=4, n_obs=10, coefficients=mix,
                covariate_mean=np.zeros(3), covariate_cov=np.eye(3))
    with pytest.raises(ValueError):
        DgpSpec(dimension=3, n_obs=0, coefficients=mix,
                covariate_mean=np.zeros(2), covariate_cov=np.eye(2))
    with pytest.raises(ValueError):
        DgpSpec(dimension=3, n_obs=10, coefficients=mix,
                covariate_mean=np.zeros(2), covariate_cov=np.eye(2), fixed_value=0.0)
    with pytest.raises(ValueError):
        DgpSpec(dimension=3, n_obs=10, coefficients=mix,
                covariate_mean=np.zeros(3), covariate_cov=np.eye(2))
    # fixed_value^(d - 1) scales the true density: refused where it is not
    # finite, rather than overflowing when the truth is evaluated
    for fixed in (np.inf, np.nan, 1e308):
        with pytest.raises(ValueError, match="fixed_value"):
            DgpSpec(dimension=3, n_obs=10, coefficients=mix,
                    covariate_mean=np.zeros(2), covariate_cov=np.eye(2), fixed_value=fixed)
    wide = DgpSpec(dimension=2, n_obs=10, coefficients=GaussianMixture([1.0], [[0.0]], [[[1.0]]]),
                   covariate_mean=np.zeros(1), covariate_cov=np.eye(1), fixed_value=1e308)
    assert wide.fixed_value == 1e308  # fixed_value^1 is finite


# ----------------------------------------------------------------- sampling


def test_generate_reproducible_and_consistent():
    spec = DgpSpec.model_1(n_obs=64, seed=5)
    a = generate(spec)
    b = generate(spec)
    c = generate(DgpSpec.model_1(n_obs=64, seed=6))
    assert np.array_equal(a.sample.y, b.sample.y)
    assert np.array_equal(a.sample.x, b.sample.x)
    assert not np.array_equal(a.sample.y, c.sample.y)
    # covariate directions are unit vectors with positive first coordinate
    assert np.allclose(np.linalg.norm(a.sample.x, axis=1), 1.0, atol=1e-12)
    assert np.all(a.sample.x[:, 0] > 0.0)


def test_generate_choices_match_latent_index():
    spec = DgpSpec.model_2(n_obs=80, seed=7)
    draw = generate(spec)
    g, xt = draw.raw_coefficients, draw.covariates
    d = spec.dimension
    index = g[:, 0] + (xt[:, : d - 2] * g[:, 1:]).sum(axis=1)
    index = index + spec.fixed_value * xt[:, d - 2]
    assert np.array_equal(draw.sample.y, (index >= 0.0).astype(np.int64))


def test_generate_respects_fixed_value():
    mix = GaussianMixture(weights=[1.0], means=[[0.0, 0.0]], covs=0.3 * np.eye(2))
    spec = DgpSpec(
        dimension=3, n_obs=50, coefficients=mix,
        covariate_mean=np.zeros(2), covariate_cov=np.eye(2),
        seed=3, fixed_value=2.5,
    )
    draw = generate(spec)
    g, xt = draw.raw_coefficients, draw.covariates
    index = g[:, 0] + xt[:, 0] * g[:, 1] + 2.5 * xt[:, 1]
    assert np.array_equal(draw.sample.y, (index >= 0.0).astype(np.int64))


# ----------------------------------------------------------- true densities


def test_true_fbeta_matches_independent_pushforward():
    spec = DgpSpec.model_2()
    mix = spec.coefficients
    pdf = lambda gpt: oracles.gaussian_mixture_pdf(gpt, mix.weights, mix.means, mix.covs)
    pts = sample_uniform(3, 50, seed=11)
    got = true_fbeta_on_sphere(spec, pts)
    ref = np.array([oracles.pushforward_density(pdf, b, 1.0) for b in pts])
    assert np.allclose(got, ref, atol=1e-13)


def test_true_fbeta_nonunit_fixed_value():
    mix = GaussianMixture(weights=[1.0], means=[[0.1, -0.2]], covs=0.4 * np.eye(2))
    spec = DgpSpec(
        dimension=3, n_obs=10, coefficients=mix,
        covariate_mean=np.zeros(2), covariate_cov=np.eye(2), fixed_value=1.7,
    )
    pdf = lambda gpt: oracles.gaussian_mixture_pdf(gpt, [1.0], mix.means, mix.covs)
    pts = sample_uniform(3, 30, seed=12)
    got = true_fbeta_on_sphere(spec, pts)
    ref = np.array([oracles.pushforward_density(pdf, b, 1.7) for b in pts])
    assert np.allclose(got, ref, atol=1e-13)


def test_true_fbeta_supported_on_upper_hemisphere():
    spec = DgpSpec.model_1()
    pts = sample_uniform(3, 100, seed=13)
    lower = pts[pts[:, 2] <= 0.0]
    assert np.all(true_fbeta_on_sphere(spec, lower) == 0.0)
    upper = pts[pts[:, 2] > 0.0]
    assert np.all(true_fbeta_on_sphere(spec, upper) >= 0.0)


def test_true_fbeta_integrates_to_one():
    quad = build_quadrature(3, 96)
    for spec in (DgpSpec.model_1(), DgpSpec.model_2()):
        total = quad.integrate(true_fbeta_on_sphere(spec, quad.points))
        assert total == pytest.approx(1.0, abs=2e-4)


def test_true_fbeta_mode_value_closed_form():
    """At the pole the pushforward equals the coefficient density at its
    center: 1 / (2 pi 0.3) for the unimodal design."""
    spec = DgpSpec.model_1()
    pole = np.array([0.0, 0.0, 1.0])
    assert true_fbeta_on_sphere(spec, pole) == pytest.approx(
        1.0 / (0.6 * math.pi), rel=1e-14
    )


def test_true_fbeta_bimodal_symmetry():
    """Swapping the two sphere coordinates maps the bimodal design to
    itself, so the density is symmetric under it."""
    spec = DgpSpec.model_2()
    pts = sample_uniform(3, 40, seed=14)
    swapped = pts[:, [1, 0, 2]]
    assert np.allclose(
        true_fbeta_on_sphere(spec, pts), true_fbeta_on_sphere(spec, swapped), atol=1e-13
    )


def test_true_fx_matches_independent_pushforward():
    spec = DgpSpec.model_1()
    pdf = lambda w: oracles.gaussian_mixture_pdf(
        w, [1.0], [spec.covariate_mean], [spec.covariate_cov]
    )
    pts = sample_uniform(3, 50, seed=15)
    got = true_fx_on_sphere(spec, pts)
    # the covariate pivot is the first (intercept) coordinate; the oracle
    # expects the pivot last, so rotate it there
    ref = np.array(
        [oracles.pushforward_density(pdf, np.r_[b[1:], b[0]], 1.0) for b in pts]
    )
    assert np.allclose(got, ref, atol=1e-13)


def test_true_fx_integrates_to_one():
    spec = DgpSpec.model_1()
    quad = build_quadrature(3, 96)
    total = quad.integrate(true_fx_on_sphere(spec, quad.points))
    assert total == pytest.approx(1.0, abs=2e-3)


def test_true_density_shape_contracts():
    spec = DgpSpec.model_1()
    single = true_fbeta_on_sphere(spec, np.array([0.0, 0.0, 1.0]))
    assert isinstance(single, float)
    with pytest.raises(ValueError):
        true_fbeta_on_sphere(spec, np.ones((4, 4)))
