"""Tests for harmonic machinery: dimensions, projectors, smoothed kernels,
anchored mixtures."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from helpers import kernel_eval, projector_kernel
from spherecoef import hemisphere, kernels
from spherecoef.kernels import EVAL_CHUNK, MAX_DEGREE, HarmonicMixture, KernelSpec, eigenspace_dim
from spherecoef.sphere import build_quadrature, sample_uniform, surface_area


def test_eigenspace_dim_known_forms():
    assert eigenspace_dim(0, 5) == 1
    for n in range(1, 10):
        assert eigenspace_dim(n, 2) == 2
        assert eigenspace_dim(n, 3) == 2 * n + 1
        assert eigenspace_dim(n, 4) == (n + 1) ** 2


@pytest.mark.parametrize("d", [2, 3, 4, 6, 9])
def test_eigenspace_dim_matches_independent_formula(d):
    for n in range(16):
        assert eigenspace_dim(n, d) == oracles.harmonic_dim(n, d)


def test_projector_kernel_value_at_one():
    for d in (2, 3, 4):
        for n in range(6):
            expected = eigenspace_dim(n, d) / surface_area(d)
            assert projector_kernel(n, d, 1.0) == pytest.approx(expected, rel=1e-12)


def test_projector_kernel_reproducing_property():
    """int q_n(x'y) q_m(y'z) dsigma(y) equals delta_{nm} q_n(x'z)."""
    d = 3
    quad = build_quadrature(d, 48)
    rng = np.random.default_rng(2)
    x, z = sample_uniform(d, 2, seed=21)
    for n in range(4):
        qn = projector_kernel(n, d, quad.points @ x)
        for m in range(4):
            qm = projector_kernel(m, d, quad.points @ z)
            val = quad.integrate(qn * qm)
            target = projector_kernel(n, d, float(x @ z)) if n == m else 0.0
            assert val == pytest.approx(target, abs=1e-9)


def test_chi_weights_dirichlet_and_cutoff():
    spec = KernelSpec("dirichlet", 5, 3)
    assert np.array_equal(spec.chi(), np.ones(6))


def test_chi_weights_riesz_shape_and_hand_value():
    spec = KernelSpec("riesz", 2, 2, s=2.0, l=3)
    w = spec.chi()
    assert w[0] == pytest.approx(1.0, rel=1e-15)
    # zeta_1 = 1, zeta_2 = 4: (1 - (1/5))^3 = 0.512
    assert w[1] == pytest.approx(0.512, rel=1e-13)
    big = KernelSpec("riesz", 12, 3, s=2.0, l=3).chi()
    assert np.all(np.diff(big) < 0.0)
    assert np.all(big > 0.0) and np.all(big <= 1.0)
    for n in range(13):
        assert big[n] == pytest.approx(oracles.riesz_weight(n, 12, 3), rel=1e-13)


def test_chi_weights_delayed_means_profile():
    spec = KernelSpec("delayed_means", 16, 3)
    w = spec.chi()
    assert np.allclose(w[: 16 // 2 + 1], 1.0)
    assert w[16] == 0.0
    assert np.all(np.diff(w) <= 1e-15)
    assert np.all((w >= 0.0) & (w <= 1.0))


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("fejer", 4, 3)
    with pytest.raises(ValueError):
        KernelSpec("riesz", -1, 3)
    with pytest.raises(ValueError):
        KernelSpec("riesz", 4, 1)
    with pytest.raises(ValueError):
        KernelSpec("riesz", 4, 3, s=0.0)
    with pytest.raises(ValueError):
        KernelSpec("riesz", 4, 8, l=3)  # needs l > (d-2)/2 = 3
    with pytest.raises(ValueError):
        KernelSpec("delayed_means", 12, 3)  # not a power of two
    with pytest.raises(ValueError, match="degree"):
        KernelSpec("riesz", MAX_DEGREE + 1, 3)
    assert KernelSpec("delayed_means", MAX_DEGREE, 3).chi().shape == (MAX_DEGREE + 1,)
    spec = KernelSpec("riesz", 4, 4)
    assert spec.nu == 1.0


@pytest.mark.parametrize("s", [np.inf, -np.inf, np.nan])
def test_kernel_spec_refuses_non_finite_riesz_smoothness(s):
    with pytest.raises(ValueError, match="finite"):
        KernelSpec("riesz", 4, 3, s=s)


@pytest.mark.parametrize("l", [np.inf, np.nan])
def test_kernel_spec_refuses_non_finite_riesz_power(l):
    """A ValueError, not the OverflowError or ValueError of int()."""
    with pytest.raises(ValueError, match="^riesz power l must be"):
        KernelSpec("riesz", 4, 3, l=l)


@pytest.mark.parametrize("family,degree", [("riesz", 6), ("dirichlet", 6), ("delayed_means", 8)])
def test_kernel_eval_matches_projector_sum(family, degree):
    spec = KernelSpec(family, degree, 3)
    t = np.linspace(-1.0, 1.0, 41)
    chi = spec.chi()
    direct = sum(chi[n] * projector_kernel(n, 3, t) for n in range(degree + 1))
    assert np.allclose(kernel_eval(spec, t), direct, atol=1e-11)


def test_kernel_integrates_to_chi_zero():
    """The sphere integral of K_T(x, .) is the weight on the constant term."""
    quad = build_quadrature(3, 32)
    x = np.array([0.0, 0.0, 1.0])
    for family in ("riesz", "dirichlet"):
        spec = KernelSpec(family, 8, 3)
        vals = kernel_eval(spec, quad.points @ x)
        assert quad.integrate(vals) == pytest.approx(spec.chi()[0], rel=1e-10)


def test_kernel_odd_eval_is_odd_part():
    spec = KernelSpec("riesz", 7, 3)
    t = np.linspace(-1.0, 1.0, 51)
    odd = kernel_eval(spec, t, odd_only=True)
    assert np.allclose(odd, -kernel_eval(spec, -t, odd_only=True), atol=1e-12)
    assert np.allclose(odd, 0.5 * (kernel_eval(spec, t) - kernel_eval(spec, -t)), atol=1e-11)


def test_harmonic_mixture_evaluates_as_weighted_projector_sum():
    d = 3
    anchors = sample_uniform(d, 5, seed=31)
    weights = np.linspace(-1.0, 1.0, 5)
    coeffs = np.array([0.0, 0.7, -0.3, 0.0, 0.0, 1.1])
    mix = HarmonicMixture(anchors=anchors, weights=weights, degree_coeffs=coeffs)
    pts = sample_uniform(d, 11, seed=32)
    direct = np.zeros(11)
    for n, c in enumerate(coeffs):
        for a, w in zip(anchors, weights):
            direct += c * w * projector_kernel(n, d, pts @ a)
    assert np.allclose(mix.evaluate(pts), direct, atol=1e-12)
    single = mix.evaluate(pts[0])
    assert isinstance(single, float)
    assert single == pytest.approx(direct[0], abs=1e-12)


def test_harmonic_mixture_chunked_evaluation_matches(monkeypatch):
    mix = HarmonicMixture(
        anchors=sample_uniform(3, 7, seed=33),
        weights=np.ones(7),
        degree_coeffs=[0.0, 0.0, 0.0, 1.0, 0.5],
    )
    pts = sample_uniform(3, 23, seed=34)
    whole = mix.evaluate(pts)
    # 4 points of 7 anchors a block, as a block size of 4 gave
    monkeypatch.setattr(kernels, "EVAL_CHUNK", 28)
    assert len(list(mix.terms(pts))) > 1
    assert np.allclose(mix.evaluate(pts), whole, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_degree_sums_match_double_loop(monkeypatch, d):
    """degree_sums with one weight row per degree is the dense double loop
    sum_i W[n, i] C_n(a_i'b_k) over every anchor and point, for the flagged
    degrees only, across blocks; one weight vector stands for that row at
    every degree."""
    anchors, points = sample_uniform(d, 12, seed=60 + d), sample_uniform(d, 9, seed=70 + d)
    weights = np.random.default_rng(d).standard_normal((10, 12))
    used = np.isin(np.arange(10), [0, 2, 3, 9])
    nu = (d - 2) / 2.0
    monkeypatch.setattr(kernels, "EVAL_CHUNK", 24)  # 2 points of 12 anchors a block
    assert len(list(kernels._cosine_blocks(anchors, points))) > 1
    got = kernels.degree_sums(anchors, weights, points, used)
    want = np.array(
        [
            [sum(weights[n, i] * oracles.explicit_eval(nu, n, a @ b) for i, a in enumerate(anchors)) for b in points]
            for n in np.flatnonzero(used)
        ]
    )
    assert got.shape == (4, 9)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    shared = np.tile(weights[0], (10, 1))
    assert np.array_equal(
        kernels.degree_sums(anchors, weights[0], points, used),
        kernels.degree_sums(anchors, shared, points, used),
    )


def test_harmonic_mixture_oddness_and_rescaling():
    mix = HarmonicMixture(
        anchors=sample_uniform(3, 4, seed=35),
        weights=np.array([1.0, -0.5, 0.25, 2.0]),
        degree_coeffs=[0.0, 1.0, 0.0, -0.5],
    )
    assert mix.is_odd()
    pts = sample_uniform(3, 9, seed=36)
    assert np.allclose(mix.evaluate(-pts), -mix.evaluate(pts), atol=1e-13)
    doubled = dataclasses.replace(mix, degree_coeffs=2.0 * mix.degree_coeffs)
    assert np.allclose(doubled.evaluate(pts), 2.0 * mix.evaluate(pts), atol=1e-13)
    assert not dataclasses.replace(mix, degree_coeffs=[0.0, 0.0, 1.0]).is_odd()
    assert mix.max_degree == 3
    assert mix.dimension == 3


def test_harmonic_mixture_validation():
    anchors = sample_uniform(3, 4, seed=37)
    with pytest.raises(ValueError):
        HarmonicMixture(anchors=anchors, weights=np.ones(3), degree_coeffs=[0.0])
    with pytest.raises(ValueError):
        HarmonicMixture(anchors=2.0 * anchors, weights=np.ones(4), degree_coeffs=[0.0])
    # degree_coeffs is a nonempty 1-D row indexed by degree, taken as floats
    with pytest.raises(TypeError):
        HarmonicMixture(anchors, np.ones(4), {1: 1.0})
    with pytest.raises(ValueError, match="1-D"):
        HarmonicMixture(anchors, np.ones(4), [[0.0, 1.0]])
    with pytest.raises(ValueError, match="nonempty"):
        HarmonicMixture(anchors, np.ones(4), [])
    mix = HarmonicMixture(anchors, np.ones(4), [0, 1])
    assert mix.degree_coeffs.dtype == float and mix.max_degree == 1


def _max_rel_error(got, want):
    """Largest difference over the largest magnitude of the reference."""
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("family", ["riesz", "delayed_means", "dirichlet"])
def test_evaluate_matches_per_anchor_oracle(d, family):
    """Evaluation through per-degree sums agrees with the per-anchor terms
    route (oracles.mixture_by_terms) to 1e-13 of the largest value, for a
    filtered kernel on every degree and for its odd part, across several
    blocks; the odd part and its hemisphere transform, evaluated as two
    coefficient rows in one sweep, each agree too."""
    anchors = sample_uniform(d, 300, seed=40 + d)
    weights = np.random.default_rng(d).standard_normal(300)
    chi = KernelSpec(family, 8, d).chi()
    full = HarmonicMixture(anchors, weights, chi)
    odd = dataclasses.replace(full, degree_coeffs=np.where(np.arange(9) % 2 == 1, chi, 0.0))
    pts = sample_uniform(d, 250, seed=50 + d)
    assert pts.shape[0] > 2 * (EVAL_CHUNK // 300)
    for mix in (full, odd):
        assert _max_rel_error(mix.evaluate(pts), oracles.mixture_by_terms(mix, pts)) <= 1e-13
    averaged = hemisphere.transform(odd)
    rows = odd.evaluate_series(pts, [odd.series_coeffs(), averaged.series_coeffs()])
    assert rows.shape == (2, 250)
    for got, mix in zip(rows, (odd, averaged)):
        assert _max_rel_error(got, oracles.mixture_by_terms(mix, pts)) <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 4])
def test_evaluate_degree_15_matches_per_anchor_oracle(d):
    """A mixture up to degree 15 with sparse, mixed-sign coefficients (the
    round-trip degrees of acceptance criterion 3), at a batch and at a
    single point, which returns a float."""
    rng = np.random.default_rng(60 + d)
    weights = rng.standard_normal(120)
    coeffs = np.zeros(16)
    coeffs[[0, 2, 5, 9, 14, 15]] = rng.standard_normal(6)
    mix = HarmonicMixture(sample_uniform(d, 120, seed=61 + d), weights, coeffs)
    pts = sample_uniform(d, 90, seed=62 + d)
    want = oracles.mixture_by_terms(mix, pts)
    assert _max_rel_error(mix.evaluate(pts), want) <= 1e-13
    single = mix.evaluate(pts[3])
    assert isinstance(single, float)
    assert abs(single - want[3]) <= 1e-13 * np.max(np.abs(want))


def test_zero_and_empty_coefficients_evaluate_to_zeros():
    anchors = sample_uniform(3, 6, seed=63)
    pts = sample_uniform(3, 40, seed=64)
    for coeffs in ([0.0], [0.0, 0.0, 0.0, 0.0]):
        mix = HarmonicMixture(anchors, np.ones(6), coeffs)
        assert np.array_equal(mix.evaluate(pts), np.zeros(40))
        assert mix.evaluate(pts[0]) == 0.0
        assert np.array_equal(mix.evaluate_series(pts, np.zeros((2, 4))), np.zeros((2, 40)))
    with pytest.raises(ValueError):
        HarmonicMixture(anchors, np.ones(6), [0.0]).evaluate(2.0 * pts)


def test_evaluation_memory_stays_in_blocks():
    """At N = 5 000 anchors, evaluating 20 000 points allocates at most
    2 MB beyond the output: the cosines, the sweep's buffers and the
    per-degree sums live one block at a time."""
    mix = HarmonicMixture(
        sample_uniform(3, 5000, seed=65),
        np.random.default_rng(66).standard_normal(5000),
        [0.0, 1.0, 0.0, -0.5, 0.0, 0.25],
    )
    pts = sample_uniform(3, 20_000, seed=67)
    mix.evaluate(pts[:10])
    tracemalloc.start()
    try:
        out = mix.evaluate(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 2 * 2**20


def test_project_recovers_degree_component():
    d = 3
    quad = build_quadrature(d, 48)
    anchors = sample_uniform(d, 3, seed=38)
    weights = np.array([0.5, -1.0, 2.0])
    mix = HarmonicMixture(anchors=anchors, weights=weights, degree_coeffs=[0.0, 0.8, 0.0, 0.0, -1.2])
    x = sample_uniform(d, 6, seed=39)
    for n, c in [(1, 0.8), (4, -1.2), (2, 0.0)]:
        component = np.zeros(6)
        for a, w in zip(anchors, weights):
            component += c * w * projector_kernel(n, d, x @ a)
        got = oracles.project(mix.evaluate, n, quad, x)
        assert np.allclose(got, component, atol=1e-9)
