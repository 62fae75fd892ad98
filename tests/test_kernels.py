"""Tests for harmonic machinery: dimensions, projectors, smoothed kernels,
anchored mixtures."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from helpers import kernel_eval, projector_kernel
from spherecoef import gegenbauer, hemisphere, kernels
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


@pytest.mark.parametrize("d", [3, 4])
def test_projector_reproducing_identity_on_exact_rule(d):
    """int q_n(x, z) q_n(z, y) dz = q_n(x, y) and int q_n(x, z) q_{n-1}(z,
    y) dz = 0 for every n <= 24, on a rule exact to degree 48
    (oracles.exact_sphere_rule), within 1e-13 q_n(x, x) = 1e-13 h(n, d) /
    |S^{d-1}|."""
    nodes, weights = oracles.exact_sphere_rule(d, 48)
    x, y = sample_uniform(d, 2, seed=22 + d)
    before = np.zeros(len(weights))
    for n in range(25):
        qx, qy = projector_kernel(n, d, nodes @ x), projector_kernel(n, d, nodes @ y)
        scale = eigenspace_dim(n, d) / surface_area(d)
        assert abs(weights @ (qx * qy) - projector_kernel(n, d, float(x @ y))) <= 1e-13 * scale
        assert abs(weights @ (before * qy)) <= 1e-13 * scale
        before = qx


def _basis_columns(d, points, top):
    """harmonic_basis at the points as an (H, m) table, degree by degree,
    without the zeros that pad each degree's block."""
    values = kernels.harmonic_basis(points, top)
    return np.concatenate([values[n, : oracles.harmonic_dim(n, d)] for n in range(top + 1)])


@pytest.mark.parametrize("d,top", [(3, 64), (4, 16)])
def test_harmonic_basis_is_orthonormal_on_exact_rule(d, top):
    """On a rule exact to degree 2 top (oracles.exact_sphere_rule) the
    basis' Gram matrix is the identity within 1e-13: the columns of every
    harmonic of the lowest two and highest two degrees and of every 29th
    other one, against all H = sum_n h(n, d) harmonics.  The nodes stream
    through in blocks; in d = 4 a rule exact to degree 128 has 545 025
    nodes, each with 93 665 harmonics, so d = 4 stops at degree 16."""
    nodes, weights = oracles.exact_sphere_rule(d, 2 * top)
    dims = [oracles.harmonic_dim(n, d) for n in range(top + 1)]
    size = sum(dims)
    edges = list(range(dims[0] + dims[1])) + list(range(size - dims[-1] - dims[-2], size))
    picks = np.unique(np.concatenate([edges, np.arange(0, size, 29)]))
    gram = np.zeros((size, picks.size))
    for start in range(0, len(weights), 512):
        cols = _basis_columns(d, nodes[start : start + 512], top)
        gram += cols @ (weights[start : start + 512] * cols[picks]).T
    assert np.max(np.abs(gram - np.eye(size)[:, picks])) <= 1e-13


@pytest.mark.parametrize("d,top", [(2, 64), (3, 64), (4, 64), (5, 32)])
def test_harmonic_basis_addition_theorem(d, top):
    """Y_n(x)'Y_n(y) = q_n(x, y) for every degree n <= top at pairs of
    random points, within 1e-13 q_n(x, x) = 1e-13 h(n, d) / |S^{d-1}|,
    against C_n^nu from the recurrence in nu carried out in 30-digit
    arithmetic at the exact cosines (oracles.gegenbauer_at_pairs)."""
    x = sample_uniform(d, 5, seed=40 + d)
    values = kernels.harmonic_basis(x, top)
    ref = oracles.gegenbauer_at_pairs((d - 2) / 2.0, top, x, x)
    for n, constant in enumerate(oracles.projector_constants(top, d)):
        scale = oracles.harmonic_dim(n, d) / oracles.sphere_area(d)
        assert np.max(np.abs(values[n].T @ values[n] - constant * ref[n])) <= 1e-13 * scale


def test_harmonic_basis_is_solid_and_padded():
    """Off the sphere the basis is the same homogeneous polynomials (the
    recursion evaluates lower ones at shorter vectors): a point scaled by
    r gives r^n times degree n's values.  Entries past h(n, d) are zero."""
    x = sample_uniform(4, 3, seed=7)
    values = kernels.harmonic_basis(x, 12)
    scaled = kernels.harmonic_basis(0.7 * x, 12)
    for n in range(13):
        assert np.max(np.abs(scaled[n] - 0.7**n * values[n])) <= 1e-14 * 0.7**n * np.max(np.abs(values[n]))
    assert values.shape == (13, eigenspace_dim(12, 4), 3)
    assert all(not np.any(values[n, eigenspace_dim(n, 4) :]) for n in range(13))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_harmonic_moments_and_series_are_the_basis(monkeypatch, d):
    """_harmonic_moments is the sum of harmonic_basis over the points,
    _harmonic_energies the per-degree sums of squared moments, and
    _harmonic_series sum_n row[n] sum M Y over the degrees of each row's
    band (two rows at once, each as it reads alone), in row blocks of any size (kernels.BASIS_CHUNK 1: one row per
    block): a lower harmonic of degree l (the basis in the first d - 1
    coordinates, all d in d = 2) and factor index k is the harmonic of
    degree l + k listed after the lower harmonics of degrees below l."""
    top = 6
    x = sample_uniform(d, 40, seed=50 + d)
    values = kernels.harmonic_basis(x, top)
    low = [2] * (top + 1) if d == 2 else [eigenspace_dim(l, d - 1) for l in range(top + 1)]
    depth = 1 if d == 2 else top + 1
    coeffs = np.random.default_rng(d).standard_normal(kernels._layout(d, top))
    row = np.random.default_rng(d + 10).standard_normal(top + 1)
    row[5:] = 0.0  # the series stops at degree 4
    want_moments, want_energies, want_series = np.zeros(coeffs.shape), np.zeros(top + 1), np.zeros(40)
    for l in range(top + 1):
        for k in range(min(depth, top + 1 - l)):
            start = sum(low[:l]) if d > 2 else 0
            block = values[l + k, start : start + low[l]]
            want_moments[l, : low[l], k] = block.sum(axis=1)
            want_energies[l + k] += want_moments[l, : low[l], k] @ want_moments[l, : low[l], k]
            want_series += row[l + k] * (coeffs[l, : low[l], k] @ block)
    np.testing.assert_allclose(kernels._harmonic_energies(want_moments), want_energies, rtol=1e-14, atol=0)
    for chunk in (1, 97, 1 << 17):
        monkeypatch.setattr(kernels, "BASIS_CHUNK", chunk)
        np.testing.assert_allclose(kernels._harmonic_moments(x, top), want_moments, rtol=0, atol=1e-13)
        both = kernels._harmonic_series(coeffs, x, np.stack([row, 2.0 * row]))
        np.testing.assert_allclose(both[0], want_series, rtol=0, atol=1e-12)
        assert np.array_equal(both[0], kernels._harmonic_series(coeffs, x, row[None])[0])
        assert np.array_equal(both[1], kernels._harmonic_series(coeffs, x, 2.0 * row[None])[0])
    assert np.array_equal(kernels._harmonic_series(coeffs, x, np.zeros((2, top + 1))), np.zeros((2, 40)))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_weighted_harmonic_moments_are_the_weighted_basis(monkeypatch, d):
    """_harmonic_moments(x, top, w) is sum_i w_i harmonic_basis(x, top)[...,
    i] in the moments' layout, within 1e-13 of its largest entry, in row
    blocks of any size; unit weights give the unweighted moments (the
    self-sums' route) bit for bit, since the weight multiplies each
    Gegenbauer factor exactly."""
    top, n = 7, 60
    x = sample_uniform(d, n, seed=60 + d)
    w = np.random.default_rng(d).standard_normal(n)
    weighted = kernels.harmonic_basis(x, top) * w
    low = [2] * (top + 1) if d == 2 else [eigenspace_dim(l, d - 1) for l in range(top + 1)]
    want = np.zeros(kernels._layout(d, top))
    for l in range(top + 1):
        for k in range(min(want.shape[2], top + 1 - l)):
            start = sum(low[:l]) if d > 2 else 0
            want[l, : low[l], k] = weighted[l + k, start : start + low[l]].sum(axis=1)
    for chunk in (1, 97, 1 << 17):
        monkeypatch.setattr(kernels, "BASIS_CHUNK", chunk)
        got = kernels._harmonic_moments(x, top, w)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(kernels._harmonic_moments(x, top, np.ones(n)), kernels._harmonic_moments(x, top))


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
    assert KernelSpec("riesz", 4, 4).chi().shape == (5,)  # l = 3 > (d-2)/2 = 1


def test_kernel_spec_refuses_bools_and_stores_ints():
    """A bool degree, dimension or l is refused, naming the argument
    (True would otherwise read as 1: a degree-1 kernel, or Riesz power 1);
    np.int64 and integral floats are accepted and stored as ints, so that
    delayed_means' power-of-two check takes a float degree too."""
    for args, name in (((True, 3), "degree"), ((4, True), "dimension"), ((4, 3, 2.0, True), "l")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            KernelSpec("riesz", *args)
    with pytest.raises(ValueError, match="^l must be an integer"):
        KernelSpec("dirichlet", 4, 3, l=False)
    spec = KernelSpec("riesz", np.int64(4), np.int64(3), l=np.int64(2))
    assert spec == KernelSpec("riesz", 4.0, 3.0, l=2.0) == KernelSpec("riesz", 4, 3, l=2)
    assert all(type(v) is int for v in (spec.degree, spec.dimension, spec.l))
    assert KernelSpec("delayed_means", 4.0, 3).degree == 4


def test_eigenspace_dim_refuses_bools():
    """_check_degree_dim refuses a bool degree or dimension, so
    eigenspace_dim, projector_diagonal and hemisphere.eigenvalues do;
    np.int64 stays accepted."""
    for fn in (eigenspace_dim, kernels.projector_diagonal, hemisphere.eigenvalues):
        with pytest.raises(ValueError, match="^degree must be"):
            fn(True, 3)
        with pytest.raises(ValueError, match="^dimension must be"):
            fn(2, True)
    assert eigenspace_dim(np.int64(2), np.int64(3)) == 5


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
    # 4 points of 7 anchors a block, as a block size of 4 gave: 6 blocks
    monkeypatch.setattr(kernels, "EVAL_CHUNK", 28)
    assert _sweeps(monkeypatch, lambda: mix.evaluate(pts)) == 6
    assert np.allclose(mix.evaluate(pts), whole, atol=1e-14)
    assert np.allclose(whole, oracles.mixture_by_terms(mix, pts), atol=1e-14)


def _sweeps(monkeypatch, call):
    """How many Chebyshev sweeps (blocks of cosines) call runs."""
    sweeps, chebyshev = [], gegenbauer.chebyshev
    monkeypatch.setattr(gegenbauer, "chebyshev", lambda *args: sweeps.append(1) or chebyshev(*args))
    call()
    monkeypatch.setattr(gegenbauer, "chebyshev", chebyshev)
    return len(sweeps)


@pytest.mark.parametrize("size", [0, 1, 7, 8, 16383, 65536])
def test_aligned_empty_starts_on_a_cache_line(size):
    """The pair sweep's buffers are flat, C-contiguous float64 arrays of the
    size asked for whose first entry starts on a 64-byte boundary."""
    buf = kernels._aligned_empty(size)
    assert buf.shape == (size,) and buf.dtype == np.float64 and buf.flags.c_contiguous
    assert buf.ctypes.data % 64 == 0


@pytest.mark.parametrize("shape", [(101,), (116, 3), (5, 7)])
def test_chebyshev_slots_start_on_cache_lines(shape):
    """In a work array that starts on a cache line, every array the
    Chebyshev sweep yields starts on one too, also when a block's size is
    not a multiple of 8 cosines (the last, 116-anchor chunk at N = 500),
    and the values are those of the sweep's own work, bit for bit."""
    size = int(np.prod(shape))
    t = kernels._aligned_empty(size).reshape(shape)
    t[...] = np.linspace(-1.0, 1.0, size).reshape(shape)
    work = kernels._aligned_empty(gegenbauer.work_size(size))
    alone = [c.copy() for c in gegenbauer.chebyshev(7, t)]
    for want, values in zip(alone, gegenbauer.chebyshev(7, t, work), strict=True):
        assert values.ctypes.data % 64 == 0
        assert np.array_equal(values, want)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_degree_sums_match_double_loop(monkeypatch, d):
    """degree_sums of the projector-table rows (kernels._chebyshev_rows of
    unit rows) is the dense double loop sum_i w_i q_n(a_i, b_k) over every
    anchor and point, for the chosen degrees only, across blocks and
    anchor chunks, with one weight vector or with weight rows by parity,
    as two rows or as one row per Chebyshev degree; q_n is C_n times
    oracles.projector_constants.  In d = 2, where C_n = (2/n) T_n, one
    weight row per Chebyshev degree gives the loop (2/n) sum_i W[n, i]
    cos(n arccos(a_i'b_k)) times the constant, and one weight vector
    stands bit for bit for that row tiled over every degree."""
    anchors, points = sample_uniform(d, 12, seed=60 + d), sample_uniform(d, 9, seed=70 + d)
    weights = np.random.default_rng(d).standard_normal((10, 12))
    used = np.isin(np.arange(10), [0, 2, 3, 9])
    table = kernels._chebyshev_rows(np.eye(10)[used], d)
    nu, constants = (d - 2) / 2.0, oracles.projector_constants(9, d)
    monkeypatch.setattr(kernels, "EVAL_CHUNK", 24)
    monkeypatch.setattr(kernels, "ANCHOR_CHUNK", 5)  # chunks of 5, 5 and 2 anchors
    # 4 points a block of the 5-anchor chunks, 3 blocks each; 1 block of 2 anchors
    assert _sweeps(monkeypatch, lambda: kernels.degree_sums(anchors, weights[0], points, table)) == 7
    for rows, parity in ((weights[0], [0, 0]), (weights[:2], [0, 1]), (weights[np.arange(10) % 2], [0, 1])):
        got = kernels.degree_sums(anchors, rows, points, table)
        want = np.array(
            [
                [
                    constants[n]
                    * sum(weights[parity[n % 2], i] * oracles.explicit_eval(nu, n, a @ b) for i, a in enumerate(anchors))
                    for b in points
                ]
                for n in np.flatnonzero(used)
            ]
        )
        assert got.shape == (4, 9)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    shared = np.tile(weights[0], (10, 1))
    assert np.array_equal(
        kernels.degree_sums(anchors, weights[0], points, table), kernels.degree_sums(anchors, shared, points, table)
    )
    if d == 2:
        angles = np.arccos(np.clip(points @ anchors.T, -1.0, 1.0))
        got = kernels.degree_sums(anchors, weights, points, table)
        want = np.array(
            [constants[n] * (2.0 / n if n else 1.0) * np.cos(n * angles) @ weights[n] for n in np.flatnonzero(used)]
        )
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_degree_sums_against_mpmath_at_degree_64(d):
    """To degree 64 each degree's sums, read through the projector-table
    rows, are within 5e-14 of that degree's largest, against q_n from
    C_n^nu by the recurrence in nu carried out in 30-digit arithmetic
    (oracles.gegenbauer_recurrence) at the same float cosines, times
    oracles.projector_constants."""
    anchors, points = sample_uniform(d, 40, seed=80 + d), sample_uniform(d, 6, seed=90 + d)
    weights = np.random.default_rng(d).standard_normal(40)
    ref = oracles.gegenbauer_recurrence((d - 2) / 2.0, 64, np.clip(points @ anchors.T, -1.0, 1.0)) @ weights
    ref *= oracles.projector_constants(64, d)[:, None]
    got = kernels.degree_sums(anchors, weights, points, kernels._chebyshev_rows(np.eye(65), d))
    assert np.all(np.max(np.abs(got - ref), axis=1) <= 5e-14 * np.max(np.abs(ref), axis=1))


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
    # a band limit past MAX_DEGREE is refused, for a mixture and for the
    # rows evaluate_series takes, before any table is built
    assert HarmonicMixture(anchors, np.ones(4), np.ones(MAX_DEGREE + 1)).max_degree == MAX_DEGREE
    with pytest.raises(ValueError, match="MAX_DEGREE"):
        HarmonicMixture(anchors, np.ones(4), np.ones(MAX_DEGREE + 2))
    with pytest.raises(ValueError, match="MAX_DEGREE"):
        mix.evaluate_series(anchors, np.ones((2, MAX_DEGREE + 2)))
    # a non-finite weight or coefficient is refused, not read as a zero
    # density (twice the positive part of NaN is 0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="weights"):
            HarmonicMixture(anchors, [1.0, bad, 1.0, 1.0], [0, 1])
        with pytest.raises(ValueError, match="degree_coeffs"):
            HarmonicMixture(anchors, np.ones(4), [0.0, bad])
        with pytest.raises(ValueError, match="degree_coeffs"):
            dataclasses.replace(mix, degree_coeffs=[0.0, bad])


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
    rows = odd.evaluate_series(pts, [odd.degree_coeffs, averaged.degree_coeffs])
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
