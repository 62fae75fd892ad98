"""Tests for the hemisphere-averaging transform and its inverses."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from helpers import projector_kernel
from spherecoef import hemisphere
from spherecoef.kernels import HarmonicMixture
from spherecoef.sphere import build_quadrature, sample_uniform, surface_area


def test_eigenvalue_hand_values():
    assert hemisphere.eigenvalue(0, 3) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert hemisphere.eigenvalue(1, 3) == pytest.approx(math.pi, rel=1e-14)
    assert hemisphere.eigenvalue(3, 3) == pytest.approx(-math.pi / 4.0, rel=1e-14)
    assert hemisphere.eigenvalue(1, 2) == pytest.approx(2.0, rel=1e-14)
    assert hemisphere.eigenvalue(3, 2) == pytest.approx(-2.0 / 3.0, rel=1e-14)
    assert hemisphere.eigenvalue(5, 2) == pytest.approx(2.0 / 5.0, rel=1e-14)
    for n in (2, 4, 6, 10):
        assert hemisphere.eigenvalue(n, 3) == 0.0


def test_eigenvalue_circle_closed_form():
    """On the circle the odd eigenvalues reduce to 2 sin(n pi / 2) / n."""
    for n in range(1, 16, 2):
        expected = 2.0 * math.sin(n * math.pi / 2.0) / n
        assert hemisphere.eigenvalue(n, 2) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_eigenvalue_matches_polar_integral(d):
    for n in range(0, 14):
        ref = oracles.halfspace_eigenvalue_1d(n, d)
        assert hemisphere.eigenvalue(n, d) == pytest.approx(ref, abs=1e-12)


def test_eigenvalue_signs_alternate_and_decay():
    vals = [hemisphere.eigenvalue(2 * p + 1, 3) for p in range(6)]
    signs = [math.copysign(1.0, v) for v in vals]
    assert signs == [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
    assert np.all(np.diff(np.abs(vals)) < 0.0)


def test_eigenvalue_validation():
    with pytest.raises(ValueError):
        hemisphere.eigenvalue(-1, 3)
    with pytest.raises(ValueError):
        hemisphere.eigenvalue(2, 1)


def _random_odd_mixture(d, max_degree, seed, n_anchors=5):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(max_degree + 1)
    coeffs[1::2] = rng.standard_normal(coeffs[1::2].size)
    return HarmonicMixture(
        anchors=sample_uniform(d, n_anchors, seed=seed + 1),
        weights=rng.standard_normal(n_anchors),
        degree_coeffs=coeffs,
    )


@pytest.mark.parametrize("d", [2, 3, 4])
def test_transform_invert_round_trip(d):
    g = _random_odd_mixture(d, 9, seed=50 + d)
    back = hemisphere.invert(hemisphere.transform(g))
    pts = sample_uniform(d, 40, seed=60 + d)
    assert np.allclose(back.evaluate(pts), g.evaluate(pts), atol=1e-12)


def test_transform_scales_each_degree():
    d = 3
    g = _random_odd_mixture(d, 7, seed=70)
    h = hemisphere.transform(g)
    for n, c in enumerate(g.degree_coeffs):
        assert h.degree_coeffs[n] == pytest.approx(c * hemisphere.eigenvalue(n, d), rel=1e-14)


def test_transform_requires_odd_mixture():
    even = HarmonicMixture(
        anchors=sample_uniform(3, 3, seed=71),
        weights=np.ones(3),
        degree_coeffs=[0.0, 0.0, 1.0],
    )
    with pytest.raises(ValueError):
        hemisphere.transform(even)
    with pytest.raises(ValueError):
        hemisphere.invert(even)
    with pytest.raises(TypeError):
        hemisphere.transform(lambda p: p[:, 0])


def test_invert_skips_explicit_zero_even_coefficient():
    """is_odd ignores a zero coefficient at an even degree; invert leaves it
    at zero rather than dividing by that degree's zero eigenvalue."""
    anchors, weights = sample_uniform(3, 4, seed=72), np.linspace(-1.0, 1.0, 4)
    g = HarmonicMixture(anchors=anchors, weights=weights, degree_coeffs=[0.0, 1.0, 0.0])
    odd = HarmonicMixture(anchors=anchors, weights=weights, degree_coeffs=[0.0, 1.0])
    assert g.is_odd()
    inverted = hemisphere.invert(g).degree_coeffs
    assert np.array_equal(inverted[:2], hemisphere.invert(odd).degree_coeffs) and inverted[2] == 0.0


@pytest.mark.parametrize("d", [4, 8])
def test_invert_by_laplacian_matches_spectral_inverse(d):
    g = _random_odd_mixture(d, 9, seed=80 + d)
    forward = hemisphere.transform(g)
    spectral = hemisphere.invert(forward)
    differential = dataclasses.replace(forward, degree_coeffs=oracles.invert_by_laplacian(forward.degree_coeffs, d))
    pts = sample_uniform(d, 30, seed=90 + d)
    assert np.allclose(differential.evaluate(pts), spectral.evaluate(pts), atol=1e-11)


def test_invert_by_laplacian_requires_multiple_of_four():
    g = _random_odd_mixture(3, 5, seed=100)
    with pytest.raises(ValueError):
        oracles.invert_by_laplacian(g.degree_coeffs, g.dimension)


def test_transform_by_quadrature_constant():
    """Averaging the constant 1 over any hemisphere gives half the area."""
    quad = build_quadrature(3, 64)
    x = sample_uniform(3, 5, seed=110)
    vals = oracles.transform_by_quadrature(np.ones(quad.n_nodes), x, quad)
    assert np.allclose(vals, surface_area(3) / 2.0, atol=1e-8)


def test_transform_by_quadrature_matches_eigenvalue_on_zonal():
    """Funk-Hecke at the polar axis: the transform of a zonal degree-n
    function evaluated at the pole is eigenvalue * value-at-one."""
    d = 3
    quad = build_quadrature(d, 128)
    pole = np.array([0.0, 0.0, 1.0])
    for n in range(0, 8):
        f = projector_kernel(n, d, quad.points @ pole)
        got = oracles.transform_by_quadrature(f, pole, quad)
        expected = hemisphere.eigenvalue(n, d) * projector_kernel(n, d, 1.0)
        assert got == pytest.approx(expected, abs=1e-7)


def test_transform_by_quadrature_single_point_and_callable():
    # the restriction to a half-circle kinks the integrand at the boundary,
    # so the trapezoid rule is only O(h^2) here; res 4096 gives ~4e-7
    quad = build_quadrature(2, 4096)
    x = np.array([1.0, 0.0])
    got = oracles.transform_by_quadrature(lambda p: p[:, 0], x, quad)
    assert isinstance(got, float)
    # H(t -> t)(x) = lambda(1, 2) * (x . e1) = 2
    assert got == pytest.approx(hemisphere.eigenvalue(1, 2), abs=1e-6)


def test_transform_by_quadrature_halves_boundary_nodes():
    """Nodes exactly on the hemisphere boundary count with weight 1/2, so
    the two closed hemispheres partition the full integral."""
    quad = build_quadrature(2, 8)
    x = np.array([1.0, 0.0])
    f = np.ones(quad.n_nodes)
    up = oracles.transform_by_quadrature(f, x, quad)
    down = oracles.transform_by_quadrature(f, -x, quad)
    assert up + down == pytest.approx(surface_area(2), rel=1e-14)
    assert up == pytest.approx(down, rel=1e-14)
