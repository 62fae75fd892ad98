"""Tests for sphere geometry and quadrature."""

import math

import numpy as np
import pytest

from spherecoef import sphere
from spherecoef.sphere import (
    QuadratureRule,
    build_quadrature,
    check_on_sphere,
    normalize,
    sample_uniform,
    surface_area,
)


def test_surface_area_known_values():
    assert surface_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert surface_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert surface_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    # recursion |S^{d-1}| = 2 pi |S^{d-3}| / (d - 2)
    for d in range(4, 12):
        assert surface_area(d) == pytest.approx(
            2.0 * math.pi * surface_area(d - 2) / (d - 2), rel=1e-13
        )


def test_surface_area_of_the_zero_sphere_is_two():
    """S^0 is the two points +-1: the formula gives exactly 2, the lower
    area that the hemisphere eigenvalues and the coarea factor read."""
    assert surface_area(1) == 2.0


@pytest.mark.parametrize("bad", [0, -3, 2.5])
def test_surface_area_rejects_bad_dimension(bad):
    with pytest.raises(ValueError):
        surface_area(bad)


@pytest.mark.parametrize("bad", [True, 2.5, -1])
def test_sample_uniform_refuses_a_bad_count(bad):
    """A bool or non-integral n is a ValueError naming n (2.5 was numpy's
    TypeError, True one point); np.int64 and integral floats, which the
    checks accept, are drawn as ints (a float d was numpy's TypeError)."""
    with pytest.raises(ValueError, match="^n must be a nonnegative integer"):
        sample_uniform(3, bad)
    assert sample_uniform(3, np.int64(4), seed=1).shape == (4, 3)
    assert np.array_equal(sample_uniform(3.0, 4.0, seed=1), sample_uniform(3, 4, seed=1))


def test_normalize_preserves_direction():
    v = np.array([[3.0, 4.0], [0.0, -2.0]])
    u = normalize(v)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0)
    assert np.allclose(u[0], [0.6, 0.8])
    assert np.allclose(u[1], [0.0, -1.0])


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize(np.array([0.0, 0.0, 0.0]))


def test_check_on_sphere_accepts_and_shapes():
    pts = check_on_sphere([1.0, 0.0])
    assert pts.shape == (1, 2)
    batch = check_on_sphere(np.eye(3), d=3)
    assert batch.shape == (3, 3)


def test_check_on_sphere_rejects():
    with pytest.raises(ValueError):
        check_on_sphere([1.0, 1.0])  # norm sqrt(2)
    with pytest.raises(ValueError):
        check_on_sphere(np.eye(3), d=4)
    with pytest.raises(ValueError):
        check_on_sphere(np.ones((2, 1)))


def test_sample_uniform_shape_norms_and_seed():
    a = sample_uniform(4, 200, seed=11)
    b = sample_uniform(4, 200, seed=11)
    c = sample_uniform(4, 200, seed=12)
    assert a.shape == (200, 4)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # symmetry: componentwise mean near zero at this sample size
    assert np.max(np.abs(a.mean(axis=0))) < 0.2


@pytest.mark.parametrize(
    "d,method,resolution",
    [
        (2, "trapezoid", 64),
        (3, "product", 16),
        (4, "product", 16),
        (3, "montecarlo", 500),
        (5, "montecarlo", 500),
    ],
)
def test_quadrature_weights_sum_to_area(d, method, resolution):
    quad = build_quadrature(d, resolution, method=method)
    assert quad.dimension == d
    assert np.allclose(np.linalg.norm(quad.points, axis=1), 1.0, atol=1e-12)
    assert np.sum(quad.weights) == pytest.approx(surface_area(d), rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_quadrature_second_moment_identity(d):
    """int (a'x)^2 dsigma = |S^{d-1}| / d for any unit vector a."""
    method = "trapezoid" if d == 2 else "product"
    quad = build_quadrature(d, 24, method=method)
    rng = np.random.default_rng(3)
    for _ in range(3):
        a = normalize(rng.standard_normal(d))
        val = quad.integrate((quad.points @ a) ** 2)
        assert val == pytest.approx(surface_area(d) / d, rel=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_quadrature_odd_integrand_vanishes(d):
    method = "trapezoid" if d == 2 else "product"
    quad = build_quadrature(d, 16, method=method)
    rng = np.random.default_rng(4)
    a = normalize(rng.standard_normal(d))
    dots = quad.points @ a
    assert abs(quad.integrate(dots**3)) < 1e-12 * surface_area(d)


@pytest.mark.parametrize("d", [3, 4])
def test_quadrature_polar_hemisphere_exact(d):
    """The equator lies on a panel boundary, so the polar-cap indicator is
    integrated without smearing: exactly half the area."""
    quad = build_quadrature(d, 16, method="product")
    upper = (quad.points[:, -1] > 0.0).astype(float)
    assert quad.integrate(upper) == pytest.approx(surface_area(d) / 2.0, rel=1e-12)


@pytest.mark.parametrize("n", [8, 12, 16])
def test_jacobi_panel_rule_matches_scipy(n):
    """The d = 4 polar rule's upper panel is the Gauss-Jacobi (1/2, 0) rule
    mapped onto [0, 1]: its nodes agree with scipy's within 1e-15 and its
    weights within 1e-13 relative (9e-15, 3.2e-14 and 5.9e-14 measured at
    n = 8, 12, 16), and the lower panel mirrors it."""
    from scipy.special import roots_jacobi

    t, w = sphere._split_jacobi_half(2 * n)
    s, w_ref = roots_jacobi(n, 0.5, 0.0)
    np.testing.assert_allclose(t[n:], (1.0 + s) / 2.0, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w[n:], w_ref * np.sqrt((3.0 + s) / 2.0) / (2.0 * math.sqrt(2.0)), rtol=1e-13)
    assert np.array_equal(t[:n], -t[n:][::-1]) and np.array_equal(w[:n], w[n:][::-1])


@pytest.mark.parametrize("n", [8, 12, 16])
def test_jacobi_panel_rule_is_exact_to_degree_2n_minus_1(n):
    """int_0^1 t^j (1 - t^2)^{1/2} / (1 + t)^{1/2} dt = B(j + 1, 3/2) for
    j < 2n, which is ((1 + s)/2)^j against the Jacobi weight (1 - s)^{1/2}.
    The eigenvalue rule meets it within 5e-15 relative (2.0e-15 measured at
    n = 16, where scipy's roots_jacobi reaches 1.1e-14)."""
    t, w = sphere._split_jacobi_half(2 * n)
    t, w = t[n:], w[n:]
    for j in range(2 * n):
        exact = math.gamma(j + 1) * math.gamma(1.5) / math.gamma(j + 2.5)
        assert np.sum(w * t**j / np.sqrt(1.0 + t)) == pytest.approx(exact, rel=5e-15, abs=0.0)


def test_quadrature_integrate_callable_and_values_agree():
    quad = build_quadrature(3, 8)
    f = lambda p: p[:, 0] ** 2 + 0.5
    assert quad.integrate(f) == pytest.approx(quad.integrate(f(quad.points)), rel=1e-15)


def test_quadrature_montecarlo_seeded():
    a = build_quadrature(5, 100, seed=3, method="montecarlo")
    b = build_quadrature(5, 100, seed=3, method="montecarlo")
    c = build_quadrature(5, 100, seed=4, method="montecarlo")
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_build_quadrature_rejects():
    with pytest.raises(ValueError):
        build_quadrature(1, 16)
    with pytest.raises(ValueError):
        build_quadrature(3, 3)
    with pytest.raises(ValueError):
        build_quadrature(3, 16, method="trapezoid")
    with pytest.raises(ValueError):
        build_quadrature(5, 16, method="product")
    with pytest.raises(ValueError):
        build_quadrature(3, 16, method="simpson")


def test_quadrature_rule_validation():
    pts = sample_uniform(3, 10, seed=0)
    with pytest.raises(ValueError):
        QuadratureRule(points=pts, weights=np.ones(9), dimension=3)
    with pytest.raises(ValueError):
        QuadratureRule(points=pts, weights=np.ones(10), dimension=4)
    rule = QuadratureRule(points=pts, weights=np.ones(10), dimension=3)
    assert rule.n_nodes == 10
    with pytest.raises(ValueError):
        rule.integrate(np.ones(7))
