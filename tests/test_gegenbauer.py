"""Tests for ultraspherical polynomial evaluation."""

import math

import numpy as np
import pytest
from scipy.special import binom, eval_chebyt, eval_chebyu, eval_gegenbauer

import oracles
from helpers import eval_all
from spherecoef import gegenbauer
from spherecoef.kernels import MAX_DEGREE

T_GRID = np.linspace(-1.0, 1.0, 101)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.5])
def test_recursion_matches_independent_explicit_sum(nu):
    vals = eval_all(nu, 12, T_GRID)
    for n in range(13):
        ref = oracles.gegenbauer_explicit(nu, n, T_GRID)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(vals[n] - ref)) / scale < 1e-12


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.5, 4.0])
def test_recursion_matches_scipy(nu):
    vals = eval_all(nu, 18, T_GRID)
    for n in range(19):
        ref = eval_gegenbauer(n, nu, T_GRID)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(vals[n] - ref)) / scale < 1e-10


def test_nu_zero_is_renormalized_chebyshev():
    vals = eval_all(0.0, 10, T_GRID)
    assert np.allclose(vals[0], 1.0)
    for n in range(1, 11):
        assert np.allclose(vals[n], (2.0 / n) * eval_chebyt(n, T_GRID), atol=1e-12)


def test_nu_one_is_chebyshev_second_kind():
    vals = eval_all(1.0, 8, T_GRID)
    for n in range(9):
        assert np.allclose(vals[n], eval_chebyu(n, T_GRID), atol=1e-10)


def test_explicit_eval_matches_recursion_to_high_degree():
    t = np.linspace(-1.0, 1.0, 41)
    for nu in (0.5, 1.5, 2.5):
        vals = eval_all(nu, 30, t)
        for n in (20, 25, 30):
            ref = oracles.explicit_eval(nu, n, t)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(vals[n] - ref)) / scale < 1e-12


def test_series_eval_matches_sum_of_rows():
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(13)
    t = rng.uniform(-1.0, 1.0, 37)
    for nu in (0.0, 0.5, 2.0):
        direct = coeffs @ eval_all(nu, 12, t)
        assert np.allclose(gegenbauer.series_eval(nu, coeffs, t), direct, atol=1e-12)


def test_series_eval_scalar_and_sparse_coeffs():
    coeffs = np.zeros(8)
    coeffs[3] = 2.0
    out = gegenbauer.series_eval(0.5, coeffs, 0.4)
    assert isinstance(out, float)
    assert out == pytest.approx(2.0 * oracles.gegenbauer_explicit(0.5, 3, 0.4), rel=1e-13)


def test_series_eval_matrix_argument():
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(6)
    t = rng.uniform(-1.0, 1.0, (4, 5))
    out = gegenbauer.series_eval(1.0, coeffs, t)
    assert out.shape == (4, 5)
    flat = gegenbauer.series_eval(1.0, coeffs, t.ravel())
    assert np.allclose(out.ravel(), flat)


SWEEP_ARGS = [np.asarray(0.3), T_GRID, T_GRID[:100].reshape(4, 25)]


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("max_degree", [0, 1, 2, 24])
def test_sweep_yields_every_degree(nu, max_degree):
    for t in SWEEP_ARGS:
        vals = [c.copy() for c in gegenbauer.sweep(nu, max_degree, t)]
        assert len(vals) == max_degree + 1
        for n, c in enumerate(vals):
            assert isinstance(c, np.ndarray) and c.shape == t.shape
            if nu == 0:
                ref = np.ones_like(t) if n == 0 else (2.0 / n) * eval_chebyt(n, t)
            else:
                ref = eval_gegenbauer(n, nu, t)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(c - ref)) / scale < 1e-10


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("max_degree", [0, 1, 2, 24])
def test_series_eval_of_unit_coeffs_is_table_row(nu, max_degree):
    table = eval_all(nu, max_degree, T_GRID)
    for n in range(max_degree + 1):
        unit = np.zeros(max_degree + 1)
        unit[n] = 1.0
        assert np.array_equal(gegenbauer.series_eval(nu, unit, T_GRID), table[n])


def test_eval_at_one():
    # 0.3 and 1.7 take the float product; the others the exact binomial
    for nu in (0.3, 0.5, 1.0, 1.5, 1.7, 2.5):
        for n in range(12):
            explicit = oracles.gegenbauer_at_one(nu, n)
            assert gegenbauer.eval_at_one(nu, n) == pytest.approx(explicit, rel=1e-12)
    assert gegenbauer.eval_at_one(0.0, 0) == 1.0
    for n in range(1, 9):
        assert gegenbauer.eval_at_one(0.0, n) == pytest.approx(2.0 / n, rel=1e-15)
    # closed form binom(n + 2 nu - 1, n)
    assert gegenbauer.eval_at_one(1.5, 4) == pytest.approx(math.comb(6, 4), rel=1e-13)


@pytest.mark.parametrize("d", range(3, 9))
def test_eval_at_one_equals_scipy_binom_on_spheres(d):
    nu = (d - 2) / 2.0
    for n in range(1, MAX_DEGREE + 1):
        assert gegenbauer.eval_at_one(nu, n) == float(binom(n + 2.0 * nu - 1.0, n))


def test_argument_validation():
    with pytest.raises(ValueError):
        gegenbauer.series_eval(-0.5, np.ones(5), 0.0)
    with pytest.raises(ValueError):
        gegenbauer.series_eval(1.0, np.ones(5), 1.5)
    with pytest.raises(ValueError):
        gegenbauer.series_eval(1.0, np.empty(0), 0.0)
    with pytest.raises(ValueError):
        gegenbauer.eval_at_one(1.0, 2.5)
    with pytest.raises(ValueError):
        oracles.explicit_eval(1.0, 31, 0.0)


def test_boundary_arguments_clipped():
    # values just outside [-1, 1] from rounding are accepted and clipped
    unit = np.zeros(4)
    unit[3] = 1.0
    vals = gegenbauer.series_eval(0.5, unit, np.array([1.0 + 1e-12, -1.0 - 1e-12]))
    assert vals[0] == pytest.approx(gegenbauer.eval_at_one(0.5, 3), rel=1e-12)
