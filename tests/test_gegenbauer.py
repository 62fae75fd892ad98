"""Tests for ultraspherical polynomial evaluation."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import binom, eval_chebyt, eval_chebyu, eval_gegenbauer

import oracles
from helpers import eval_all
from spherecoef import gegenbauer, kernels
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
    """series_eval sums the normalised polynomials: coefficients times
    C_n(1) give the series of C_n itself."""
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(13)
    t = rng.uniform(-1.0, 1.0, 37)
    for nu in (0.0, 0.5, 2.0):
        direct = coeffs @ eval_all(nu, 12, t)
        got = gegenbauer.series_eval(nu, coeffs * oracles.at_one_exact(nu, 12), t)
        assert np.allclose(got, direct, atol=1e-12)


def test_series_eval_scalar_and_sparse_coeffs():
    # at nu = 1/2 (d = 3) C_n(1) = 1: the normalised polynomial is P_n
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
    """The Chebyshev sweep yields T_0, ..., T_top, each an array of t's
    shape, and through the connection table, times C_n^nu(1), they give
    every C_n^nu."""
    table = gegenbauer.connection(nu, max_degree)
    at_one = oracles.at_one_exact(nu, max_degree)
    for t in SWEEP_ARGS:
        vals = [c.copy() for c in gegenbauer.chebyshev(max_degree, t)]
        assert len(vals) == max_degree + 1
        for j, c in enumerate(vals):
            assert isinstance(c, np.ndarray) and c.shape == t.shape
            assert np.max(np.abs(c - eval_chebyt(j, t))) < 1e-12
        for n in range(max_degree + 1):
            got = at_one[n] * sum(table[n, j] * vals[j] for j in range(n + 1))
            if nu == 0:
                ref = np.ones_like(t) if n == 0 else (2.0 / n) * eval_chebyt(n, t)
            else:
                ref = eval_gegenbauer(n, nu, t)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(got - ref)) / scale < 1e-10


def test_sweep_leaves_its_argument_alone():
    """The sweep never writes t, and with a work array (of at least
    work_size(t.size) entries, four slots of whole cache lines) it yields
    the values it yields without one, bit for bit."""
    t = T_GRID.copy()
    alone = [c.copy() for c in gegenbauer.chebyshev(6, t)]
    assert np.array_equal(t, T_GRID)
    assert [gegenbauer.work_size(n) for n in (0, 1, 8, 9, 101)] == [0, 32, 32, 64, 416]
    work = np.full(gegenbauer.work_size(t.size) + 3, np.nan)
    assert all(np.array_equal(a, b) for a, b in zip(alone, gegenbauer.chebyshev(6, t, work)))
    assert np.array_equal(t, T_GRID)


# the t-grid of the connection tests: both ends, an even grid and the
# Chebyshev-Lobatto points, where T_j is +-1
T_CHECK = np.concatenate([[-1.0, 1.0], T_GRID, np.cos(np.pi * np.arange(33) / 32)])


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 1.0, 1.5, 2.5])
def test_connection_table_against_recurrence(nu):
    """Up to MAX_DEGREE the table of the normalised polynomials C_n /
    C_n(1) is lower triangular with nonnegative entries of the degree's
    parity, each row sums to 1 within 1e-14, and its rows against the
    Chebyshev sweep agree within 1e-13 with the three-term recurrence in
    nu over its own value at t = 1, on a grid that includes +-1.  A
    smaller top gives the leading block, entry for entry."""
    table = gegenbauer.connection(nu, MAX_DEGREE)
    assert table.shape == (MAX_DEGREE + 1, MAX_DEGREE + 1) and not table.flags.writeable
    degree = np.arange(MAX_DEGREE + 1)
    off_parity = ((degree[:, None] - degree[None, :]) % 2 == 1) | (degree[None, :] > degree[:, None])
    assert np.all(table >= 0.0) and np.all(table[off_parity] == 0.0)
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= 1e-14
    cheb = np.array([c.copy() for c in gegenbauer.chebyshev(MAX_DEGREE, T_CHECK)])
    ref = oracles.gegenbauer_recurrence(nu, MAX_DEGREE, T_CHECK)
    assert T_CHECK[1] == 1.0
    assert np.all(np.abs(table @ cheb - ref / ref[:, 1:2]) <= 1e-13)
    for top in (0, 1, 24):
        assert np.array_equal(gegenbauer.connection(nu, top), table[: top + 1, : top + 1])


def test_connection_stops_at_max_degree():
    """connection builds tables to MAX_DEGREE = 128, the largest band
    limit, and refuses a larger top before it allocates: a 100 001-entry
    series_eval row, which would ask for a 10^10-entry table, is refused
    and caches nothing.  The standard error's square reaches 2 MAX_DEGREE
    only as Chebyshev coefficients, which need no table."""
    table = gegenbauer.connection(0.5, MAX_DEGREE)
    assert table.shape == (MAX_DEGREE + 1, MAX_DEGREE + 1)
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) < 1e-13
    cached = gegenbauer.connection.cache_info().currsize
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_DEGREE = 128"):
            gegenbauer.series_eval(0.5, np.ones(100_001), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6  # the row itself is 0.8 MB
    assert gegenbauer.connection.cache_info().currsize == cached
    for top in (-1, MAX_DEGREE + 1):
        with pytest.raises(ValueError, match="connection tables"):
            gegenbauer.connection(0.5, top)


def test_connection_of_the_circle_family_is_diagonal():
    """For nu = 0, C_n^0 / C_n^0(1) = T_n: the table is the identity."""
    assert np.array_equal(gegenbauer.connection(0.0, MAX_DEGREE), np.eye(MAX_DEGREE + 1))


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("top", [5, 15, 63, 127])
def test_squared_series_against_mpmath(nu, top):
    """chebmul squares a row of projector coefficients on S^{d-1}, d =
    2 nu + 2 (2 to 5), in its Chebyshev coefficients
    (kernels._chebyshev_rows): the 2 top + 1 coefficients s_j with
    sum_j s_j T_j(t) = (sum_n c_n q_n(t))^2, within 1e-13 of the largest
    |value| on a grid that includes +-1.  The row is a Gegenbauer series
    through oracles.projector_constants, the square the nu = 0 one, C_j^0 =
    (2/j) T_j, through oracles.at_one_exact, both summed in 30-digit
    arithmetic (oracles.gegenbauer_series); an odd row's square is even."""
    d = int(2 * nu + 2)
    row = np.random.default_rng(top).standard_normal(top + 1)
    (cheb,) = kernels._chebyshev_rows(row, d)
    square = np.polynomial.chebyshev.chebmul(cheb, cheb)
    assert square.shape == (2 * top + 1,)
    want = oracles.gegenbauer_series(nu, row * oracles.projector_constants(top, d), T_CHECK, power=2)
    got = oracles.gegenbauer_series(0.0, square / oracles.at_one_exact(0.0, 2 * top), T_CHECK)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    row[::2] = 0.0
    (cheb,) = kernels._chebyshev_rows(row, d)
    assert not np.any(np.polynomial.chebyshev.chebmul(cheb, cheb)[1::2])


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("max_degree", [0, 1, 2, 24])
def test_series_eval_of_unit_coeffs_is_table_row(nu, max_degree):
    table = eval_all(nu, max_degree, T_GRID)
    at_one = oracles.at_one_exact(nu, max_degree)
    for n in range(max_degree + 1):
        unit = np.zeros(max_degree + 1)
        unit[n] = at_one[n]
        assert np.array_equal(gegenbauer.series_eval(nu, unit, T_GRID), table[n])


def test_eval_at_one():
    """The values C_n(1) that the tests multiply into the normalised
    polynomials (oracles.at_one_exact) agree with the explicit sum, which
    is a different route, and with the binomial binom(n + 2 nu - 1, n);
    the package itself never forms them."""
    for nu in (0.3, 0.5, 1.0, 1.5, 1.7, 2.5):
        at_one = oracles.at_one_exact(nu, 11)
        for n in range(12):
            explicit = oracles.gegenbauer_at_one(nu, n)
            assert at_one[n] == pytest.approx(explicit, rel=1e-12)
    assert list(oracles.at_one_exact(0.0, 8)) == [1.0] + [2.0 / n for n in range(1, 9)]
    assert oracles.at_one_exact(1.5, 4)[4] == math.comb(6, 4)


@pytest.mark.parametrize("d", range(3, 9))
def test_eval_at_one_equals_scipy_binom_on_spheres(d):
    """On every sphere S^{d-1} the exact C_n(1) is scipy's binomial, bit
    for bit, up to MAX_DEGREE."""
    nu = (d - 2) / 2.0
    at_one = oracles.at_one_exact(nu, MAX_DEGREE)
    for n in range(1, MAX_DEGREE + 1):
        assert at_one[n] == float(binom(n + 2.0 * nu - 1.0, n))


def test_argument_validation():
    with pytest.raises(ValueError):
        gegenbauer.series_eval(-0.5, np.ones(5), 0.0)
    with pytest.raises(ValueError):
        gegenbauer.series_eval(1.0, np.ones(5), 1.5)
    with pytest.raises(ValueError):
        gegenbauer.series_eval(1.0, np.empty(0), 0.0)
    # NaN fails every comparison, so it is refused rather than passed on
    with pytest.raises(ValueError, match="lie in"):
        gegenbauer.series_eval(0.5, [1.0, 2.0], np.nan)
    with pytest.raises(ValueError, match="lie in"):
        gegenbauer.series_eval(0.5, [1.0, 2.0], np.array([0.5, np.nan]))
    with pytest.raises(ValueError, match="finite"):
        gegenbauer.series_eval(0.5, [1.0, np.nan], 0.5)
    with pytest.raises(ValueError, match="finite"):
        gegenbauer.series_eval(0.5, [1.0, np.inf], 0.5)
    for nu in (np.nan, np.inf):
        with pytest.raises(ValueError, match="nu must be finite"):
            gegenbauer.series_eval(nu, [1.0, 2.0], 0.5)
    with pytest.raises(ValueError):
        oracles.explicit_eval(1.0, 31, 0.0)


def test_boundary_arguments_clipped():
    # values just outside [-1, 1] from rounding are accepted and clipped
    unit = np.zeros(4)
    unit[3] = 1.0
    vals = gegenbauer.series_eval(1.5, unit, np.array([1.0 + 1e-12, -1.0 - 1e-12]))
    assert vals[0] == pytest.approx(1.0, rel=1e-12) and vals[1] == pytest.approx(-1.0, rel=1e-12)
