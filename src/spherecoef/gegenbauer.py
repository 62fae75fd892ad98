"""Gegenbauer (ultraspherical) polynomials C_n^nu on [-1, 1].

The nu = 0 family here is the renormalized limit (2/n) T_n with T_n the
Chebyshev polynomial of the first kind (and C_0^0 = 1, C_1^0(t) = 2t), which
is the convention under which the sphere machinery in this package treats
the circle (d = 2) and the higher-dimensional spheres uniformly.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["eval_all", "eval_at_one", "series_eval", "sweep"]


def _check_args(nu, max_degree, t):
    if nu < 0:
        raise ValueError(f"nu must be >= 0, got {nu}")
    if int(max_degree) != max_degree or max_degree < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {max_degree}")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-9):
        raise ValueError("arguments t must lie in [-1, 1]")
    return np.clip(t, -1.0, 1.0)


def sweep(nu, max_degree, t):
    """Yield C_0^nu(t), ..., C_max_degree^nu(t) in turn by the three-term
    recursion; the one place the recursion and the nu = 0 family are written.

    t is an ndarray already in [-1, 1] (no check is made here).  The values
    roll through three buffers of t's shape, updated in place: each yielded
    array is overwritten two steps later, so copy it to keep it.
    """
    t = np.asarray(t, dtype=float)
    prev = np.ones_like(t)
    yield prev
    if max_degree == 0:
        return
    cur = np.multiply(2.0 if nu == 0 else 2.0 * nu, t, out=np.empty_like(t))
    yield cur
    nxt = np.empty_like(t)
    for m in range(int(max_degree) - 1):
        if nu == 0 and m == 0:
            # the degree-2 member of the Chebyshev-limit family; the printed
            # three-term recursion only applies from degree 1 onward here
            np.multiply(t, t, out=nxt)
            nxt *= 2.0
            nxt -= 1.0
        else:
            np.multiply(t, cur, out=nxt)
            nxt *= 2.0 * (nu + m + 1.0) / (m + 2.0)
            prev *= (2.0 * nu + m) / (m + 2.0)
            nxt -= prev
        prev, cur, nxt = cur, nxt, prev
        yield cur


def eval_all(nu, max_degree, t):
    """Evaluate C_0^nu, ..., C_max_degree^nu at t by the three-term recursion.

    Parameters
    ----------
    nu : float
        Gegenbauer index, >= 0.  nu = 0 uses C_1^0(t) = 2t and the
        Chebyshev-limit family (2/n) T_n.
    max_degree : int
        Highest degree to return.
    t : scalar or ndarray
        Evaluation points in [-1, 1].

    Returns
    -------
    ndarray with shape (max_degree + 1,) + shape(t); entry [n] is C_n^nu(t).
    """
    t = _check_args(nu, max_degree, t)
    out = np.empty((int(max_degree) + 1,) + t.shape, dtype=float)
    for n, c in enumerate(sweep(nu, max_degree, t)):
        out[n] = c
    return out


def series_eval(nu, coeffs, t):
    """Evaluate sum_n coeffs[n] * C_n^nu(t) in one recursion sweep.

    Keeps only the sweep's three rolling buffers, so t may be a large array
    without materializing every degree.  coeffs is a 1-D sequence indexed
    by degree; zero entries are skipped in the accumulation.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("coeffs must be a nonempty 1-D sequence indexed by degree")
    t = _check_args(nu, coeffs.size - 1, t)
    out = _series_eval(nu, coeffs, t)
    return float(out) if t.shape == () else out


def _series_eval(nu, coeffs, t):
    """series_eval without its argument checks: coeffs is a nonempty 1-D
    float array indexed by degree and t an ndarray already in [-1, 1]."""
    out, term = np.zeros_like(t), np.empty_like(t)
    for c, values in zip(coeffs, sweep(nu, coeffs.size - 1, t)):
        if c != 0.0:
            out += np.multiply(values, c, out=term)
    return out


def eval_at_one(nu, n):
    """Value C_n^nu(1): binom(n + 2 nu - 1, n) for nu > 0, and 2/n for the
    nu = 0 family (1 at degree 0).

    When 2 nu is an integer, as nu = (d - 2)/2 is for every sphere S^{d-1},
    the binomial is the exact integer math.comb rounded once to a float;
    other nu take the product of (2 nu - 1 + k)/k over k = 1..n.
    """
    if nu < 0:
        raise ValueError(f"nu must be >= 0, got {nu}")
    if int(n) != n or n < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {n}")
    n = int(n)
    if n == 0:
        return 1.0
    if nu == 0:
        return 2.0 / n
    if float(2.0 * nu).is_integer():
        return float(math.comb(n + int(2.0 * nu) - 1, n))
    value = 1.0
    for k in range(1, n + 1):
        value *= (2.0 * nu - 1.0 + k) / k
    return value
