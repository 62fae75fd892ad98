"""Gegenbauer (ultraspherical) polynomials C_n^nu on [-1, 1], through the
Chebyshev polynomials T_j of the first kind.

Szego's formula (Orthogonal Polynomials, 1939, eq. 4.9.19),

    C_n^nu(cos theta) = sum_k a_k a_{n-k} cos((n - 2k) theta),
    a_k = (nu)_k / k!,

writes every normalised polynomial C_n^nu / C_n^nu(1) as a convex
combination of T_n, T_{n-2}, ...: the rows of connection(nu, top).  So one
recurrence, chebyshev's T_{n+1} = 2t T_n - T_{n-1}, serves every nu, and a
combination of nonnegative terms adds no cancellation.  Every polynomial
in the package is normalised, so C_n^nu(1) itself is never formed; at
nu = 0 the normalised polynomial is T_n and the table is the identity, one
more row of the same formula.
"""

from __future__ import annotations

import functools

import numpy as np

from .sphere import _finite, _integer

__all__ = ["chebyshev", "work_size", "connection", "series_eval"]

# Largest filter degree any kernel may have; KernelSpec, EstimatorConfig,
# HarmonicMixture and connection refuse more.  Arrays over degrees (filter
# weights, per-degree self-sums, connection tables, Chebyshev sweeps) grow
# with the band limit, so a band limit above this is refused rather than
# allocated; only the standard error's square, to twice the odd part's
# degree, goes past it, and only as Chebyshev coefficients (chebmul of the
# odd part's), which no table maps back.  128 is twice the degree 64
# planned for an uncapped cross-validation search (its minimiser is 55 at
# N = 50 000), and a power of two, so delayed_means can use it.
MAX_DEGREE = 128


def work_size(size):
    """Entries of chebyshev's work array for a t of this size: four slots,
    each rounded up to whole 64-byte cache lines (8 float64 entries), so
    that every slot starts on a line when work does."""
    return 4 * -(-size // 8) * 8


def chebyshev(top, t, work=None):
    """Yield T_0(t), ..., T_top(t) in turn by T_{n+1} = 2t T_n - T_{n-1},
    the package's one polynomial recurrence: two array passes per degree,
    a product into a buffer and a subtraction in place.

    t is an ndarray already in [-1, 1] (no check is made here), yielded
    itself as T_1 and never written.  The other values roll through three
    buffers of t's shape, updated in place: each yielded array is
    overwritten two steps later, so copy it to keep it.  work, if given,
    is a flat float array of at least work_size(t.size) entries that holds
    those buffers and 2t, so that a loop over blocks allocates them once;
    each sits a whole number of cache lines past work's start, so a work
    that starts on a line keeps every pass of the sweep on whole lines.
    """
    top = _integer(top, "top", 0)
    t = np.asarray(t, dtype=float)
    stride = work_size(t.size) // 4
    if work is None:
        work = np.empty(4 * stride)
    ones, two_t, spare, other = (
        work[k * stride : k * stride + t.size].reshape(t.shape) for k in range(4)
    )
    ones.fill(1.0)
    yield ones
    if top == 0:
        return
    yield t
    np.add(t, t, out=two_t)
    prev, cur = ones, t
    for _ in range(top - 1):
        np.multiply(two_t, cur, out=spare)
        spare -= prev
        # the buffer two degrees back is free, unless it is t itself
        prev, cur, spare = cur, spare, (prev if prev is not t else other)
        yield cur


# typed, so that top = True is checked rather than served the table of 1
@functools.lru_cache(maxsize=None, typed=True)
def connection(nu, top):
    """Lower-triangular (top + 1, top + 1) table P of the normalised
    polynomials, C_n^nu / C_n^nu(1) = sum_j P[n, j] T_j for n = 0..top,
    read-only and shared by every caller.  top is at most MAX_DEGREE, the
    largest band limit, so no call builds and keeps a larger table.

    Every entry is nonnegative, each row sums to 1, and P[n, j] is zero
    unless n - j is even and nonnegative; a smaller top gives the leading
    block.  Row n holds the weights a_k a_{n-k} / C_n^nu(1) of Szego's
    formula (a cosine of (n - 2k) theta with k < n/2 counts twice), written
    as products of ratios that stay finite at nu = 0, where only the j = n
    weight, 1, is left: the identity.
    """
    if not 0 <= top <= MAX_DEGREE:
        raise ValueError(f"connection tables reach degree MAX_DEGREE = {MAX_DEGREE}, got top {top}")
    top = _integer(top, "top", 0)
    table = np.zeros((top + 1, top + 1))
    # g[k] = (nu + 1)_{k-1} / k!, so that a_k = nu g[k] for k >= 1
    g = np.ones(top + 1)
    for k in range(2, top + 1):
        g[k] = g[k - 1] * (nu + k - 1) / k
    table[0, 0] = 1.0
    lead, scale = 1.0, 1.0  # prod_{i<n} (nu + i)/(2 nu + i) and n!/(2 nu + 1)_{n-1}
    for n in range(1, top + 1):
        if n > 1:
            lead *= (nu + n - 1) / (2.0 * nu + n - 1)
            scale *= n / (2.0 * nu + n - 1)
        table[n, n] = lead
        for k in range(1, n // 2 + 1):
            weight = nu * g[k] * g[n - k] * scale
            table[n, n - 2 * k] = weight / 2.0 if 2 * k == n else weight
    table.setflags(write=False)
    return table


def series_eval(nu, coeffs, t):
    """Evaluate sum_n coeffs[n] * C_n^nu(t) / C_n^nu(1), a series of the
    normalised polynomials, in one recurrence sweep.

    Keeps only the sweep's rolling buffers, so t may be a large array
    without materializing every degree.  coeffs is a finite 1-D sequence
    indexed by degree, to degree MAX_DEGREE at most (connection's
    reach).  Arguments t just outside [-1, 1] (by at most 1e-9, from
    rounding) are clipped; NaN is refused.  The coefficients map
    through connection once, to Chebyshev ones, and zero Chebyshev
    coefficients (every even one of an odd series) are skipped in the
    accumulation.
    """
    coeffs = _finite(coeffs, "coeffs")
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("coeffs must be a nonempty 1-D sequence indexed by degree")
    if not 0.0 <= nu < np.inf:
        raise ValueError(f"nu must be finite and >= 0, got {nu}")
    t = np.asarray(t, dtype=float)
    if not np.all(np.abs(t) <= 1.0 + 1e-9):
        raise ValueError("arguments t must lie in [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    cheb = coeffs @ connection(nu, coeffs.size - 1)
    out, term = np.zeros_like(t), np.empty_like(t)
    for c, values in zip(cheb, chebyshev(coeffs.size - 1, t)):
        if c != 0.0:
            out += np.multiply(values, c, out=term)
    return float(out) if t.shape == () else out
