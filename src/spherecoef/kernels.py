"""Surface-harmonic machinery: eigenspace dimensions (eigenspace_dim),
smoothed projection kernels (KernelSpec) and anchored harmonic expansions
(HarmonicMixture), the public names, and behind them the zonal projectors,
their sums over anchors and an explicit orthonormal basis of the
harmonics, which the estimator reads.

Degree-n content on S^{d-1} is handled through the zonal projector kernel

    q_n(x, y) = q_n(x, x) * C_n^nu(x'y) / C_n^nu(1),

with nu = (d-2)/2 and q_n(x, x) = h(n, d) / |S^{d-1}| (_projector_diagonal,
the one place that constant is written).  Every per-degree quantity is a
row over these projectors: a smoothed projection kernel is K_T(x, y) =
sum_{n<=T} chi(n, T) q_n(x, y) for one of the weight families below, and a
HarmonicMixture's degree_coeffs is such a row too.  By the addition
theorem q_n(x, y) is also Y_n(x)'Y_n(y) for any orthonormal basis Y_n of
the degree-n harmonics; _harmonic_basis builds one (the Gelfand-Tsetlin
basis).  A row maps once to Chebyshev coefficients (_chebyshev_rows),
and every sum of such rows over anchors runs through one loop,
_degree_sums; a row's square is the product of its Chebyshev series
(np.polynomial.chebyshev.chebmul).  The self-sums S[n, i] = sum_j
q_n(x_i, x_j) over a sample, which every covariate-density fit reads
against rows of filter weights, live here too: _self_sums takes them from
the basis' moments over the sample (its analysis and synthesis,
_harmonic_moments and _harmonic_series) or by a sweep over every pair of
sample points, whichever costs less (_basis_is_cheaper).  By the same
rule, _cheaper_series reads rows of a mixture from its weighted moments
sum_i w_i Y(x_i) instead of sweeping every anchor-point pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gegenbauer
from .gegenbauer import MAX_DEGREE
from .sphere import _check_on_sphere, _finite, _integer, _real, surface_area

__all__ = ["eigenspace_dim", "KernelSpec", "MAX_DEGREE", "HarmonicMixture"]

_FAMILIES = ("riesz", "delayed_means", "dirichlet")

# Cosines per block of _degree_sums, for evaluation and self-sums alike.
# Each block-sized array of the Chebyshev sweep (the cosines, 2t and the
# three rolling buffers) is then 128 KB, 640 KB together, so they stay in
# cache; blocks of millions of cosines were two to three times slower per
# point.  Each starts on a 64-byte cache line (_aligned_empty and
# gegenbauer._work_size), so no vector load of the sweep straddles two.
EVAL_CHUNK = 1 << 14

# Least anchors per chunk of _degree_sums: each chunk's Chebyshev sums reduce
# through each row before the chunks add up, which keeps them as accurate
# as sums of projector values (see _degree_sums).  A chunk's
# blocks are then 128 x 128 cosines; with fewer than 128 points a chunk
# takes more anchors, enough for one EVAL_CHUNK block.
ANCHOR_CHUNK = 1 << 7


def _check_family(family):
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {_FAMILIES}, got {family!r}")


def eigenspace_dim(n, d):
    """Dimension of the space of degree-n surface harmonics on S^{d-1}.

    Exact integer; equals 1 at n = 0, 2 for every n >= 1 when d = 2, and
    2n + 1 when d = 3.
    """
    n, d = _integer(n, "degree", 0), _integer(d, "dimension", 2)
    if n == 0:
        return 1
    return math.comb(n + d - 2, n) + math.comb(n + d - 3, n - 1)


def _projector_diagonal(max_degree, d):
    """The row q_n(x, x) = h(n, d) / |S^{d-1}| for n = 0..max_degree: the
    constant that turns the normalised polynomial C_n^nu(t) / C_n^nu(1)
    (gegenbauer._connection) into the zonal projector q_n, for int
    max_degree >= 0 and d >= 2."""
    return np.array([eigenspace_dim(n, d) for n in range(max_degree + 1)], dtype=float) / surface_area(d)


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class KernelSpec:
    """A smoothed projection kernel: weight family, cutoff degree, dimension.

    family : "riesz", "delayed_means" or "dirichlet"
    degree : truncation degree T >= 0
    dimension : ambient dimension d >= 2
    s, l : Riesz parameters (smoothness exponent and integer power); l must
        exceed (d-2)/2.  Ignored by the other families, but finite numbers
        in every one (sphere._real).

    degree, dimension and a riesz l are stored as ints (np.int64 and
    integral floats are accepted), s and any other l as floats; a bool,
    Python's or numpy's, is refused for any of them.
    """

    family: str
    degree: int
    dimension: int
    s: float = 2.0
    l: int = 3

    def __post_init__(self):
        _check_family(self.family)
        object.__setattr__(self, "degree", _integer(self.degree, "degree", 0, MAX_DEGREE))
        object.__setattr__(self, "dimension", _integer(self.dimension, "dimension", 2))
        # finite numbers in every family, also those that ignore s and l; a
        # riesz l is an integer > (d-2)/2, that is >= d // 2
        riesz = self.family == "riesz"
        object.__setattr__(self, "s", _real(self.s, "s", 0 if riesz else -math.inf))
        l = _real(self.l, "l")
        object.__setattr__(self, "l", _integer(self.l, "l", self.dimension // 2) if riesz else l)
        if self.family == "delayed_means" and not _is_power_of_two(self.degree):
            raise ValueError(
                f"delayed_means requires a power-of-two degree, got {self.degree}"
            )

    def chi(self):
        """All filter weights chi(n, T) for n = 0..degree as an array."""
        table = _chi_table(self.family, [self.degree], self.degree, self.dimension, s=self.s, l=self.l)
        return table[0]


def _bump(u):
    """exp(-1/u) for u > 0, else 0 (smooth cutoff building block)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / u[pos])
    return out


def _delayed_means_profile(x):
    """C^inf nonincreasing profile equal to 1 on [0, 1/2] and 0 on [1, inf)."""
    x = np.asarray(x, dtype=float)
    a = _bump(2.0 - 2.0 * x)
    b = _bump(2.0 * x - 1.0)
    # for x >= 0 one of 2 - 2x and 2x - 1 is at least 1/2, so a + b >= e^-2
    return a / (a + b)


def _chi_table(family, degrees, max_n, d, s=2.0, l=3):
    """Weights chi(n, T) for several cutoffs at once.

    Row k holds chi(n, degrees[k]) for n = 0..max_n, zero above that
    cutoff; the family and the Riesz parameters s, l are as in KernelSpec,
    which checks them.
    """
    n = np.arange(max_n + 1, dtype=float)
    top = np.asarray(degrees, dtype=float)[:, None]
    inside = n <= top
    if family == "dirichlet":
        table = np.ones(inside.shape)
    elif family == "riesz":
        zeta = n * (n + d - 2)
        ratio = np.where(inside, zeta / (top * (top + d - 2) + 1.0), 0.0)
        table = (1.0 - ratio ** (s / 2.0)) ** l
    else:
        table = np.where(top > 0, _delayed_means_profile(n / np.maximum(top, 1.0)), 1.0)
    return np.where(inside, table, 0.0)


def _aligned_empty(size):
    """An uninitialised flat float64 array of size entries whose first
    starts on a 64-byte cache line.  np.empty promises 16 bytes, and its
    large buffers start 16 bytes past a line, so that each vector load of
    a sweep over them straddles two lines."""
    raw = np.empty(size + 8)
    skip = -raw.ctypes.data % 64 // raw.itemsize
    return raw[skip:][:size]  # an empty slice raw[skip:skip] keeps raw's start


def _chebyshev_rows(rows, d):
    """The Chebyshev coefficients of rows of projector coefficients on
    S^{d-1}: sum_j C[r, j] T_j(t) = sum_n rows[r, n] q_n(t), through the
    table of q_n (_projector_diagonal times gegenbauer._connection).  rows is
    one row or an (r, k) array over degrees 0..k - 1; returns (r, k)."""
    top = np.shape(rows)[-1] - 1
    return (np.atleast_2d(rows) * _projector_diagonal(top, d)) @ gegenbauer._connection((d - 2) / 2.0, top)


def _degree_sums(anchors, weights, points, cheb):
    """The values V[r, k] = sum_i sum_j C[r, j] W[j, i] T_j(a_i'b_k) of the
    (r, J) Chebyshev rows C (_chebyshev_rows) over the (N, d) anchors a_i,
    at the (m, d) points b_k.  weights is one (N,) vector, or p rows, row
    j % p for Chebyshev degree j (one per Chebyshev degree, or two: even
    and odd), so that a row of one parity reads only its own weights.

    Returns an (r, m) array.  The anchors go in chunks of at least
    ANCHOR_CHUNK, and each chunk's points in blocks of about EVAL_CHUNK
    cosines: one gegenbauer._chebyshev sweep per block, up to the highest
    Chebyshev degree some row reads, and one matrix-vector product with the
    weights for each Chebyshev degree some row reads.  After each chunk,
    each row reduces the chunk's Chebyshev sums over its own nonzero
    degrees, so that a row's values do not depend on the other rows passed
    with it (one product over all rows rounds otherwise).  On S^{d-1},
    d >= 3, the T_j are not orthogonal, so their totals over many anchors
    are large and cancel in the reduction; reduced chunk by chunk, the sums
    keep the accuracy of a sweep of Gegenbauer values.  The covariate
    density (riesz, degree 10) at its own N = 3 000 uniform points in d = 5
    is within 2.7e-15 of its largest value from a long-double Gegenbauer
    recurrence; on another such sample, one map of the whole sample's
    totals was off by 2.2e-14, the Gegenbauer recurrence in double by
    1.9e-15.
    """
    n_obs, m = anchors.shape[0], points.shape[0]
    out = np.zeros((cheb.shape[0], m))
    read = np.any(cheb != 0.0, axis=0)  # the Chebyshev degrees some row reads
    if not read.any():
        return out
    top, slot = np.flatnonzero(read)[-1], np.cumsum(read) - 1  # degree j's sums are row slot[j]
    terms = [(row[row != 0.0], slot[row != 0.0]) for row in cheb]  # each row's own coefficients and sums
    rows_of = np.atleast_2d(weights)
    chunk = max(ANCHOR_CHUNK, EVAL_CHUNK // max(1, m))
    # A chunk of c anchors takes its points EVAL_CHUNK // c at a time, so the
    # last, shorter chunk has taller blocks; one height for every chunk would
    # change the last bits of the sums, since BLAS rounds products of other
    # shapes differently.  The cosines, the sweep's buffers and the Chebyshev
    # sums are allocated once, for the larger of the two block sizes: a
    # fresh 128 KB array per block can come from a page-faulting mapping,
    # which made evaluation up to three times slower per point.  The cosines
    # and the sweep's work start on cache lines: at d = 3, N = 5 000 that
    # took the diagnostic's 2 048 nodes from 66-75 ms to 49-50 ms, bit for
    # bit the same.
    counts = [c for c in (min(chunk, n_obs), n_obs % chunk) if c]
    cosines = _aligned_empty(max([min(max(1, EVAL_CHUNK // c), m) * c for c in counts], default=0))
    work, sums = _aligned_empty(gegenbauer._work_size(cosines.size)), np.empty((slot[-1] + 1, m))
    for start in range(0, n_obs, chunk):
        part = anchors[start : start + chunk]
        height = max(1, EVAL_CHUNK // part.shape[0])
        for first in range(0, m, height):
            rows = slice(first, first + height)
            block = cosines[: min(height, m - first) * part.shape[0]].reshape(-1, part.shape[0])
            np.matmul(points[rows], part.T, out=block)
            np.clip(block, -1.0, 1.0, out=block)
            for j, values in enumerate(gegenbauer._chebyshev(top, block, work)):
                if read[j]:
                    sums[slot[j], rows] = values @ rows_of[j % len(rows_of), start : start + chunk]
        # a row that reads every slot takes sums itself: a copy per chunk made
        # the d = 4 marginal's 128 nodes about 2% slower at N = 2 000
        for total, (coeffs, picks) in zip(out, terms):
            total += coeffs @ (sums if picks.size == len(sums) else sums[picks])
    return out


# Entries per row block of _harmonic_moments and _harmonic_series, counted
# over the block's lower harmonics and its three rows of factors per lower
# degree (see _basis_terms).
BASIS_CHUNK = 1 << 17


def _gegenbauer_factors(t, rho2, top, nu):
    """Yield, for k = 0..top, (g, scale): the (top + 1 - k, m) monic
    factors g = rho^k G_k(t / rho) of the lower degrees l = 0..top - k, and
    the (top + 1 - k,) scale that makes them rho^k p_k(t / rho), for p_k
    the orthonormal Gegenbauer polynomials of the weight
    (1 - t^2)^{lambda - 1/2} on [-1, 1], lambda = l + nu (rho2 = rho^2,
    None for rho = 1).  From t p_k = alpha_{k+1} p_{k+1} + alpha_k p_{k-1},
    with alpha_k^2 = k (k + 2 lambda - 1) / (4 (k + lambda) (k + lambda - 1)),
    G_{k+1} = t G_k - alpha_k^2 G_{k-1} and p_k = p_0 G_k / (alpha_1 ...
    alpha_k), where p_0^2 = Gamma(lambda + 1) / (sqrt(pi) Gamma(lambda + 1/2))
    (math.lgamma at lambda = nu, then its ratios from one lambda to the
    next).  Three rolling buffers: each g is overwritten two steps later."""
    lam = nu + np.arange(top + 1.0)
    k = np.arange(1.0, top + 1.0)[:, None]
    alpha2 = k * (k + 2.0 * lam - 1.0) / (4.0 * (k + lam) * (k + lam - 1.0))
    first = math.exp(math.lgamma(nu + 1.0) - math.lgamma(nu + 0.5)) / math.sqrt(math.pi)
    p0_squared = np.cumprod(np.concatenate(([first], (lam[:-1] + 1.0) / (lam[:-1] + 0.5))))
    scale = np.sqrt(p0_squared / np.cumprod(np.vstack([np.ones(top + 1), alpha2]), axis=0))
    buffers = np.empty((3, top + 1, t.size))
    buffers[0].fill(1.0)
    yield buffers[0], scale[0]
    for k in range(1, top + 1):
        rows = top + 1 - k
        g, older = buffers[k % 3, :rows], buffers[(k - 2) % 3, :rows]
        np.multiply(buffers[(k - 1) % 3, :rows], t, out=g)
        if k > 1:
            if rho2 is not None:
                older *= rho2
            older *= alpha2[k - 2, :rows, None]
            g -= older
        yield g, scale[k, :rows]


def _harmonic_basis(points, top):
    """Real harmonics of every degree n <= top at the (m, d) points, d >= 2,
    as a (top + 1, w, m) array Y: Y[n, :h(n, d)] are the degree-n ones and
    the rest of Y[n] is zero (w = h(top, d), or 2 in d = 2).  At unit
    vectors they are orthonormal in L^2(S^{d-1}), so that by the addition
    theorem Y[n]'Y[n] is q_n at every pair; elsewhere they are the same
    homogeneous harmonic polynomials (solid harmonics).

    The basis is the Gelfand-Tsetlin one (Dai & Xu, Approximation Theory
    and Harmonic Analysis on Spheres and Balls, 2013, section 1.5), built by
    recursion over the dimension: in d = 2, 1/sqrt(2 pi) (and a zero) at
    degree 0, then Re and Im of (x_1 + i x_2)^n / sqrt(pi), by repeated
    products; above, each lower harmonic of degree l in the first d - 1 coordinates
    times rho^k p_k(x_d / rho), k = n - l, for rho = |x| and the
    orthonormal Gegenbauer polynomial p_k of index l + (d - 2)/2
    (_gegenbauer_factors), listed by l within degree n.
    """
    x = np.asarray(points, dtype=float)
    d = x.shape[1]
    if d == 2:
        # a whole row at a time: np.cumprod down the rows took twice as long
        z, step = np.ones((top + 1, x.shape[0]), dtype=complex), x[:, 0] + 1j * x[:, 1]
        for l in range(1, top + 1):
            np.multiply(z[l - 1], step, out=z[l])
        out = np.empty((top + 1, 2, x.shape[0]))
        np.multiply(z.real, 1.0 / math.sqrt(math.pi), out=out[:, 0])
        np.multiply(z.imag, 1.0 / math.sqrt(math.pi), out=out[:, 1])
        out[0, 0] = 1.0 / math.sqrt(2.0 * math.pi)
        return out
    lower = _harmonic_basis(x[:, :-1], top)
    factors = np.empty((top + 1, top + 1, x.shape[0]))
    rho2 = np.einsum("ij,ij->i", x, x)
    for k, (g, scale) in enumerate(_gegenbauer_factors(x[:, -1], rho2, top, (d - 2) / 2.0)):
        np.multiply(g, scale[:, None], out=factors[k, : top + 1 - k])
    out = np.zeros((top + 1, eigenspace_dim(top, d), x.shape[0]))
    dims = [eigenspace_dim(l, d - 1) for l in range(top + 1)]
    for l, (dim, end) in enumerate(zip(dims, np.cumsum(dims))):
        np.multiply(factors[: top + 1 - l, l, None], lower[l, None, :dim], out=out[l:, end - dim : end])
    return out


def _layout(d, top):
    """Shape (top + 1, w, depth) of a coefficient array of the basis to
    degree top in d dimensions (see _harmonic_moments)."""
    return top + 1, 2 if d <= 3 else eigenspace_dim(top, d - 1), 1 if d == 2 else top + 1


def _basis_terms(x, top):
    """Yield (rows, k, lower, g, scale) over row blocks of the unit vectors
    x and the factor indices k = 0..top: lower is the block's
    _harmonic_basis in the first d - 1 coordinates to degree top - k, and g
    and scale the matching monic Gegenbauer factors in the last one
    (rho = 1) and their scales (_gegenbauer_factors), so that
    scale[l] g[l] lower[l] are the harmonics of degree l + k.  In d = 2,
    lower is the circle's own and the one factor (k = 0) is 1."""
    d = x.shape[1]
    size = max(1, BASIS_CHUNK // (top + 1) // (_layout(d, top)[1] + 3))
    for start in range(0, x.shape[0], size):
        rows = slice(start, start + size)
        if d == 2:
            yield rows, 0, _harmonic_basis(x[rows], top), np.ones((top + 1, x[rows].shape[0])), np.ones(top + 1)
            continue
        lower = _harmonic_basis(x[rows, :-1], top)
        for k, (g, scale) in enumerate(_gegenbauer_factors(x[rows, -1], None, top, (d - 2) / 2.0)):
            yield rows, k, lower[: top + 1 - k], g, scale


def _harmonic_moments(points, top, weights=None):
    """The sums over the (m, d) unit vectors of _harmonic_basis' harmonics,
    to degree top, each vector's harmonics times its entry of the (m,)
    weights when given, as a coefficient array M of shape _layout(d, top):
    M[l, :, k] is for the harmonics of degree l + k made of the lower ones
    of degree l and the factor of index k (_basis_terms), zero where
    l + k > top or beyond the h(l, d - 1) lower ones.  In d = 2, depth 1:
    M[n, :, 0] is degree n.  The harmonics of the last coordinate are never
    stored: rows stream in blocks of about BASIS_CHUNK entries, and each
    factor, times the block's weights, meets the block's lower harmonics in
    one batched product."""
    x = np.asarray(points, dtype=float)
    moments = np.zeros(_layout(x.shape[1], top))
    for rows, k, lower, g, scale in _basis_terms(x, top):
        if weights is not None:
            g = g * weights[rows]
        moments[: g.shape[0], :, k] += scale[:, None] * np.matmul(lower, g[:, :, None])[..., 0]
    return moments


def _harmonic_energies(moments):
    """The per-degree energies sum_{Y of degree n} M_Y^2 of a moment array
    (_harmonic_moments) to degree top, for n = 0..top."""
    degree = np.add.outer(np.arange(moments.shape[0]), np.arange(moments.shape[2]))
    return np.bincount(degree.ravel(), (moments**2).sum(axis=1).ravel())[: moments.shape[0]]


def _band_length(row):
    """Degrees 0..band of a series row that reach its last nonzero one."""
    nonzero = np.flatnonzero(row)
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def _harmonic_series(moments, points, rows):
    """The values sum_n rows[r, n] sum_{Y of degree n} M_Y Y at the (m, d)
    unit vectors, for a moment array M (_harmonic_moments) and an (r, k)
    array of rows over its degrees, as an (r, m) array: the rows share one
    basis, built only to their last nonzero degree, and not at all for
    zero rows.  Each row is summed on its own, so that a row's values are
    those it has alone."""
    x = np.asarray(points, dtype=float)
    out = np.zeros((rows.shape[0], x.shape[0]))
    size = max(_band_length(row) for row in rows)
    if size == 0:
        return out
    top, width, depth = _layout(x.shape[1], size - 1)
    degree = np.add.outer(np.arange(top), np.arange(depth))
    padded = np.zeros((rows.shape[0], top + depth - 1))
    padded[:, :size] = rows[:, :size]
    coeffs = [moments[:top, :width, :depth] * row[degree][:, None, :] for row in padded]
    for block, k, lower, g, scale in _basis_terms(x, size - 1):
        for total, own in zip(out, coeffs):
            scaled = own[: g.shape[0], None, :, k] * scale[:, None, None]
            total[block] += np.einsum("lr,lr->r", g, np.matmul(scaled, lower)[:, 0])
    return out


# Multiple of H that 2 N m (top + 1) / (N + m) must exceed for a series to
# be read from the harmonic basis; see _basis_is_cheaper.
BASIS_RATIO = 8


def _basis_is_cheaper(n_anchors, n_points, top, d):
    """Whether series to degree top over N anchors at m points cost less
    from the harmonic basis (moments over the anchors, then their series
    at the points: (N + m) H harmonics, H = sum_{n <= top} h(n, d) =
    h(top, d + 1); no set-up, nothing kept between calls) than from the
    pair sweep (_degree_sums: N m (top + 1) Chebyshev terms): in d = 2
    always, elsewhere from 2 N m (top + 1) > BASIS_RATIO (N + m) H.  For
    the self-sums, N = m, that is N (top + 1) > BASIS_RATIO H.

    Self-sums (_self_sums), with one BLAS thread, for the energies and one
    combine at top (medians of 7, 2-core Xeon): the basis was the cheaper
    from N (top + 1) = 12 H at degree 10 in d = 3 (N = 132), 8 H at degree
    24 (N = 200), 7 H and 4 H at degrees 10 and 24 in d = 4 (N = 322 and
    884) and 8 to 9 H at degree 10 in d = 5 (N = 1 248 to 1 404); at degree
    24 in d = 5 the pair sweep still won at 8 H (4.4 s against 5.5 s, N =
    12 168).  Where BASIS_RATIO = 8 picks the slower path, the basis costs
    at most 0.2 ms more (d = 3, degree 10, N = 89 to 132) and the pair
    sweep at most 1.7 times the basis (d = 4, degree 24, N = 884 to 1 768).
    In d = 2 the pair sweep is cheaper only below N = 50 (by at most 0.02
    ms) and less accurate (1.8e-12 of each degree's largest sum to degree
    64 at N = 1 000, the basis 2.4e-14).

    The support diagnostic's two odd rows (identification_diagnostic;
    best of 5, one BLAS thread, same machine): in d = 3, 4 and 5, at
    degrees 5 and 15 and N = 1 000 to 50 000, the moments were the cheaper
    from min(N, m) (top + 1) = 3 to 8 H (the rule: from 4 H when N >> m),
    and at N = 500 from about 12 H, where both take under 0.3 ms.  Where
    the rule picks the slower path it costs at most 1.7 times the other
    (d = 3, N = 500, m = 35: 0.29 against 0.17 ms), and from N = 5 000 at
    most 1.3 times (d = 4, degree 15, N = 20 000, m = 381: the sweep's 93
    against 72 ms).  In d = 2 the moments cost at most 1.14 times the sweep
    (N = 5 000, m = 4).  At fit-5k's shape (d = 3, N = 5 000, 2 048 nodes)
    the moments took 0.9 ms and the sweep 49 ms; every d >= 4 diagnostic
    at its default 32 nodes stays on the sweep (d = 4, N = 20 000, degree
    15: 7.0 ms, against 72 ms on the moments).
    """
    return d == 2 or 2 * n_anchors * n_points * (top + 1) > BASIS_RATIO * (n_anchors + n_points) * eigenspace_dim(top, d + 1)


def _self_sums(x, max_degree):
    """The self-sums S[n, i] = sum_j q_n(x_i, x_j) for n = 0..max_degree,
    over the whole sample (the term j = i, q_n(x_i, x_i) = h(n, d) /
    |S^{d-1}|, included), as a pair (energy, combine): energy[n] = sum_i
    S[n, i], and combine(row) the values row @ S for a row of filter
    weights over degrees 0..max_degree (KernelSpec.chi, _chi_table),
    computed only up to the row's last nonzero degree.

    Two paths give them, whichever costs less (_basis_is_cheaper, with the
    sample as both anchors and points): the pair sweep (_pair_sums) and the
    harmonic basis (_basis_sums).
    """
    n_obs, d = x.shape
    if _basis_is_cheaper(n_obs, n_obs, max_degree, d):
        return _basis_sums(x, max_degree)
    return _pair_sums(x, max_degree)


def _pair_sums(x, max_degree):
    """_self_sums by one sweep over all N^2 cosines x_i'x_j, keeping the
    (max_degree + 1, N) sums S: _degree_sums of the rows of the table of q_n
    (_chebyshev_rows of the unit rows) with unit weights."""
    sums = _degree_sums(x, np.ones(x.shape[0]), x, _chebyshev_rows(np.eye(max_degree + 1), x.shape[1]))

    def combine(row):
        size = _band_length(row)
        return row[:size] @ sums[:size]

    return sums.sum(axis=1), combine


def _basis_sums(x, max_degree):
    """_self_sums from the moments M = sum_i Y(x_i) of the harmonic basis,
    linear in N: by the addition theorem S[n, i] = Y_n(x_i)'M_n, so
    energy[n] is |M_n|^2, and combine(row) the series of M with the row."""
    moments = _harmonic_moments(x, max_degree)
    return _harmonic_energies(moments), lambda row: _harmonic_series(moments, x, row[None])[0]


@dataclass
class HarmonicMixture:
    """Band-limited function anchored at sphere points.

    Represents g(b) = sum_n degree_coeffs[n] * sum_i weights[i] * q_n(x_i, b)
    with x_i the (N, d) anchors.  degree_coeffs is a nonempty 1-D float
    array indexed by degree 0..max_degree, at most MAX_DEGREE, the layout
    of KernelSpec.chi and _projector_diagonal.  This is the one closed form
    for every kernel-smoothed statistic in the package (a
    coefficient-density estimate is an odd mixture, its choice probability
    the mixture's hemisphere transform), and spectral operators act by
    rescaling degree_coeffs (dataclasses.replace gives the rescaled
    mixture).  So every such statistic is one row of coefficients over the
    same anchors and weights: evaluate_series maps any number of such rows
    to Chebyshev coefficients (_chebyshev_rows) and sums them over the
    anchors in one sweep (_degree_sums; the standard error sums the odd
    part's square there too).  Query points are checked at one
    tolerance, |norm - 1| <= 1e-8, and weights and degree_coeffs must be
    finite.

    weights is kept as passed when it is already a float array, not copied:
    a DensityEstimate's odd mixture holds the fit's own weights array, and
    a factor common to every anchor (the estimate's 1/N) sits in
    degree_coeffs instead.
    """

    anchors: np.ndarray
    weights: np.ndarray
    degree_coeffs: np.ndarray

    def __post_init__(self):
        self.anchors = _check_on_sphere(self.anchors, tol=1e-8)
        self.weights = _finite(self.weights, "weights")
        if self.weights.shape != (self.anchors.shape[0],):
            raise ValueError("weights must have one entry per anchor")
        self.degree_coeffs = _finite(self.degree_coeffs, "degree_coeffs")
        if self.degree_coeffs.ndim != 1 or not 0 < self.degree_coeffs.size <= MAX_DEGREE + 1:
            raise ValueError(f"degree_coeffs must be a nonempty 1-D array over degrees 0..MAX_DEGREE = {MAX_DEGREE} at most")

    @property
    def dimension(self):
        return self.anchors.shape[1]

    @property
    def max_degree(self):
        return self.degree_coeffs.size - 1

    def is_odd(self):
        """True when only odd degrees carry nonzero coefficients."""
        return not np.any(self.degree_coeffs[::2])

    def evaluate_series(self, points, rows):
        """Evaluate several coefficient rows over these anchors and weights
        in one sweep.

        rows is an (r, k) array whose rows are indexed by degree in the
        degree_coeffs layout, k at most MAX_DEGREE + 1; the rows of
        mixtures that share these anchors and weights, such as a mixture
        and its hemisphere transform, evaluate together.  Returns the
        (r, m) values sum_n rows[:, n] sum_i weights[i] q_n(x_i, b_k) at
        the (m, d) points: _degree_sums of the rows' Chebyshev coefficients
        (_chebyshev_rows), which sweeps only to the highest Chebyshev
        degree some row reads, and each row's values are those it has
        alone.
        """
        pts = _check_on_sphere(points, d=self.dimension, tol=1e-8)
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] > MAX_DEGREE + 1:
            raise ValueError(f"rows must be over degrees 0..MAX_DEGREE = {MAX_DEGREE} at most, got {rows.shape[1]} degrees")
        return _degree_sums(self.anchors, self.weights, pts, _chebyshev_rows(rows, self.dimension))

    def evaluate(self, points):
        """Evaluate the mixture at one point (d,) or a batch (m, d)."""
        (out,) = self.evaluate_series(points, self.degree_coeffs)
        return float(out[0]) if np.ndim(points) == 1 else out

    __call__ = evaluate


def _cheaper_series(mixture, points, rows):
    """mixture.evaluate_series(points, rows), read from the mixture's
    weighted harmonic moments M = sum_i w_i Y(x_i) when those cost less
    (_basis_is_cheaper at the rows' last nonzero degree): by the addition
    theorem sum_i w_i q_n(x_i, b) = sum_{Y of degree n} M_Y Y(b), so each
    row's values are the series of M with that row (_harmonic_series).
    Both routes agree within rounding (about 1e-15 of each row's largest
    value), not bit for bit.  The points are checked as evaluate_series
    checks them, once for both routes, and nothing is kept between calls."""
    pts = _check_on_sphere(points, d=mixture.dimension, tol=1e-8)
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    top = max(_band_length(row) for row in rows) - 1
    if top < 0 or not _basis_is_cheaper(mixture.anchors.shape[0], pts.shape[0], top, mixture.dimension):
        return _degree_sums(mixture.anchors, mixture.weights, pts, _chebyshev_rows(rows, mixture.dimension))
    return _harmonic_series(_harmonic_moments(mixture.anchors, top, mixture.weights), pts, rows)
