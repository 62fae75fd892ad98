"""Independent reference implementations used as test oracles.

Every routine here reaches its value by a different route than the package
code: explicit finite sums instead of recursions, the three-term
recurrence in nu (carried out in 30-digit arithmetic) instead of the
package's Chebyshev recurrence and connection table, 1-D integrals instead
of closed-form products, and a plain-Python transcription of the density
estimator's defining formula.  Nothing in this module imports from
spherecoef, so an agreement between the two sides is evidence, not an
identity check of shared code.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "sphere_area",
    "rising_factorial",
    "gegenbauer_explicit",
    "explicit_eval",
    "gegenbauer_at_one",
    "gegenbauer_recurrence",
    "gegenbauer_series",
    "gegenbauer_at_pairs",
    "gegenbauer_explicit_bound",
    "harmonic_dim",
    "at_one_exact",
    "projector_constants",
    "exact_sphere_rule",
    "halfspace_eigenvalue_1d",
    "halfspace_eigenvalue_closed_form",
    "riesz_weight",
    "filter_weight",
    "zonal_kernel",
    "pair_sums",
    "loo_covariate_density",
    "lscv_score",
    "direct_density_estimate",
    "anchor_terms",
    "mixture_by_terms",
    "z_values",
    "standard_error_long_double",
    "project",
    "transform_by_quadrature",
    "invert_by_laplacian",
    "gaussian_mixture_pdf",
    "pushforward_density",
]


def sphere_area(d):
    """Surface area of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def rising_factorial(a, k):
    """Pochhammer symbol a (a+1) ... (a+k-1) as an explicit product."""
    out = 1.0
    for j in range(int(k)):
        out *= a + j
    return out


def gegenbauer_explicit(nu, n, t):
    """Ultraspherical polynomial value by direct summation.

    Uses the closed-form expansion with a hand-rolled Pochhammer product;
    for the nu = 0 family it returns the renormalized Chebyshev limit
    (2/n) cos(n arccos t) (1 at degree 0).  For nu > 0 the float
    alternating sum loses accuracy fast with the degree: at degree 24 it
    is off by up to 8e-9 (nu = 1/2, values at most 1) and 8e-8 (nu = 1,
    values at most 25) on [-1, 1].  gegenbauer_explicit_bound(nu, n) times
    the machine epsilon bounds that error; compare against it rather than
    a fixed tolerance.
    """
    t = np.asarray(t, dtype=float)
    n = int(n)
    if n == 0:
        return np.ones_like(t) if t.shape else 1.0
    if nu == 0:
        val = (2.0 / n) * np.cos(n * np.arccos(np.clip(t, -1.0, 1.0)))
        return val if t.shape else float(val)
    val = np.zeros_like(t)
    for k in range(n // 2 + 1):
        coeff = (
            (-1.0) ** k
            * rising_factorial(nu, n - k)
            / (math.factorial(k) * math.factorial(n - 2 * k))
        )
        val = val + coeff * (2.0 * t) ** (n - 2 * k)
    return val if t.shape else float(val)


def explicit_eval(nu, n, t):
    """C_n^nu(t) by direct summation, exactly rounded for half-integer nu.

    For half-integer nu > 0 the alternating sum
    sum_l (-1)^l (nu)_{n-l} / (l! (n-2l)!) (2t)^{n-2l} is carried out in
    exact rational arithmetic, by Horner's rule in (2t)^2, so the only
    rounding is the final conversion to float.  Other nu fall back to
    gegenbauer_explicit (the float sum, or the cosine form at nu = 0).
    Degrees above 30 and t outside [-1, 1] are refused.
    """
    t = np.asarray(t, dtype=float)
    if nu < 0 or int(n) != n or not 0 <= n <= 30 or np.any(np.abs(t) > 1.0 + 1e-9):
        raise ValueError(f"explicit_eval takes nu >= 0, degrees 0..30 and t in [-1, 1], got nu={nu}, n={n}")
    t, n = np.clip(t, -1.0, 1.0), int(n)
    if nu == 0 or not float(2 * nu).is_integer():
        return gegenbauer_explicit(nu, n, t)
    nu_frac = Fraction(int(round(2 * nu)), 2)
    coeffs = []
    for l in range(n // 2 + 1):
        rising = Fraction(1)
        for j in range(n - l):
            rising *= nu_frac + j
        coeffs.append((-1) ** l * rising / (math.factorial(l) * math.factorial(n - 2 * l)))
    vals = np.empty(t.shape)
    for i, ti in enumerate(t.ravel()):
        two_t = 2 * Fraction(float(ti))
        square, total = two_t * two_t, Fraction(0)
        for c in coeffs:  # from the top power, l = 0, down
            total = total * square + c
        vals.ravel()[i] = float(total * two_t if n % 2 else total)
    return vals if t.shape else float(vals)


def gegenbauer_recurrence(nu, max_degree, t):
    """Table of C_0^nu(t), ..., C_max_degree^nu(t) by the three-term
    recurrence in nu,

        (m + 2) C_{m+2} = 2 (nu + m + 1) t C_{m+1} - (2 nu + m) C_m,

    from C_0 = 1 and C_1 = 2 nu t, carried out in 30-digit mpmath
    arithmetic on the exact float arguments and rounded once, so the
    table is accurate to the last bit at every degree (in float the
    recurrence drifts: at nu = 0.3 and degree 128 it is off by 3e-13
    C_n(1)).  The nu = 0 family, (2/n) T_n, starts from C_1 = 2t and
    C_2 = 2t^2 - 1 instead, and follows the same recurrence from degree
    3 on.  Entry [n] has t's shape."""
    t = np.asarray(t, dtype=float)
    top = int(max_degree)
    out = np.empty((top + 1, t.size))
    for i, column in enumerate(_recurrence_columns(nu, top, t)):
        out[:, i] = [float(v) for v in column]
    return out.reshape((top + 1,) + t.shape)


def gegenbauer_series(nu, coeffs, t, power=1):
    """(sum_n coeffs[n] C_n^nu(t))^power at each float t, with the
    C_n^nu(t) of gegenbauer_recurrence, the sum and the power all in
    30-digit arithmetic and rounded once."""
    import mpmath

    t = np.asarray(t, dtype=float)
    out = np.empty(t.size)
    with mpmath.workdps(30):
        for i, column in enumerate(_recurrence_columns(nu, len(coeffs) - 1, t)):
            out[i] = float(mpmath.fsum(mpmath.mpf(float(c)) * v for c, v in zip(coeffs, column)) ** power)
    return out.reshape(t.shape)


def gegenbauer_at_pairs(nu, max_degree, x, y):
    """Table [n, i, j] of C_n^nu(t_ij), n = 0..max_degree, at the cosines
    t_ij of the angles between the rows x_i and y_j of two float arrays:
    each cosine taken in 30-digit arithmetic rather than rounded to a float
    (from unit vectors rounded to floats), then gegenbauer_recurrence's
    recurrence, rounded once.  A cosine off by eps alone moves C_n by up
    to n(n + 2 nu)/(2 nu + 1) eps C_n(1), 5e-13 relative at degree 64."""
    import mpmath

    def dot(a, b):
        return mpmath.fsum(mpmath.mpf(float(u)) * mpmath.mpf(float(v)) for u, v in zip(a, b))

    with mpmath.workdps(30):
        cosines = [dot(xi, yj) / mpmath.sqrt(dot(xi, xi) * dot(yj, yj)) for xi in x for yj in y]
    columns = _recurrence_columns(nu, int(max_degree), cosines)
    out = np.array([[float(v) for v in column] for column in columns]).T
    return out.reshape(int(max_degree) + 1, len(x), len(y))


def _recurrence_columns(nu, top, t):
    """One list per entry of t: the 30-digit values C_0^nu, ...,
    C_top^nu there, by gegenbauer_recurrence's recurrence."""
    import mpmath

    columns = []
    with mpmath.workdps(30):
        a = mpmath.mpf(float(nu))
        for ti in np.ravel(t):
            x = mpmath.mpf(ti)
            prev, cur = mpmath.mpf(1), (2 if nu == 0 else 2 * a) * x
            column = [prev, cur]
            for m in range(top - 1):
                if nu == 0 and m == 0:
                    nxt = 2 * x * x - 1
                else:
                    nxt = (2 * (a + m + 1) * x * cur - (2 * a + m) * prev) / (m + 2)
                prev, cur = cur, nxt
                column.append(cur)
            columns.append(column[: top + 1])
    return columns


def gegenbauer_at_one(nu, n):
    """Value of the ultraspherical polynomial at t = 1 (explicit sum)."""
    return float(gegenbauer_explicit(nu, n, np.asarray(1.0)))


def gegenbauer_explicit_bound(nu, n):
    """Sum of the absolute terms of gegenbauer_explicit's expansion at
    |t| = 1.  Times the machine epsilon it bounds that sum's rounding error
    on [-1, 1], which grows quickly with the degree for nu > 0 because the
    terms alternate in sign; the nu = 0 cosine form has no such growth."""
    n = int(n)
    if n == 0 or nu == 0:
        return 2.0
    return sum(
        rising_factorial(nu, n - k) / (math.factorial(k) * math.factorial(n - 2 * k)) * 2.0 ** (n - 2 * k)
        for k in range(n // 2 + 1)
    )


def harmonic_dim(n, d):
    """Dimension of degree-n spherical harmonics on S^{d-1}.

    Computed as the difference of homogeneous-polynomial dimensions
    binom(n+d-1, d-1) - binom(n+d-3, d-1), a different formula than the
    package's sum of two binomials.
    """
    n, d = int(n), int(d)
    if n == 0:
        return 1
    first = math.comb(n + d - 1, d - 1)
    second = math.comb(n + d - 3, d - 1) if n + d - 3 >= d - 1 else 0
    return first - second


def at_one_exact(nu, max_degree):
    """The values C_n^nu(1) for n = 0..max_degree: the rising-factorial
    ratio (2 nu)_n / n!, a product carried out in exact rational arithmetic
    and rounded once (the renormalised 2/n at nu = 0, 1 at degree 0),
    rather than gegenbauer_at_one's alternating sum, which has no correct
    digit left by degree 64."""
    out, at_one = [1.0], Fraction(1)
    for n in range(1, int(max_degree) + 1):
        at_one *= (Fraction(2.0 * nu) + n - 1) / n
        out.append(2.0 / n if nu == 0 else float(at_one))
    return np.array(out)


def projector_constants(max_degree, d):
    """The constants h(n, d) / (|S^{d-1}| C_n(1)) for n = 0..max_degree,
    which turn C_n(x . y) into the zonal projector q_n(x, y), with C_n(1)
    from at_one_exact."""
    at_one = at_one_exact((d - 2) / 2.0, max_degree)
    return np.array([harmonic_dim(n, d) / (sphere_area(d) * at_one[n]) for n in range(int(max_degree) + 1)])


def halfspace_eigenvalue_closed_form(n, d):
    """Hemisphere-transform eigenvalue from its closed form, one degree at
    a time: |S^{d-1}| / 2 at n = 0, 0 at even n >= 2, and at n = 2p + 1
    the loop |S^{d-2}| / (d - 1) times -(2j - 1) / (d + 2j - 1) for
    j = 1..p, the float arithmetic of the package's row carried out per
    degree instead of as one cumulative product."""
    if n == 0:
        return sphere_area(d) / 2.0
    if n % 2 == 0:
        return 0.0
    value = sphere_area(d - 1) / (d - 1)
    for j in range(1, (n - 1) // 2 + 1):
        value *= -(2.0 * j - 1.0) / (d + 2.0 * j - 1.0)
    return value


def exact_sphere_rule(d, degree):
    """Nodes (K, d) and weights (K,) on S^{d-1}, d = 3 or 4, that integrate
    every polynomial of degree <= degree exactly against surface measure.

    The last coordinate t carries the polar factor (1 - t^2)^{(d-3)/2}:
    Gauss-Legendre for d = 3 and Gauss-Chebyshev of the second kind,
    cos(k pi/(m + 1)) with weights pi/(m + 1) sin^2(k pi/(m + 1)), for
    d = 4, each exact to degree 2m - 1 in t.  The slices are the circle's
    degree + 1 equispaced points (d = 3) or this rule on S^2 (d = 4); odd
    powers of sqrt(1 - t^2) come with odd monomials of the slice, which
    the slice rule integrates to zero.
    """
    m = degree // 2 + 1
    if d == 3:
        t, wt = leggauss(m)
        angles = 2.0 * math.pi * np.arange(degree + 1) / (degree + 1)
        sub = np.column_stack([np.cos(angles), np.sin(angles)])
        sub_w = np.full(degree + 1, 2.0 * math.pi / (degree + 1))
    elif d == 4:
        k = np.arange(1, m + 1)
        t = np.cos(k * math.pi / (m + 1))
        wt = math.pi / (m + 1) * np.sin(k * math.pi / (m + 1)) ** 2
        sub, sub_w = exact_sphere_rule(3, degree)
    else:
        raise ValueError(f"exact_sphere_rule takes d = 3 or 4, got {d}")
    r = np.sqrt(1.0 - t**2)
    nodes = np.concatenate([np.column_stack([ri * sub, np.full(len(sub), ti)]) for ri, ti in zip(r, t)])
    return nodes, np.outer(wt, sub_w).ravel()


def halfspace_eigenvalue_1d(n, d, n_nodes=400):
    """Hemisphere-transform eigenvalue by a 1-D polar integral.

    Reduces the integral of the normalized zonal polynomial over a polar
    hemisphere to sphere_area(d-1) * int_0^{pi/2} C(cos h) sin^{d-2} h dh
    and evaluates it with Gauss-Legendre in the angle.  The integrand is
    entire, so a few hundred nodes reach machine precision.
    """
    nu = (d - 2) / 2.0
    x, w = leggauss(int(n_nodes))
    theta = (x + 1.0) * (math.pi / 4.0)
    wt = w * (math.pi / 4.0)
    c = gegenbauer_explicit(nu, n, np.cos(theta)) / gegenbauer_at_one(nu, n)
    lower = sphere_area(d - 1) if d >= 3 else 2.0
    return lower * float(np.sum(wt * c * np.sin(theta) ** (d - 2)))


def riesz_weight(n, cutoff, d, s=2.0, l=3):
    """Smoothed filter weight of the Riesz family, written out directly."""
    zn = n * (n + d - 2)
    zc = cutoff * (cutoff + d - 2)
    return (1.0 - (zn / (zc + 1.0)) ** (s / 2.0)) ** l


def filter_weight(family, n, cutoff, d, s=2.0, l=3):
    """Filter weight chi(n, T) of any of the three families, written out
    directly: 1 (Dirichlet), the Riesz weight, or the delayed-means step
    phi(n/T) = e(2 - 2u) / (e(2 - 2u) + e(2u - 1)) with e(v) = exp(-1/v)
    for v > 0 and 0 otherwise; 0 above the cutoff."""
    if n > cutoff:
        return 0.0
    if family == "dirichlet":
        return 1.0
    if family == "riesz":
        return riesz_weight(n, cutoff, d, s=s, l=l)
    if cutoff == 0:
        return 1.0
    u = n / cutoff

    def e(v):
        return math.exp(-1.0 / v) if v > 0.0 else 0.0

    a, b = e(2.0 - 2.0 * u), e(2.0 * u - 1.0)
    return a / (a + b) if a + b > 0.0 else 0.0


def zonal_kernel(t, family, cutoff, d, s=2.0, l=3):
    """Filtered kernel K_T at cosine(s) t: the sum over degrees n <= T of
    chi(n, T) h(n, d) C_n(t) / (|S^{d-1}| C_n(1)), term by term."""
    nu = (d - 2) / 2.0
    t = np.asarray(t, dtype=float)
    total = np.zeros_like(t)
    for n, constant in enumerate(projector_constants(cutoff, d)):
        w = filter_weight(family, n, cutoff, d, s=s, l=l)
        if w != 0.0:
            total = total + w * constant * gegenbauer_explicit(nu, n, t)
    return total


def pair_sums(x, max_degree):
    """S[n, i] = sum over all j (j = i included) of C_n(x_i . x_j) for
    n = 0..max_degree, by a loop over observations and degrees with the
    explicit polynomial."""
    x = np.asarray(x, dtype=float)
    n_obs, d = x.shape
    nu = (d - 2) / 2.0
    out = np.zeros((max_degree + 1, n_obs))
    for i in range(n_obs):
        t = np.clip(x @ x[i], -1.0, 1.0)
        for n in range(max_degree + 1):
            out[n, i] = float(np.sum(gegenbauer_explicit(nu, n, t)))
    return out


def loo_covariate_density(x, family, cutoff, s=2.0, l=3):
    """Leave-one-out kernel density f_{T,-i}(x_i): the mean of K_T(x_i . x_j)
    over the other observations j."""
    x = np.asarray(x, dtype=float)
    n_obs, d = x.shape
    out = np.empty(n_obs)
    for i in range(n_obs):
        t = np.clip(np.delete(x, i, axis=0) @ x[i], -1.0, 1.0)
        out[i] = float(np.mean(zonal_kernel(t, family, cutoff, d, s=s, l=l)))
    return out


def lscv_score(x, family, cutoff, nodes, node_weights, s=2.0, l=3):
    """Least-squares cross-validation score of the kernel density at band T:
    the quadrature integral of f_T^2 over the given nodes and weights, minus
    twice the mean leave-one-out value at the observations."""
    x = np.asarray(x, dtype=float)
    d = x.shape[1]
    cosines = np.clip(np.asarray(nodes, dtype=float) @ x.T, -1.0, 1.0)
    f = np.mean(zonal_kernel(cosines, family, cutoff, d, s=s, l=l), axis=1)
    loo = loo_covariate_density(x, family, cutoff, s=s, l=l)
    return float(np.sum(np.asarray(node_weights) * f**2)) - 2.0 * float(np.mean(loo))


def direct_density_estimate(y, x, b, fx_values, truncation, s=2.0, l=3,
                            trimming_exponent=2.0):
    """Plain-loop transcription of the coefficient-density estimator.

    Returns (odd_part, density) at the single sphere point b for a binary
    sample (y, x) and given covariate-density values at the observations.
    Everything - weights, filter, eigenvalues, zonal polynomials - is
    computed inside this function from first principles.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    n_obs, d = x.shape
    nu = (d - 2) / 2.0
    area = sphere_area(d)
    floor = math.log(n_obs) ** (-trimming_exponent)
    cutoff = 2 * truncation

    gammas = {
        m: riesz_weight(m, cutoff, d, s=s, l=l)
        * harmonic_dim(m, d)
        / (halfspace_eigenvalue_1d(m, d) * gegenbauer_at_one(nu, m) * area)
        for m in range(1, 2 * truncation, 2)
    }
    odd = 0.0
    for i in range(n_obs):
        w_i = (2.0 * y[i] - 1.0) / max(float(fx_values[i]), floor)
        t = float(np.clip(np.dot(x[i], b), -1.0, 1.0))
        acc = 0.0
        for m, gamma in gammas.items():
            acc += gamma * gegenbauer_explicit(nu, m, np.asarray(t))
        odd += w_i * acc
    odd /= n_obs
    return odd, (2.0 * odd if odd > 0.0 else 0.0)


def anchor_terms(mixture, points):
    """A HarmonicMixture's (m, N) table of per-anchor terms at (m, d)
    points (or one point), T[k, i] = sum_n c_n h(n, d) C_n(x_i . b_k) /
    (|S^{d-1}| C_n(1)) over the mixture's coefficients c_n.
    C_n(t) / C_n(1) is cos(n arccos t) for d = 2 and scipy's Gegenbauer
    polynomial over the rising factorial (2 nu)_n / n! otherwise.  Reads
    only the mixture's dimension, anchors and degree_coeffs."""
    from scipy.special import eval_gegenbauer

    d = mixture.dimension
    nu = (d - 2) / 2.0
    pts = _unit_rows(points, d)
    t = np.clip(pts @ np.asarray(mixture.anchors).T, -1.0, 1.0)
    terms = np.zeros_like(t)
    for n, c in enumerate(mixture.degree_coeffs):
        if nu == 0:
            ratio = np.cos(n * np.arccos(t))
        else:
            ratio = eval_gegenbauer(n, nu, t) * (math.factorial(n) / rising_factorial(2.0 * nu, n))
        terms += (c * harmonic_dim(n, d) / sphere_area(d)) * ratio
    return terms


def mixture_by_terms(mixture, points):
    """A HarmonicMixture's value at (m, d) points (or one point) by the
    per-anchor route: anchor_terms(mixture, points) @ weights."""
    out = anchor_terms(mixture, points) @ np.asarray(mixture.weights)
    return float(out[0]) if np.ndim(points) == 1 else out


def z_values(fit, point):
    """Per-observation summands Z_i = N T_i w_i of a density fit at one
    point b, with T its odd mixture's anchor_terms: its odd part there is
    their mean, (1/N) sum_i Z_i(b), and its density twice that where
    positive.  Reads the fit's odd, weights and n_obs."""
    return fit.n_obs * anchor_terms(fit.odd, point)[0] * np.asarray(fit.weights)


def standard_error_long_double(fit, points):
    """2 sd(Z_i(b)), ddof = 1, of a density fit's per-observation summands
    at (m, d) points, with the (m, N) table of anchor_terms formed and
    reduced in long double: cosines from the float inputs, C_n(t) / C_n(1)
    by the three-term recurrence in nu (the Chebyshev one for d = 2), and
    a two-pass variance.  Where long double is double, it is only a
    double-precision reference."""
    ld = np.longdouble
    d, n_obs = fit.dimension, fit.n_obs
    pts = _unit_rows(points, d).astype(ld)
    t = np.clip(pts @ np.asarray(fit.anchors, dtype=ld).T, -1, 1)
    nu = ld(d - 2) / 2
    # C_{n-1} and C_n at t and at 1, from C_0 = 1 and C_1 = 2 nu t (T_1 = t)
    prev, cur = np.ones_like(t), (t if nu == 0 else 2 * nu * t)
    prev_one, cur_one = ld(1), (ld(1) if nu == 0 else 2 * nu)
    terms = np.zeros_like(t)
    for n, c in enumerate(fit.odd.degree_coeffs):
        if n >= 2:
            a, b = (ld(2), ld(1)) if nu == 0 else (2 * (n - 1 + nu) / n, (n + 2 * nu - 2) / n)
            prev, cur = cur, a * t * cur - b * prev
            prev_one, cur_one = cur_one, a * cur_one - b * prev_one
        ratio = prev / prev_one if n == 0 else cur / cur_one
        terms += ld(c) * harmonic_dim(n, d) / ld(sphere_area(d)) * ratio
    z = n_obs * terms * np.asarray(fit.weights, dtype=ld)
    centred = z - z.mean(axis=1, keepdims=True)
    return (2 * np.sqrt((centred * centred).sum(axis=1) / (n_obs - 1))).astype(float)


def _unit_rows(x, d):
    """x as an (m, d) array, refusing any row that is not a unit vector."""
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    if xs.shape[1] != d or not np.all(np.abs(np.linalg.norm(xs, axis=1) - 1.0) <= 1e-12):
        raise ValueError(f"expected unit vectors in R^{d}")
    return xs


def project(f, n, quad, x):
    """Projection of f onto degree-n harmonics at x by quadrature: the
    weighted sum over the nodes b of f(b) h(n, d) C_n(x . b) / (|S^{d-1}|
    C_n(1)).  f may be a callable on sphere points or per-node values."""
    d = quad.dimension
    nu = (d - 2) / 2.0
    values = f(quad.points) if callable(f) else np.asarray(f, dtype=float)
    scale = projector_constants(n, d)[n]
    out = np.array([
        float(np.sum(quad.weights * values * scale
                     * gegenbauer_explicit(nu, n, np.clip(quad.points @ xi, -1.0, 1.0))))
        for xi in _unit_rows(x, d)
    ])
    return float(out[0]) if np.ndim(x) == 1 else out


def transform_by_quadrature(f, x, quad):
    """Hemisphere integral of f at direction(s) x by direct quadrature: the
    sum of f over the nodes in {b : x . b >= 0}.  Nodes on the boundary
    circle (|x . b| at most 1e-12) get half weight, the symmetric convention
    for a jump sitting exactly on a node.  f may be a callable or per-node
    values."""
    values = f(quad.points) if callable(f) else np.asarray(f, dtype=float)
    out = np.empty(np.atleast_2d(x).shape[0])
    for i, xi in enumerate(_unit_rows(x, quad.dimension)):
        dots = quad.points @ xi
        side = np.where(dots > 1e-12, 1.0, 0.0)
        side[np.abs(dots) <= 1e-12] = 0.5
        out[i] = np.sum(quad.weights * side * values)
    return float(out[0]) if np.ndim(x) == 1 else out


def invert_by_laplacian(degree_coeffs, d):
    """Invert the hemisphere operator on a coefficient row indexed by degree,
    zero at every even degree, through the polynomial-in-Laplacian route
    (d a multiple of 4).

    For d divisible by 4 the reciprocal eigenvalue on degree n = 2p+1 equals

        (-1)^p prod_{k=1}^{d/4} [zeta_{n,d} + 2(k-1)(d-2k)]
        / (|S^{d-2}| (d-3)!!),

    a polynomial in the Laplace-Beltrami eigenvalue zeta_{n,d} = n(n+d-2)
    with an alternating sign per odd eigenspace: independent of the
    double-factorial-ratio route of the package's hemisphere.eigenvalues.
    Returns the inverted coefficients as a new row, zero at even degrees.
    """
    if d % 4 != 0:
        raise ValueError(f"the differential route needs d divisible by 4, got {d}")
    dfact = 1
    m = d - 3
    while m > 1:
        dfact *= m
        m -= 2
    out = np.zeros(len(degree_coeffs))
    for n, c in enumerate(degree_coeffs):
        if n % 2 == 0:
            if c != 0.0:
                raise ValueError(f"the operator is only invertible on odd degrees, got {n}")
            continue
        zeta = float(n * (n + d - 2))
        prod = 1.0
        for k in range(1, d // 4 + 1):
            prod *= zeta + 2.0 * (k - 1) * (d - 2 * k)
        out[n] = c * (-1.0) ** ((n - 1) // 2) * prod / (sphere_area(d - 1) * dfact)
    return out


def gaussian_mixture_pdf(point, weights, means, covs):
    """Mixture-of-Gaussians density written out with explicit linear algebra."""
    point = np.asarray(point, dtype=float)
    total = 0.0
    for w, mu, cov in zip(weights, means, covs):
        mu = np.asarray(mu, dtype=float)
        cov = np.asarray(cov, dtype=float)
        diff = point - mu
        quad = float(diff @ np.linalg.solve(cov, diff))
        norm = math.sqrt((2.0 * math.pi) ** mu.size * np.linalg.det(cov))
        total += w * math.exp(-0.5 * quad) / norm
    return total


def pushforward_density(coef_pdf, b, fixed_value=1.0):
    """Density on the sphere of the normalized coefficient vector.

    The random vector is (G, v) in R^d with G ~ coef_pdf on R^{d-1} and a
    constant last coordinate v > 0; b is a unit vector.  On {b_d > 0} the
    change of variables G = v * b_tilde / b_d gives

        f(b) = coef_pdf(v * b_tilde / b_d) * v^{d-1} / b_d^d,

    and f vanishes on the closed lower half.  A deliberately different
    algebraic arrangement from the package's (1 + |u|^2)^{d/2} form.
    """
    b = np.asarray(b, dtype=float)
    d = b.size
    pivot = float(b[-1])
    if pivot <= 1e-12:
        return 0.0
    g = fixed_value * b[:-1] / pivot
    return float(coef_pdf(g)) * fixed_value ** (d - 1) / pivot**d
