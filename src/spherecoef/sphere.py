"""Geometry and integration on the unit sphere S^{d-1}.

Conventions used throughout the package:

* points on S^{d-1} are rows of float arrays of shape (n, d) (or a single
  vector of shape (d,));
* sigma denotes the un-normalized surface measure, so integrating the
  constant 1 gives surface_area(d);
* for the deterministic rules the last coordinate plays the role of the
  polar axis, and the polar integral is split into two panels meeting at
  the equator so that hemispheres centered on the polar axis can be
  integrated without crossing a panel with the discontinuity.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["surface_area", "sample_uniform", "QuadratureRule", "build_quadrature"]


def _integer(value, name, low, high=None):
    """value as an int, for the public integer arguments: an integer in
    [low, high] (no upper bound when high is None), given as an int, a
    numpy integer or an integral float.  Anything else, a bool, NaN, an
    infinity, a fraction or a non-number included, is a ValueError that
    names the argument, worded by its range."""
    try:
        number = int(value)
        # a bool, Python's or numpy's, is an int, but no argument's value
        valid = number == value and not isinstance(value, (bool, np.bool_)) and low <= number and (high is None or number <= high)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if valid:
        return number
    if high is not None:
        kind = f"an integer in [{low}, {high}]"
    else:
        kind = "a nonnegative integer" if low == 0 else f"an integer >= {low}"
    raise ValueError(f"{name} must be {kind}, got {value}")


def _real(value, name, low=-math.inf, high=math.inf):
    """value as a float, for the public real-valued settings: an int, a
    float or a numpy number that is finite and lies in the open interval
    (low, high).  Anything else, a bool, a string, None, NaN, an infinity or
    an int past the largest float included, is a ValueError that names the
    argument, worded by its range."""
    # a bool is a numbers.Real, but no setting's value (numpy's is neither)
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        # the open interval leaves out NaN and both infinities
        if low < number < high:
            return number
    kind = "a finite number" if low == -math.inf else f"a finite number > {low}"
    if high < math.inf:
        kind = f"a number in ({low}, {high})"
    raise ValueError(f"{name} must be {kind}, got {value!r}")


def _finite(values, name):
    """values as a float array, for the public array arguments, after one
    np.isfinite pass: the same object when it already is a float array.  A
    NaN or an infinity is a ValueError that names the argument and its first
    non-finite entry, as in "fx[17] = nan" (for a scalar, "s = inf").  An
    int past the largest float is infinite as a float, and refused too."""
    try:
        array = np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} must be finite, not NaN or infinite: {name} = {values}") from None
    if np.isfinite(array).all():
        return array
    index = tuple(np.argwhere(~np.isfinite(array))[0])
    entry = f"{name}[{', '.join(map(str, index))}]" if index else name
    raise ValueError(f"{name} must be finite, not NaN or infinite: {entry} = {array[index]}")


def surface_area(d):
    """Surface area of S^{d-1}, i.e. 2 pi^{d/2} / Gamma(d/2).

    Parameters
    ----------
    d : int
        Ambient dimension, d >= 1 (d=2 gives the circle, 2*pi; d=1 the
        two points +-1, exactly 2).
    """
    d = _integer(d, "dimension", 1)
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _coarea_factor(k, rho):
    """The coarea factor rho^{k-2} |S^{k-1}| of a slice of a sphere.

    Writing a point of S^{d-1} as (v, rho u), with v the kept block,
    rho = sqrt(1 - |v|^2) and u on the unit sphere S^{k-1} of the k
    integrated coordinates, the surface measure is rho^{k-2} dv dsigma(u)
    (the coarea formula).  So the marginal density of v is
    rho^{k-2} |S^{k-1}| times the mean of the joint density over the
    slice, and this is that factor.
    """
    return surface_area(k) * rho ** (k - 2)


def _normalize(v):
    """Map vectors to the unit sphere, preserving direction.

    Accepts a single vector (d,) or a batch (n, d).  Raises on (near-)zero
    vectors since those have no direction, and on a NaN or infinite
    coordinate (_finite).
    """
    v = _finite(v, "v")
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norms <= 1e-300):
        raise ValueError("cannot normalize a zero vector")
    return v / norms


def _check_on_sphere(points, d=None, tol=1e-12):
    """Validate an array of points as living on S^{d-1}.

    Returns the points as a (n, d) float array.  Raises ValueError when any
    coordinate is NaN or infinite (_finite), the dimension is wrong, or any
    row's norm deviates from 1 by more than tol.
    """
    pts = np.atleast_2d(_finite(points, "points"))
    if pts.ndim != 2:
        raise ValueError(f"expected an (n, d) array of points, got shape {pts.shape}")
    if d is not None and pts.shape[1] != d:
        raise ValueError(f"expected points in R^{d}, got R^{pts.shape[1]}")
    if pts.shape[1] < 2:
        raise ValueError("sphere points need dimension >= 2")
    norms = np.linalg.norm(pts, axis=1)
    worst = np.max(np.abs(norms - 1.0)) if len(norms) else 0.0
    if worst > tol:
        raise ValueError(f"points are not unit vectors (max |norm-1| = {worst:.3e})")
    return pts


def sample_uniform(d, n, seed=None):
    """Draw n independent uniform points on S^{d-1}.

    Uses normalized iid Gaussian vectors; reproducible for a fixed seed.
    """
    d, n = _integer(d, "dimension", 2), _integer(n, "n", 0)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, d))
    # a fresh draw for the (measure-zero) event of an underflowing norm
    bad = np.linalg.norm(g, axis=1) < 1e-12
    while np.any(bad):
        g[bad] = rng.standard_normal((int(np.sum(bad)), d))
        bad = np.linalg.norm(g, axis=1) < 1e-12
    return g / np.linalg.norm(g, axis=1, keepdims=True)


@dataclass
class QuadratureRule:
    """Nodes and weights for integration over S^{d-1} w.r.t. sigma.

    weights sum to surface_area(dimension); integrate(values) expects one
    value per node (or a callable evaluated on the nodes).  Points and
    weights must be finite (_finite).
    """

    points: np.ndarray
    weights: np.ndarray
    dimension: int

    def __post_init__(self):
        self.points = _finite(self.points, "points")
        self.weights = _finite(self.weights, "weights")
        if self.points.ndim != 2 or self.points.shape[1] != self.dimension:
            raise ValueError("points must have shape (n_nodes, dimension)")
        if self.weights.shape != (self.points.shape[0],):
            raise ValueError("weights must have one entry per node")

    @property
    def n_nodes(self):
        return self.points.shape[0]

    def integrate(self, f):
        """Integrate f over the sphere; f is a callable or per-node values."""
        values = np.asarray(f(self.points) if callable(f) else f, dtype=float)
        if values.shape[-1:] != (self.n_nodes,):
            raise ValueError("values must match the number of nodes")
        return values @ self.weights


def _circle_rule(resolution):
    theta = 2.0 * math.pi * np.arange(resolution) / resolution
    points = np.column_stack([np.cos(theta), np.sin(theta)])
    weights = np.full(resolution, 2.0 * math.pi / resolution)
    return points, weights


def _mirrored(t_up, w_up):
    """A rule on the panel [0, 1] and its mirror image on [-1, 0]."""
    return np.concatenate([-t_up[::-1], t_up]), np.concatenate([w_up[::-1], w_up])


def _split_legendre(resolution):
    """Gauss-Legendre nodes/weights for [-1, 1], split at 0 into two panels."""
    x, w = leggauss(max(2, (resolution + 1) // 2))
    return _mirrored((x + 1.0) / 2.0, w / 2.0)


def _split_jacobi_half(resolution):
    """Nodes/weights for int_{-1}^{1} g(t) (1-t^2)^{1/2} dt, split at 0.

    Each panel maps the (1 -/+ t)^{1/2} endpoint factor onto the
    Gauss-Jacobi (alpha = 1/2, beta = 0) weight and folds the remaining
    analytic factor into the node weights, so smooth integrands converge
    geometrically while the equator stays on a panel boundary.  The
    Gauss-Jacobi rule is Golub & Welsch's (1969): the nodes are the
    eigenvalues of the Jacobi matrix, and the weights are the squared first
    eigenvector components times int (1-s)^{1/2} ds = 4 sqrt(2) / 3.
    """
    k = np.arange(max(8, (resolution + 1) // 2), dtype=float)
    j = k[1:]
    off = 2 * j * (j + 0.5) / ((2 * j + 0.5) * np.sqrt((2 * j + 1.5) * (2 * j - 0.5)))
    # eigh reads the lower triangle alone
    s, v = np.linalg.eigh(np.diag(-0.25 / ((2 * k + 0.5) * (2 * k + 2.5))) + np.diag(off, -1))
    w = 4.0 * math.sqrt(2.0) / 3.0 * v[0] ** 2
    return _mirrored((1.0 + s) / 2.0, w * np.sqrt((3.0 + s) / 2.0) / (2.0 * math.sqrt(2.0)))


def _product_rule(d, resolution):
    """Deterministic product rule for d = 3 or 4 (last coordinate = polar)."""
    if d == 3:
        t, wt = _split_legendre(resolution)
        sub_points, sub_weights = _circle_rule(2 * resolution)
    elif d == 4:
        t, wt = _split_jacobi_half(resolution)
        sub = _product_rule(3, resolution)
        sub_points, sub_weights = sub
    else:
        raise ValueError("product quadrature is implemented for d in {3, 4}")
    r = np.sqrt(np.clip(1.0 - t**2, 0.0, None))
    # nodes: (sqrt(1-t^2) * u, t) for every polar node t and sub-sphere node u
    pts = np.empty((t.size, sub_points.shape[0], d))
    pts[:, :, :-1] = r[:, None, None] * sub_points[None, :, :]
    pts[:, :, -1] = t[:, None]
    wts = wt[:, None] * sub_weights[None, :]
    return pts.reshape(-1, d), wts.reshape(-1)


def build_quadrature(d, resolution, seed=None, method="auto"):
    """Build a quadrature rule over S^{d-1}.

    Parameters
    ----------
    d : int
        Ambient dimension (sphere S^{d-1}), d >= 2.
    resolution : int
        Node-count control, >= 4.  d=2 uses `resolution` angles; d=3 uses
        about `resolution` polar nodes times 2*`resolution` azimuths; the
        Monte-Carlo rule uses `resolution` draws.
    seed : int, optional
        Random seed for the Monte-Carlo rule (default 0).  Ignored by the
        deterministic rules.
    method : str
        "auto" (trapezoid for d=2, product for d=3, Monte-Carlo for d>=4),
        or one of "trapezoid", "product", "montecarlo" explicitly.
    """
    d, resolution = _integer(d, "dimension", 2), _integer(resolution, "resolution", 4)

    if method == "auto":
        method = "trapezoid" if d == 2 else ("product" if d == 3 else "montecarlo")

    if method == "trapezoid":
        if d != 2:
            raise ValueError("trapezoid rule is the circle rule (d=2 only)")
        points, weights = _circle_rule(resolution)
    elif method == "product":
        points, weights = _product_rule(d, resolution)
    elif method == "montecarlo":
        points = sample_uniform(d, resolution, seed=0 if seed is None else seed)
        weights = np.full(resolution, surface_area(d) / resolution)
    else:
        raise ValueError(f"unknown quadrature method {method!r}")
    return QuadratureRule(points=points, weights=weights, dimension=d)
