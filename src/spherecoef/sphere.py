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
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "surface_area",
    "coarea_factor",
    "normalize",
    "sample_uniform",
    "check_on_sphere",
    "QuadratureRule",
    "build_quadrature",
]


def surface_area(d):
    """Surface area of S^{d-1}, i.e. 2 pi^{d/2} / Gamma(d/2).

    Parameters
    ----------
    d : int
        Ambient dimension, d >= 2 (d=2 gives the circle, 2*pi).
    """
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d}")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def coarea_factor(k, rho):
    """The coarea factor rho^{k-2} |S^{k-1}| of a slice of a sphere.

    Writing a point of S^{d-1} as (v, rho u), with v the kept block,
    rho = sqrt(1 - |v|^2) and u on the unit sphere S^{k-1} of the k
    integrated coordinates, the surface measure is rho^{k-2} dv dsigma(u)
    (the coarea formula).  So the marginal density of v is
    rho^{k-2} |S^{k-1}| times the mean of the joint density over the
    slice, and this is that factor; |S^0| = 2 (the two points +-1).
    """
    if int(k) != k or k < 1:
        raise ValueError(f"slice dimension must be an integer >= 1, got {k}")
    return rho ** (k - 2) * (2.0 if k == 1 else surface_area(k))


def normalize(v):
    """Map vectors to the unit sphere, preserving direction.

    Accepts a single vector (d,) or a batch (n, d).  Raises on (near-)zero
    vectors since those have no direction.
    """
    v = np.asarray(v, dtype=float)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norms <= 1e-300):
        raise ValueError("cannot normalize a zero vector")
    return v / norms


def check_on_sphere(points, d=None, tol=1e-12):
    """Validate an array of points as living on S^{d-1}.

    Returns the points as a (n, d) float array.  Raises ValueError when the
    dimension is wrong, any coordinate is NaN or infinite, or any row's
    norm deviates from 1 by more than tol.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2:
        raise ValueError(f"expected an (n, d) array of points, got shape {pts.shape}")
    if d is not None and pts.shape[1] != d:
        raise ValueError(f"expected points in R^{d}, got R^{pts.shape[1]}")
    if pts.shape[1] < 2:
        raise ValueError("sphere points need dimension >= 2")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain NaN or infinite coordinates")
    norms = np.linalg.norm(pts, axis=1)
    worst = np.max(np.abs(norms - 1.0)) if len(norms) else 0.0
    if worst > tol:
        raise ValueError(f"points are not unit vectors (max |norm-1| = {worst:.3e})")
    return pts


def sample_uniform(d, n, seed=None):
    """Draw n independent uniform points on S^{d-1}.

    Uses normalized iid Gaussian vectors; reproducible for a fixed seed.
    """
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d}")
    if n < 0:
        raise ValueError("n must be nonnegative")
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
    value per node (or a callable evaluated on the nodes).
    """

    points: np.ndarray
    weights: np.ndarray
    dimension: int
    method: str = "custom"

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != self.dimension:
            raise ValueError("points must have shape (n_nodes, dimension)")
        if self.weights.shape != (self.points.shape[0],):
            raise ValueError("weights must have one entry per node")

    @property
    def n_nodes(self):
        return self.points.shape[0]

    def integrate(self, f):
        """Integrate f over the sphere; f is a callable or per-node values."""
        values = f(self.points) if callable(f) else np.asarray(f, dtype=float)
        if values.shape[-1] != self.n_nodes:
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
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d}")
    if int(resolution) != resolution or resolution < 4:
        raise ValueError(f"resolution must be an integer >= 4, got {resolution}")
    d = int(d)
    resolution = int(resolution)

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
    return QuadratureRule(points=points, weights=weights, dimension=d, method=method)
