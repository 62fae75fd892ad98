"""Synthetic data generators for the binary choice model.

Draws (y, x) from y = 1{x_raw' beta_raw >= 0} with x_raw = (1, Xt) for a
Gaussian covariate block Xt and beta_raw = (G, v) for a Gaussian-mixture
coefficient block G and a fixed positive last coordinate v.  Both vectors
are scale-normalized onto the unit sphere, which puts the coefficient
direction in the open hemisphere {b_d > 0} and the covariate direction in
{x_1 > 0}.  Exact sphere densities of both normalized vectors are
available in closed form through the central-projection change of
variables, which is what the accuracy benchmarks compare against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .estimator import ChoiceSample
from .sphere import _finite, _integer, _real

__all__ = [
    "GaussianMixture",
    "DgpSpec",
    "SimulationDraw",
    "generate",
    "true_fx_on_sphere",
    "true_fbeta_on_sphere",
]


def _cholesky(covs, name):
    """Lower Cholesky factors of a covariance or a stack of them.

    Refuses a covariance that is not finite (ValueError) or not positive
    definite (numpy's LinAlgError, itself a ValueError), each message
    beginning with name.
    """
    covs = _finite(covs, name)
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(f"{name} is not positive definite") from None


def _gaussian_pdf(points, mean, factor):
    """Density of N(mean, L L') at points of shape (..., m), L = factor.

    Forward substitution solves L z = points - mean one coordinate at a
    time; the density is exp(-|z|^2 / 2) / ((2 pi)^(m/2) prod diag L).
    """
    diff = np.asarray(points, dtype=float) - mean
    m = factor.shape[0]
    z = np.empty_like(diff)
    for i in range(m):
        z[..., i] = (diff[..., i] - z[..., :i] @ factor[i, :i]) / factor[i, i]
    log_norm = 0.5 * m * math.log(2.0 * math.pi) + np.log(np.diag(factor)).sum()
    return np.exp(-0.5 * np.einsum("...i,...i->...", z, z) - log_norm)


@dataclass
class GaussianMixture:
    """Finite mixture of full-covariance Gaussians on R^m.

    A refusal begins with the argument at fault.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        self.weights = _finite(self.weights, "weights")
        self.means = np.atleast_2d(_finite(self.means, "means"))
        self.covs = np.asarray(self.covs, dtype=float)
        if self.covs.ndim == 2:
            self.covs = self.covs[None, :, :]
        if self.means.ndim != 2:
            raise ValueError(f"means must be one mean or a (k, m) array of them, got shape {self.means.shape}")
        k, m = self.means.shape
        if self.weights.shape != (k,):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match {k} components"
            )
        if self.covs.shape != (k, m, m):
            raise ValueError(
                f"covs shape {self.covs.shape}, expected ({k}, {m}, {m})"
            )
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        total = self.weights.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")
        self.weights = self.weights / total
        self._factors = _cholesky(self.covs, "covs")

    @property
    def dim(self):
        return self.means.shape[1]

    def pdf(self, points):
        """Mixture density at points of shape (..., m)."""
        points = np.asarray(points, dtype=float)
        out = self.weights[0] * _gaussian_pdf(points, self.means[0], self._factors[0])
        for w, mu, factor in zip(self.weights[1:], self.means[1:], self._factors[1:]):
            out = out + w * _gaussian_pdf(points, mu, factor)
        return out

    def sample(self, n, rng=None):
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        labels = rng.choice(self.weights.size, size=n, p=self.weights)
        out = np.empty((n, self.dim))
        for j in range(self.weights.size):
            idx = labels == j
            cnt = int(idx.sum())
            if cnt:
                out[idx] = rng.multivariate_normal(self.means[j], self.covs[j], size=cnt)
        return out


@dataclass
class DgpSpec:
    """Full description of one synthetic design.

    dimension counts the sphere coordinates (intercept included), so the
    covariate block and the random coefficient block each have dimension-1
    components; fixed_value is the constant, strictly positive last raw
    coefficient that pins the coefficient vector to one hemisphere.  A
    refusal begins with the argument at fault.
    """

    dimension: int
    n_obs: int
    coefficients: GaussianMixture
    covariate_mean: np.ndarray
    covariate_cov: np.ndarray
    seed: int | None = None
    fixed_value: float = 1.0

    def __post_init__(self):
        self.dimension = _integer(self.dimension, "dimension", 2)
        self.n_obs = _integer(self.n_obs, "n_obs", 1)
        m = self.dimension - 1
        if self.coefficients.dim != m:
            raise ValueError(
                f"dimension {self.dimension} needs coefficients on R^{m}, "
                f"got a mixture on R^{self.coefficients.dim}"
            )
        self.covariate_mean = _finite(self.covariate_mean, "covariate_mean")
        self.covariate_cov = np.asarray(self.covariate_cov, dtype=float)
        if self.covariate_mean.shape != (m,):
            raise ValueError(
                f"covariate_mean shape {self.covariate_mean.shape}, expected ({m},)"
            )
        if self.covariate_cov.shape != (m, m):
            raise ValueError(
                f"covariate_cov shape {self.covariate_cov.shape}, expected ({m}, {m})"
            )
        _cholesky(self.covariate_cov, "covariate_cov")
        self.fixed_value = _real(self.fixed_value, "fixed_value", 0)
        try:
            math.pow(self.fixed_value, self.dimension - 1)
        except OverflowError:
            raise ValueError(
                f"fixed_value = {self.fixed_value} overflows fixed_value^(dimension - 1), "
                f"the true density's scale factor"
            ) from None

    @classmethod
    def model_1(cls, n_obs=500, seed=0):
        """Unimodal benchmark design on S^2: one centered Gaussian."""
        mix = GaussianMixture(
            weights=[1.0], means=[[0.0, 0.0]], covs=0.3 * np.eye(2)
        )
        return cls(
            dimension=3,
            n_obs=n_obs,
            coefficients=mix,
            covariate_mean=np.zeros(2),
            covariate_cov=2.0 * np.eye(2),
            seed=seed,
        )

    @classmethod
    def model_2(cls, n_obs=500, seed=0):
        """Bimodal benchmark design on S^2: two correlated Gaussians."""
        cov = 0.3 * np.array([[1.0, 0.5], [0.5, 1.0]])
        mix = GaussianMixture(
            weights=[0.5, 0.5],
            means=[[0.7, -0.7], [-0.7, 0.7]],
            covs=np.stack([cov, cov]),
        )
        return cls(
            dimension=3,
            n_obs=n_obs,
            coefficients=mix,
            covariate_mean=np.zeros(2),
            covariate_cov=2.0 * np.eye(2),
            seed=seed,
        )


@dataclass
class SimulationDraw:
    """One realized dataset plus the latent draws behind it."""

    sample: ChoiceSample
    covariates: np.ndarray
    raw_coefficients: np.ndarray


def generate(spec):
    """Draw one dataset from the design.

    Refuses (ValueError) a design whose draws overflow a float: a covariate
    draw too long to normalize, or a latent index x_raw'beta_raw that is
    not finite.  The message names the [model] setting at fault.
    """
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n_obs, spec.dimension
    xt = rng.multivariate_normal(spec.covariate_mean, spec.covariate_cov, size=n)
    if xt.ndim == 1:
        xt = xt[:, None]
    g = spec.coefficients.sample(n, rng)
    x_raw = np.column_stack([np.ones(n), xt])
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(x_raw, axis=1, keepdims=True)
        fixed = spec.fixed_value * xt[:, d - 2]
        index = g[:, 0] + (xt[:, : d - 2] * g[:, 1:]).sum(axis=1) + fixed
    if not np.all(np.isfinite(norms)):
        raise ValueError("covariate_mean or covariate_cov is too large: covariate draws overflow a float")
    if not np.all(np.isfinite(fixed)):
        raise ValueError(f"fixed_value = {spec.fixed_value} times a covariate draw overflows a float")
    if not np.all(np.isfinite(index)):
        raise ValueError("mixture_means or mixture_covs is too large: the latent index x'beta overflows a float")
    y = (index >= 0.0).astype(np.int64)
    x = x_raw / norms
    return SimulationDraw(sample=ChoiceSample(y=y, x=x), covariates=xt, raw_coefficients=g)


def _pushforward_values(pdf, pivot, others, d, scale=1.0):
    """Sphere density of a scale-normalized vector with a positive pivot coordinate.

    If the non-pivot block has density pdf and the pivot equals scale, the
    normalized vector has sphere density
    pdf(scale * w) * scale^(d-1) * (1 + |w|^2)^(d/2) at w = others / pivot,
    and zero off the pivot > 0 hemisphere.
    """
    out = np.zeros(pivot.shape)
    ok = pivot > 1e-100
    if not np.any(ok):
        return out
    w = others[ok] / pivot[ok, None]
    s = 1.0 + np.einsum("ij,ij->i", w, w)
    # a scale far from 1 can overflow scale * w; the density is 0 there
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.asarray(pdf(scale * w), dtype=float)
        vals = np.where(base > 0.0, base * s ** (d / 2.0) * scale ** (d - 1), 0.0)
    out[ok] = vals
    return out


def _as_sphere_points(points, d):
    pts = _finite(points, "points")
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != d:
        raise ValueError(f"points have {pts.shape[1]} coordinates, expected {d}")
    return pts, single


def true_fx_on_sphere(spec, points):
    """Exact sphere density of the normalized covariate direction."""
    pts, single = _as_sphere_points(points, spec.dimension)
    pdf = functools.partial(
        _gaussian_pdf, mean=spec.covariate_mean, factor=_cholesky(spec.covariate_cov, "covariate_cov")
    )
    vals = _pushforward_values(pdf, pts[:, 0], pts[:, 1:], spec.dimension)
    return float(vals[0]) if single else vals


def true_fbeta_on_sphere(spec, points):
    """Exact sphere density of the normalized coefficient direction."""
    pts, single = _as_sphere_points(points, spec.dimension)
    vals = _pushforward_values(
        spec.coefficients.pdf,
        pts[:, -1],
        pts[:, :-1],
        spec.dimension,
        scale=spec.fixed_value,
    )
    return float(vals[0]) if single else vals
