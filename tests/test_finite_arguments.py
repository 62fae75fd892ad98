"""Every public array argument is checked for finiteness the same way
(sphere._finite): NaN, +inf and -inf are each a ValueError that names the
argument and its first non-finite entry."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from spherecoef import estimator, gegenbauer, kernels, simulate, sphere


@functools.lru_cache(maxsize=None)
def _fit():
    return estimator.estimate_fbeta(simulate.generate(simulate.DgpSpec.model_1(n_obs=60, seed=1)).sample)


def _mixture(weights=(0.5, 0.5), means=((0.2, -0.1), (-0.3, 0.4)), covs=(np.eye(2), 0.5 * np.eye(2))):
    mix = simulate.GaussianMixture(weights=weights, means=means, covs=covs)
    return np.concatenate([mix.weights, mix.means.ravel(), mix.pdf(np.zeros((3, 2)))])


def _dgp(covariate_mean=(0.1, 0.2), covariate_cov=((2.0, 0.3), (0.3, 1.0))):
    mix = simulate.GaussianMixture(weights=[1.0], means=[[0.0, 0.0]], covs=[0.3 * np.eye(2)])
    spec = simulate.DgpSpec(dimension=3, n_obs=20, coefficients=mix, covariate_mean=covariate_mean,
                            covariate_cov=covariate_cov, seed=1)
    return simulate.generate(spec).sample.x


_ANCHORS = sphere.sample_uniform(3, 4, seed=2)
_POINTS = sphere.sample_uniform(3, 5, seed=3)
_QUAD = sphere.build_quadrature(3, 8)


def _config(name):
    return lambda value: dataclasses.astuple(estimator.EstimatorConfig(**{name: value}))


# (argument, the name its refusal gives, a call taking the value, a valid
# value, the entry made non-finite: the first of two, or () for a scalar)
_ARGUMENTS = [
    ("check_on_sphere.points", "points", sphere.check_on_sphere, _POINTS, (1, 2)),
    ("HarmonicMixture.weights", "weights",
     lambda w: kernels.HarmonicMixture(_ANCHORS, w, [0.0, 1.0, 0.0, 0.5]).evaluate(_POINTS), np.ones(4), (1,)),
    ("HarmonicMixture.degree_coeffs", "degree_coeffs",
     lambda c: kernels.HarmonicMixture(_ANCHORS, np.ones(4), c).evaluate(_POINTS), np.array([0.0, 1.0, 0.0, 0.5]),
     (2,)),
    ("estimate_fbeta.fx", "fx",
     lambda fx: estimator.estimate_fbeta(_fit().sample, fx=fx).density(_POINTS), np.full(60, 0.1), (17,)),
    ("marginal_density.values", "values",
     lambda v: estimator.marginal_density(_fit().density, [0, 1], v, dimension=3), np.array([0.1, 0.2]), (1,)),
    ("EstimatorConfig.s", "s", _config("s"), 2.0, ()),
    ("EstimatorConfig.l", "l", _config("l"), 3.0, ()),
    ("series_eval.coeffs", "coeffs",
     lambda c: gegenbauer.series_eval(0.5, c, np.linspace(-1.0, 1.0, 7)), np.array([1.0, 0.5, 0.25]), (1,)),
    ("GaussianMixture.weights", "weights", lambda w: _mixture(weights=w), np.array([0.5, 0.5]), (0,)),
    ("GaussianMixture.means", "means", lambda m: _mixture(means=m), np.array([[0.2, -0.1], [-0.3, 0.4]]), (0, 1)),
    ("GaussianMixture.covs", "covs", lambda c: _mixture(covs=c), np.stack([np.eye(2), 0.5 * np.eye(2)]), (1, 0, 1)),
    ("DgpSpec.covariate_mean", "covariate_mean", lambda m: _dgp(covariate_mean=m), np.array([0.1, 0.2]), (0,)),
    ("DgpSpec.covariate_cov", "covariate_cov",
     lambda c: _dgp(covariate_cov=c), np.array([[2.0, 0.3], [0.3, 1.0]]), (0, 1)),
    ("QuadratureRule.points", "points",
     lambda p: sphere.QuadratureRule(p, _QUAD.weights, 3).integrate(np.ones(_QUAD.n_nodes)), _QUAD.points, (5, 0)),
    ("QuadratureRule.weights", "weights",
     lambda w: sphere.QuadratureRule(_QUAD.points, w, 3).integrate(np.ones(_QUAD.n_nodes)), _QUAD.weights, (9,)),
    ("normalize.v", "v", sphere.normalize, np.array([[3.0, 4.0, 0.0], [1.0, 1.0, 1.0]]), (1, 0)),
    ("true_fx_on_sphere.points", "points",
     lambda p: simulate.true_fx_on_sphere(simulate.DgpSpec.model_1(), p), _POINTS, (0, 1)),
    ("true_fbeta_on_sphere.points", "points",
     lambda p: simulate.true_fbeta_on_sphere(simulate.DgpSpec.model_1(), p), _POINTS, (3, 2)),
]


def _with(valid, index, bad):
    """valid with bad at index and at its last entry (bad for a scalar)."""
    if not index:
        return bad
    values = np.array(valid, dtype=float)
    values.flat[-1] = values[index] = bad
    return values


@pytest.mark.parametrize("argument, name, call, valid, index", _ARGUMENTS, ids=[a[0] for a in _ARGUMENTS])
def test_array_arguments_refuse_nans_and_infinities_by_name_and_entry(argument, name, call, valid, index):
    """NaN, +inf and -inf are each refused before any work, in one wording
    that names the argument and its first non-finite entry (not numpy's
    "Probabilities contain NaN", a wrong key's "too large", a zero density
    or NaNs); the valid value gives the same result as a list."""
    entry = f"{name}[{', '.join(map(str, index))}]" if index else name
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as refused:
            call(_with(valid, index, bad))
        assert str(refused.value) == f"{name} must be finite, not NaN or infinite: {entry} = {bad}"
    expected = call(valid)
    same = np.asarray(valid).tolist()
    assert np.array_equal(call(same), expected)


def test_finite_float_arrays_pass_through_uncopied():
    """A float array comes back as the same object, so that a mixture holds
    the weights array it is given; anything else is converted once."""
    values = np.linspace(0.0, 1.0, 5)
    assert sphere._finite(values, "values") is values
    assert sphere._finite([1, 2], "values").dtype == float
    weights = values[:4]
    assert kernels.HarmonicMixture(_ANCHORS, weights, [0.0, 1.0]).weights is weights

