"""Every public integer argument is checked the same way (sphere._integer):
an int, a numpy integer or an integral float is taken as the int, and
anything else is a ValueError that names the argument."""

import dataclasses
import functools
import math
import re

import numpy as np
import pytest

from spherecoef import estimator, gegenbauer, hemisphere, kernels, simulate, sphere


@functools.lru_cache(maxsize=None)
def _fit():
    return estimator.estimate_fbeta(simulate.generate(simulate.DgpSpec.model_1(n_obs=60, seed=1)).sample)


def _dgp(dimension=4, n_obs=20):
    m = 3
    mix = simulate.GaussianMixture(weights=[1.0], means=[np.zeros(m)], covs=[0.3 * np.eye(m)])
    spec = simulate.DgpSpec(dimension=dimension, n_obs=n_obs, coefficients=mix,
                            covariate_mean=np.zeros(m), covariate_cov=np.eye(m), seed=1)
    return simulate.generate(spec).sample.x


def _diagnostic(resolution):
    report = estimator.identification_diagnostic(_fit(), resolution=resolution)
    return np.concatenate([report.axis, [report.mass_plus, report.violation_score]])


# (argument, the name its refusal gives, a call taking the value, a valid value)
_ARGUMENTS = [
    ("eigenspace_dim.n", "degree", lambda k: kernels.eigenspace_dim(k, 3), 4),
    ("eigenspace_dim.d", "dimension", lambda k: kernels.eigenspace_dim(2, k), 4),
    ("projector_diagonal.max_degree", "degree", lambda k: kernels.projector_diagonal(k, 3), 4),
    ("projector_diagonal.d", "dimension", lambda k: kernels.projector_diagonal(4, k), 4),
    ("KernelSpec.degree", "degree", lambda k: kernels.KernelSpec("riesz", k, 3).chi(), 4),
    ("KernelSpec.dimension", "dimension", lambda k: kernels.KernelSpec("riesz", 4, k).chi(), 4),
    ("EstimatorConfig.truncation", "truncation",
     lambda k: dataclasses.astuple(estimator.EstimatorConfig(truncation=k)), 4),
    ("EstimatorConfig.fx_truncation", "fx_truncation",
     lambda k: dataclasses.astuple(estimator.EstimatorConfig(fx_truncation=k)), 4),
    ("DgpSpec.dimension", "dimension", lambda k: _dgp(dimension=k), 4),
    ("DgpSpec.n_obs", "n_obs", lambda k: _dgp(n_obs=k), 4),
    ("sample_uniform.d", "dimension", lambda k: sphere.sample_uniform(k, 5, seed=1), 4),
    ("sample_uniform.n", "n", lambda k: sphere.sample_uniform(3, k, seed=1), 4),
    ("surface_area.d", "dimension", sphere.surface_area, 4),
    ("build_quadrature.d", "dimension", lambda k: sphere.build_quadrature(k, 8).points, 4),
    ("build_quadrature.resolution", "resolution", lambda k: sphere.build_quadrature(3, k).points, 4),
    ("identification_diagnostic.resolution", "resolution", _diagnostic, 4),
    ("eigenvalues.max_degree", "degree", lambda k: hemisphere.eigenvalues(k, 3), 4),
    ("eigenvalues.d", "dimension", lambda k: hemisphere.eigenvalues(4, k), 4),
    ("connection.top", "top", lambda k: gegenbauer.connection(0.5, k), 4),
    ("chebyshev.top", "top",
     lambda k: np.array([v.copy() for v in gegenbauer.chebyshev(k, np.linspace(-1.0, 1.0, 5))]), 4),
    ("marginal_density.dimension", "dimension",
     lambda k: estimator.marginal_density(lambda p: p[:, -1] ** 2, [0], [0.3], dimension=k), 4),
]


@pytest.mark.parametrize("argument, name, call, valid", _ARGUMENTS, ids=[a[0] for a in _ARGUMENTS])
def test_integer_arguments_refuse_bools_nans_infinities_and_fractions_by_name(argument, name, call, valid):
    """True, NaN, +-inf and 4.5 are each a ValueError naming the argument
    (not int()'s OverflowError or unnamed ValueError, and not a bool read
    as 1 or a fraction truncated to 4); np.int64(k) and float(k) give what
    k gives."""
    for bad in (True, math.nan, math.inf, -math.inf, 4.5):
        with pytest.raises(ValueError) as refused:
            call(bad)
        assert re.search(rf"\b{name}\b", str(refused.value)), (bad, str(refused.value))
    expected = call(valid)
    for same in (np.int64(valid), float(valid)):
        assert np.array_equal(call(same), expected)
