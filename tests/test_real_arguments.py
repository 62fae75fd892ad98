"""Every public real-valued setting is checked the same way (sphere._real):
an int, a float or a numpy number that is finite and in range is taken as
the float, and anything else is a ValueError whose first word is the
argument's name, the word the CLI maps to a config line."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from spherecoef import estimator, kernels, simulate

_FAMILIES = ("riesz", "dirichlet", "delayed_means")


@functools.lru_cache(maxsize=None)
def _fit():
    return estimator.estimate_fbeta(simulate.generate(simulate.DgpSpec.model_1(n_obs=60, seed=1)).sample)


def _config(name, family="riesz"):
    def call(value):
        # delayed_means filters only power-of-two bands
        config = estimator.EstimatorConfig(truncation=4, fx_truncation=8, family=family, **{name: value})
        return np.array([config.trimming_exponent, config.s, config.l])

    return call


def _kernel(name, family):
    return lambda value: kernels.KernelSpec(family, 4, 3, **{name: value}).chi()


def _dgp(fixed_value):
    spec = dataclasses.replace(simulate.DgpSpec.model_1(n_obs=20, seed=1), fixed_value=fixed_value)
    return simulate.generate(spec).sample.x


def _interval(level):
    return np.array(estimator.confidence_interval(_fit(), [0.0, 0.0, 1.0], level=level))


# (argument, the name its refusal gives, a call taking the value, a valid
# value, a value out of range or None where every finite number is valid)
_ARGUMENTS = [
    ("EstimatorConfig.trimming_exponent", "trimming_exponent", _config("trimming_exponent"), 2.0, 0),
    *((f"EstimatorConfig.s.{f}", "s", _config("s", f), 2.0, 0 if f == "riesz" else None) for f in _FAMILIES),
    *((f"EstimatorConfig.l.{f}", "l", _config("l", f), 3, 0 if f == "riesz" else None) for f in _FAMILIES),
    *((f"KernelSpec.s.{f}", "s", _kernel("s", f), 2.0, 0 if f == "riesz" else None) for f in _FAMILIES),
    # a riesz l must exceed (d-2)/2, and d = 3 here
    *((f"KernelSpec.l.{f}", "l", _kernel("l", f), 3, 0 if f == "riesz" else None) for f in _FAMILIES),
    ("DgpSpec.fixed_value", "fixed_value", _dgp, 1.5, 0),
    ("confidence_interval.level", "level", _interval, 0.9, 1),
]


@pytest.mark.parametrize("argument, name, call, valid, out_of_range", _ARGUMENTS, ids=[a[0] for a in _ARGUMENTS])
def test_real_arguments_refuse_non_numbers_and_non_finite_values_by_name(argument, name, call, valid, out_of_range):
    """A bool (Python's or numpy's), a string, None, NaN, +-inf, an int past
    the largest float and a value out of range are each a ValueError whose
    first word is the name (not a bare TypeError, a bool read as 1, a
    string stored, or an OverflowError later); np.float64 gives what the
    valid value gives."""
    bads = [True, np.True_, "3", None, math.nan, math.inf, -math.inf, 10**400]
    for bad in bads + ([] if out_of_range is None else [out_of_range]):
        with pytest.raises(ValueError) as refused:
            call(bad)
        assert str(refused.value).startswith(f"{name} must be "), (bad, str(refused.value))
    assert np.array_equal(call(np.float64(valid)), call(valid))


def test_each_range_has_its_wording():
    """No bound, a lower bound, and both bounds."""
    for call, message in (
        (_kernel("s", "dirichlet"), "s must be a finite number, got inf"),
        (_config("trimming_exponent"), "trimming_exponent must be a finite number > 0, got inf"),
        (_interval, "level must be a number in (0, 1), got inf"),
        (_dgp, "fixed_value must be a finite number > 0, got inf"),
    ):
        with pytest.raises(ValueError) as refused:
            call(math.inf)
        assert str(refused.value) == message
    with pytest.raises(ValueError) as refused:
        kernels.KernelSpec("dirichlet", 4, 3, l="3")
    assert str(refused.value) == "l must be a finite number, got '3'"


def test_real_settings_are_stored_as_floats():
    """s and trimming_exponent as floats; a riesz l as an int, and any
    other KernelSpec l as a float."""
    config = estimator.EstimatorConfig(trimming_exponent=np.int64(2), s=np.float32(1.5), l=3.0)
    assert (config.trimming_exponent, config.s, config.l) == (2.0, 1.5, 3)
    assert [type(v) for v in (config.trimming_exponent, config.s, config.l)] == [float, float, int]
    for family, kind in (("riesz", int), ("dirichlet", float), ("delayed_means", float)):
        spec = kernels.KernelSpec(family, 4, 3, s=2, l=np.int64(3))
        assert (type(spec.s), type(spec.l)) == (float, kind)
    assert type(dataclasses.replace(simulate.DgpSpec.model_1(), fixed_value=2).fixed_value) is float
