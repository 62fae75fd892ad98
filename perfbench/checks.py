"""Output checks applied to every benchmark operation.

Each check returns a list of failure messages (empty when the output is
right).  The checks test invariants of the estimator, not stored reference
values, so a change that moves the estimate (for example a different
covariate-density rule) is not a failure; l2_error tracks accuracy.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-12


def finite(what, values):
    arr = np.asarray(values, dtype=float)
    return [] if np.all(np.isfinite(arr)) else [f"{what}: non-finite values"]


def density(what, values):
    fails = finite(what, values)
    if np.any(np.asarray(values) < 0.0):
        fails.append(f"{what}: negative density")
    return fails


def odd_part(what, odd_values, points):
    """The odd part must be antisymmetric: g(-b) = -g(b)."""
    plus = np.asarray(odd_values(points))
    minus = np.asarray(odd_values(-points))
    fails = finite(what, plus) + finite(what, minus)
    scale = max(1.0, float(np.max(np.abs(plus), initial=0.0)))
    if np.max(np.abs(plus + minus), initial=0.0) > TOL * scale:
        fails.append(f"{what}: odd part is not antisymmetric")
    return fails


def close(what, values, reference):
    """Equal to the reference within TOL relative to its largest magnitude."""
    scale = max(1.0, float(np.max(np.abs(reference), initial=0.0)))
    if np.max(np.abs(np.asarray(values) - reference), initial=0.0) > TOL * scale:
        return [f"{what}: differs by more than {TOL:g}"]
    return []


def diagnostic(what, mass_plus, mass_minus):
    fails = finite(what, [mass_plus, mass_minus])
    if abs(mass_plus + mass_minus) > TOL * max(1.0, abs(mass_plus)):
        fails.append(f"{what}: mass_plus {mass_plus!r} != -mass_minus {mass_minus!r}")
    return fails


def choice_probability(what, evaluate, rows, proba):
    """predict_proba rows sum to 1 and antipodal probabilities sum to 1."""
    fails = finite(what, proba)
    if np.max(np.abs(proba.sum(axis=1) - 1.0), initial=0.0) > TOL:
        fails.append(f"{what}: predict_proba rows do not sum to 1")
    if np.any(proba < 0.0) or np.any(proba > 1.0):
        fails.append(f"{what}: probability outside [0, 1]")
    p = np.asarray(evaluate(rows)) + np.asarray(evaluate(-rows))
    if np.max(np.abs(p - 1.0), initial=0.0) > TOL:
        fails.append(f"{what}: P(x) + P(-x) != 1")
    return fails


def interval(what, lower, upper):
    fails = finite(what, lower) + finite(what, upper)
    if np.any(np.asarray(lower) > np.asarray(upper)):
        fails.append(f"{what}: lower bound above upper bound")
    return fails


def _reject_constant(token):
    raise ValueError(f"JSON contains {token}")


def load_json(path):
    """Parse a JSON file, refusing NaN and infinities."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def l2_distance(values, truth, weights):
    return math.sqrt(float(np.sum(weights * (values - truth) ** 2)))
