"""Pieces shared by the workloads: traced fit composition, layer probes,
deterministic estimator telemetry, and subprocess launching."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

from spherecoef import gegenbauer, hemisphere
from spherecoef.estimator import estimate_choice_probability, estimate_fbeta, estimate_fx

SERIES_CHUNK = 4_000_000  # cosines per direct series_eval probe (one evaluation chunk)


def traced_fit(tracer, sample, config, choice=False):
    """Fit the way CoefficientDensity.fit composes it, one span per stage."""
    n, d = sample.n_obs, sample.dimension
    with tracer.span("fit"):
        with tracer.span("estimator.estimate_fx"):
            fx = estimate_fx(sample, config.fx_kernel(d))
        with tracer.span("estimator.FxEstimate.evaluate", peak=True, pairs=n * n):
            fx_values = fx(sample.x)
        with tracer.span("estimator.estimate_fbeta"):
            est = estimate_fbeta(sample, config, fx=fx_values)
        if choice:
            with tracer.span("estimator.estimate_choice_probability"):
                estimate_choice_probability(sample, config, fx=est.fx_values)
    return est


def traced_density(tracer, est, points):
    with tracer.span(
        "estimator.DensityEstimate.density", peak=True, pairs=len(points) * est.n_obs
    ):
        return est.density(points)


def hemisphere_probe(tracer, est, quad):
    """The averaged odd part, evaluated on the diagnostic's probe nodes."""
    with tracer.operation("hemisphere.transform", points=quad.n_nodes):
        hemisphere.transform(est.as_mixture()).evaluate(quad.points)


def series_probe(tracer, seed, size):
    """Direct series_eval on one cosine chunk at the covariate-density band
    (degree 10) and the coefficient-density band (degree 5), nu = 1/2."""
    rng = np.random.default_rng(seed)
    cosines = rng.uniform(-1.0, 1.0, size)
    c10, c5 = rng.standard_normal(11), rng.standard_normal(6)
    with tracer.operation("gegenbauer.series_eval", terms=size * (c10.size + c5.size)):
        gegenbauer.series_eval(0.5, c10, cosines)
        gegenbauer.series_eval(0.5, c5, cosines)


def telemetry(ests, grid_values):
    """Trimmed share, Kish effective-sample-size ratio and clipped share,
    pooled over the given estimates and their grid density values."""
    n = sum(e.n_obs for e in ests)
    trimmed = sum(int(np.sum(e.fx_values < e.trimming_floor)) for e in ests)
    ess = sum(float(np.sum(np.abs(e.weights))) ** 2 / float(np.sum(e.weights**2)) for e in ests)
    clipped = sum(int(np.sum(v == 0.0)) for v in grid_values)
    points = sum(len(v) for v in grid_values)
    return {
        "estimator.trimmed_share": trimmed / n,
        "estimator.ess_ratio": ess / n,
        "estimator.clipped_share": clipped / points,
    }


def child_env(src):
    """Environment for subprocesses: the pinned thread counts run.py set in
    os.environ, and the checkout's src/ on the import path."""
    return {**os.environ, "PYTHONPATH": str(src)}


# What the installed `spherecoef` console script runs.
ENTRY_POINT = "import sys; from spherecoef.cli import entry_point; sys.argv[0] = 'spherecoef'; entry_point()"


def run_timed(argv, env, cwd, timeout=150):
    """Run a subprocess to completion; return ((start, end), CompletedProcess)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout
    )
    return (t0, time.perf_counter()), proc


def spherecoef_cmd(*args):
    return [sys.executable, "-c", ENTRY_POINT, *args]
