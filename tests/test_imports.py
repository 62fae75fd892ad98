"""What importing and running the package loads, checked in fresh interpreters."""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spherecoef
from spherecoef import cli

SRC = str(Path(spherecoef.__file__).resolve().parents[1])


def _modules_after(statement):
    """Names in sys.modules after running statement in a new interpreter."""
    code = f"import sys\n{statement}\nprint('\\n'.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def _scipy_and_masked(loaded):
    """The scipy and numpy.ma modules among loaded names, sorted."""
    return sorted(
        name
        for name in loaded
        if name.split(".")[0] == "scipy" or name == "numpy.ma" or name.startswith("numpy.ma.")
    )


@pytest.mark.parametrize("statement", ["import spherecoef", "import spherecoef.cli"])
def test_import_leaves_scipy_stats_unloaded(statement):
    loaded = _modules_after(statement)
    # scipy is a test-only dependency: no runtime path imports it.
    assert _scipy_and_masked(loaded) == []
    # The package still imports its CLI; dropping it from __init__ is a
    # separate decision, pinned here so that it is made on purpose.
    assert "spherecoef.cli" in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "{ini}"],
        ["estimate", "{data}", "--grid-res", "6"],
        ["diagnose", "{data}"],
        ["bench", "--threads", "1", "--config", "{bench_ini}"],
    ],
    ids=["simulate", "estimate", "diagnose", "bench"],
)
def test_cli_commands_leave_scipy_unloaded(tmp_path, argv):
    data = str(tmp_path / "data.csv")
    ini = tmp_path / "m.ini"
    ini.write_text("[model]\nn_obs = 60\n")
    assert cli.main(["simulate", "--config", str(ini), "--out", data, "--seed", "1"]) == 0
    bench_ini = tmp_path / "bench.ini"
    bench_ini.write_text("[bench]\nn_grid = 60 120\nreplications = 1\nresolution = 8\n")
    args = [a.format(data=data, ini=ini, bench_ini=bench_ini) for a in argv]
    args += ["--out", str(tmp_path / "out.csv")]
    loaded = _modules_after(f"from spherecoef import cli\nassert cli.main({args!r}) == 0")
    assert _scipy_and_masked(loaded) == []


def test_interval_and_d4_product_rule_leave_scipy_unloaded():
    loaded = _modules_after(
        "from spherecoef import estimator, simulate, sphere\n"
        "sample = simulate.generate(simulate.DgpSpec.model_1(n_obs=60, seed=1)).sample\n"
        "est = estimator.estimate_fbeta(sample, estimator.EstimatorConfig())\n"
        "estimator.confidence_interval(est, [0.0, 0.0, 1.0])\n"
        "sphere.build_quadrature(4, 16, method='product')"
    )
    assert _scipy_and_masked(loaded) == []


_MODULES = ["cli", "estimator", "gegenbauer", "hemisphere", "kernels", "simulate", "sphere"]

# Names deleted from the runtime package, by the module that held them.
_REMOVED = {
    "kernels": [
        "kernel_eval",
        "kernel_odd_eval",
        "_series_coeffs",
        "chi_weight",
        "chi_weights",
        "projector_kernel",
        "laplacian_eigenvalue",
    ],
    "hemisphere": ["invert_by_laplacian"],
    "gegenbauer": ["eval_all"],
    "sphere": ["angle_between"],
    "estimator": ["SELF_SUMS_BLOCK", "fx_self_evaluation", "FxSelfEvaluation", "_leave_in_values"],
}


@pytest.mark.parametrize("name", ["spherecoef"] + [f"spherecoef.{m}" for m in _MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_removed_names_are_gone():
    reachable = [
        f"{where}.{attr}"
        for module, names in _REMOVED.items()
        for attr in names
        for where in ("spherecoef", f"spherecoef.{module}")
        if hasattr(importlib.import_module(where), attr)
    ]
    assert reachable == []
    from spherecoef import estimator, kernels
    from spherecoef.kernels import HarmonicMixture
    from spherecoef.simulate import SimulationDraw

    assert not hasattr(estimator.ChoiceProbabilityEstimate, "coefficient_odd_part")
    assert not hasattr(SimulationDraw, "true_fx") and not hasattr(SimulationDraw, "true_fbeta")
    # weights and trimming_floor are read from the mixture and the config
    fields = {f.name for f in dataclasses.fields(estimator.DensityEstimate)}
    assert fields == {"odd", "config", "fx_values", "fx_band", "sample"}
    assert not hasattr(estimator.DensityEstimate, "kernel")
    assert not hasattr(estimator.DensityEstimate, "z_values")
    # a mixture is its anchors, weights and one coefficient row; its
    # dimension is read from the anchors
    assert [f.name for f in dataclasses.fields(HarmonicMixture)] == ["anchors", "weights", "degree_coeffs"]
    assert not hasattr(HarmonicMixture, "degrees") and not hasattr(HarmonicMixture, "with_degree_coeffs")
    removed_params = [
        (HarmonicMixture.terms, "chunk_size"),
        (HarmonicMixture.evaluate_series, "chunk_size"),
        (HarmonicMixture.evaluate, "chunk_size"),
        (estimator._self_sums, "budget"),
        (estimator._pair_sums, "budget"),
        (estimator._system_sums, "budget"),
        (estimator._self_sums, "nu"),
        (estimator._pair_sums, "nu"),
        (estimator._system_sums, "nu"),
        (kernels.degree_sums, "nu"),
        (estimator.identification_diagnostic, "rel_threshold"),
    ]
    assert [p for f, p in removed_params if p in inspect.signature(f).parameters] == []
