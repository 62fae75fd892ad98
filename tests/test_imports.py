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
    # scipy is imported only inside the two functions that call it
    # (confidence_interval and the d = 4 product quadrature).
    assert _scipy_and_masked(loaded) == []
    # The package still imports its CLI; dropping it from __init__ is a
    # separate decision, pinned here so that it is made on purpose.
    assert "spherecoef.cli" in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "{data}", "--grid-res", "6"],
        ["bench", "--threads", "1", "--config", "{bench_ini}"],
    ],
    ids=["estimate", "bench"],
)
def test_cli_commands_leave_scipy_unloaded(tmp_path, argv):
    data = str(tmp_path / "data.csv")
    ini = tmp_path / "m.ini"
    ini.write_text("[model]\nn_obs = 60\n")
    assert cli.main(["simulate", "--config", str(ini), "--out", data, "--seed", "1"]) == 0
    bench_ini = tmp_path / "bench.ini"
    bench_ini.write_text("[bench]\nn_grid = 60 120\nreplications = 1\nresolution = 8\n")
    args = [a.format(data=data, bench_ini=bench_ini) for a in argv]
    args += ["--out", str(tmp_path / "out.csv")]
    loaded = _modules_after(f"from spherecoef import cli\nassert cli.main({args!r}) == 0")
    assert _scipy_and_masked(loaded) == []


def test_confidence_interval_loads_scipy_special():
    loaded = _modules_after(
        "from spherecoef import estimator, simulate\n"
        "sample = simulate.generate(simulate.DgpSpec.model_1(n_obs=60, seed=1)).sample\n"
        "est = estimator.estimate_fbeta(sample, estimator.EstimatorConfig())\n"
        "estimator.confidence_interval(est, [0.0, 0.0, 1.0])"
    )
    assert "scipy.special" in loaded


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
    from spherecoef import estimator
    from spherecoef.kernels import HarmonicMixture
    from spherecoef.simulate import SimulationDraw

    assert not hasattr(estimator.ChoiceProbabilityEstimate, "coefficient_odd_part")
    assert not hasattr(SimulationDraw, "true_fx") and not hasattr(SimulationDraw, "true_fbeta")
    fields = {f.name for f in dataclasses.fields(estimator.FxSelfEvaluation)}
    assert fields == {"bands", "scores", "band", "loo_values"}
    removed_params = [
        (HarmonicMixture.terms, "chunk_size"),
        (HarmonicMixture.evaluate_series, "chunk_size"),
        (HarmonicMixture.evaluate, "chunk_size"),
        (estimator._self_sums, "budget"),
        (estimator._pair_sums, "budget"),
        (estimator._system_sums, "budget"),
        (estimator.identification_diagnostic, "rel_threshold"),
    ]
    assert [p for f, p in removed_params if p in inspect.signature(f).parameters] == []
