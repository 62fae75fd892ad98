"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/smoke_check.py

The file name keeps it out of the default test collection, so the
package's own test run does not pay for these subprocess runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layers each workload must exercise (report a nonzero value for).
EXERCISED = {
    "fit-5k": [
        "estimator.estimate_fx.busy_s",
        "estimator.FxEstimate.evaluate.busy_s",
        "estimator.FxEstimate.evaluate.pairs",
        "estimator.FxEstimate.evaluate.peak_mb",
        "estimator.estimate_fbeta.busy_s",
        "estimator.DensityEstimate.density.busy_s",
        "estimator.DensityEstimate.density.pairs",
        "estimator.DensityEstimate.density.peak_mb",
        "estimator.identification_diagnostic.busy_s",
        "sphere.build_quadrature.busy_s",
        "hemisphere.transform.busy_s",
        "gegenbauer.series_eval.busy_s",
        "gegenbauer.series_eval.terms",
        "gegenbauer.series_eval.terms_per_s",
        "simulate.generate.busy_s",
        "simulate.true_fbeta_on_sphere.busy_s",
        "estimator.ess_ratio",
        "estimator.clipped_share",
    ],
    "query-2k": [
        "estimator.FxEstimate.evaluate.busy_s",
        "estimator.FxEstimate.evaluate.pairs",
        "estimator.estimate_choice_probability.busy_s",
        "estimator.DensityEstimate.density.busy_s",
        "estimator.DensityEstimate.density.pairs",
        "estimator.ChoiceProbabilityEstimate.evaluate.busy_s",
        "kernels.HarmonicMixture.evaluate.busy_s",
        "kernels.HarmonicMixture.evaluate.pairs",
        "kernels.HarmonicMixture.evaluate.pairs_per_s",
        "estimator.standard_error.busy_s",
        "estimator.standard_error.points",
        "estimator.confidence_interval.busy_s",
        "estimator.marginal_density.busy_s",
        "gegenbauer.series_eval.busy_s",
        "simulate.generate.busy_s",
        "estimator.ess_ratio",
    ],
    "cli-small": [
        "estimator.FxEstimate.evaluate.busy_s",
        "estimator.DensityEstimate.density.busy_s",
        "estimator.identification_diagnostic.busy_s",
        "sphere.build_quadrature.busy_s",
        "hemisphere.transform.busy_s",
        "simulate.generate.busy_s",
        "simulate.true_fbeta_on_sphere.busy_s",
        "cli.read_sample.busy_s",
        "cli.read_sample.rows",
        "cli.write_sample.busy_s",
        "cli.evaluation_grid.busy_s",
        "import.spherecoef.s",
        "import.spherecoef.cli.s",
        "import.scipy.stats.s",
        "estimator.ess_ratio",
    ],
}


def run(workload, trace):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


def test_benchmark_json_matches_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(EXERCISED)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(EXERCISED))
def test_end_to_end_metrics_emitted(workload):
    result = last_json(run(workload, 0))
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, m["name"]
    assert len(result["metrics"]) == len(SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(EXERCISED))
def test_per_layer_metrics_emitted(workload):
    result = last_json(run(workload, 1))
    assert [*result["metrics"]] == [m["name"] for m in SPEC["per_layer"]]
    for name in EXERCISED[workload]:
        assert result["metrics"][name]["value"] > 0, name
    trace = json.loads((ROOT / ".perfbench_out" / f"trace-{workload}-3.json").read_text())
    spans = trace["spans"]
    assert all({"trace", "id", "parent", "name", "start", "end"} <= set(s) for s in spans)
    assert all(s["parent"] is None or spans[s["parent"]]["trace"] == s["trace"] for s in spans)


def test_refuses_directory_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-5k", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
