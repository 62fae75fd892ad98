"""Tests for the command-line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecoef import cli
from spherecoef.estimator import FX_CV_MAX_BAND, EstimatorConfig, estimate_fbeta
from spherecoef.simulate import DgpSpec, generate


def _write(path, text):
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------ config


def test_load_config_defaults():
    cfg = cli.load_config(None)
    assert cfg["model"]["preset"] == "model_1"
    assert cfg["model"]["n_obs"] == "500"
    assert cfg["estimator"]["truncation"] == "3"
    assert cfg["estimator"]["family"] == "riesz"
    assert cfg["estimator"]["fx_truncation"] == "10"
    assert cfg["grid"]["resolution"] == "24"
    assert cfg["run"]["seed"] == "0"
    assert cfg["bench"]["replications"] == "50"


def test_load_config_overrides_and_rejects(tmp_path):
    good = _write(tmp_path / "good.ini", "[model]\nn_obs = 64\n")
    cfg = cli.load_config(good)
    assert cfg["model"]["n_obs"] == "64"
    assert cfg["model"]["preset"] == "model_1"  # defaults survive
    with pytest.raises(cli.CliError):
        cli.load_config(_write(tmp_path / "bad1.ini", "[models]\nn_obs = 3\n"))
    with pytest.raises(cli.CliError):
        cli.load_config(_write(tmp_path / "bad2.ini", "[model]\nnobs = 3\n"))
    with pytest.raises(cli.CliError):
        cli.load_config(str(tmp_path / "missing.ini"))
    for key in ("truncation_rule", "rate_constant"):  # the retired rate rule's keys
        with pytest.raises(cli.CliError, match=f"^unknown config key '{key}'"):
            cli.load_config(_write(tmp_path / "retired.ini", f"[estimator]\n{key} = 1\n"))


def test_build_dgp_presets_and_custom():
    cfg = cli.load_config(None)
    spec = cli.build_dgp(cfg["model"], n_obs=77, seed=4)
    assert spec.n_obs == 77 and spec.seed == 4 and spec.dimension == 3
    custom = dict(cfg["model"])
    custom.update(
        preset="custom",
        dimension="3",
        covariate_mean="0 0",
        covariate_cov="1 0; 0 1",
        mixture_weights="0.5 0.5",
        mixture_means="0.5 -0.5; -0.5 0.5",
        mixture_covs="0.2 0; 0 0.2 | 0.2 0; 0 0.2",
        fixed_value="1.5",
    )
    spec2 = cli.build_dgp(custom, n_obs=10, seed=1)
    assert spec2.fixed_value == 1.5
    assert np.allclose(spec2.coefficients.means, [[0.5, -0.5], [-0.5, 0.5]])
    bad = dict(custom)
    bad["mixture_weights"] = "0.5 0.9"
    with pytest.raises(cli.CliError):
        cli.build_dgp(bad, n_obs=10, seed=1)


def test_resolve_estimator_config_rules():
    cfg = cli.load_config(None)
    assert cli.resolve_estimator_config(cfg["estimator"]) == EstimatorConfig()
    tuned = dict(cfg["estimator"], truncation="4", family="dirichlet", fx_truncation="8")
    want = EstimatorConfig(truncation=4, family="dirichlet", fx_truncation=8)
    assert cli.resolve_estimator_config(tuned) == want
    with pytest.raises(cli.CliError, match="^truncation must be an integer"):
        cli.resolve_estimator_config(dict(tuned, truncation="2.5"))


def test_evaluation_grid_shapes(tmp_path):
    g2 = cli.evaluation_grid(2, 8)
    assert g2.shape == (8, 2)
    g3 = cli.evaluation_grid(3, 6)
    assert g3.shape == (6 * 12, 3)
    assert np.allclose(np.linalg.norm(g3, axis=1), 1.0, atol=1e-12)
    with pytest.raises(cli.CliError):
        cli.evaluation_grid(4, 8)
    pts = _write(tmp_path / "pts.csv", "0,0,0,1\n0,0,1,0\n")
    g4 = cli.evaluation_grid(4, 8, points_file=pts)
    assert g4.shape == (2, 4)


# ------------------------------------------------------------- sample files


def test_sample_round_trip_lossless(tmp_path):
    draw = generate(DgpSpec.model_1(n_obs=40, seed=2))
    path = str(tmp_path / "sample.csv")
    cli.write_sample(draw.sample, path)
    back = cli.read_sample(path)
    assert np.array_equal(back.y, draw.sample.y)
    assert np.array_equal(back.x, draw.sample.x)  # bit-for-bit at 17 digits


def test_read_sample_error_reporting(tmp_path):
    bad_header = _write(tmp_path / "h.csv", "y,x0\n1,1.0\n")
    with pytest.raises(cli.CliError, match="line 1"):
        cli.read_sample(bad_header)
    bad_row = _write(tmp_path / "r.csv", "y,x0,x1\n1,0.6,0.8\n1,oops,0.0\n")
    with pytest.raises(cli.CliError, match="line 3"):
        cli.read_sample(bad_row)
    short_row = _write(tmp_path / "s.csv", "y,x0,x1\n1,0.6\n")
    with pytest.raises(cli.CliError, match="line 2"):
        cli.read_sample(short_row)
    zero_row = _write(tmp_path / "z.csv", "y,x0,x1\n1,0.0,0.0\n")
    with pytest.raises(cli.CliError):
        cli.read_sample(zero_row)


def test_read_sample_renormalizes_with_warning(tmp_path, capsys):
    path = _write(tmp_path / "n.csv", "y,x0,x1\n1,0.6001,0.8\n0,1.0,0.0\n")
    sample = cli.read_sample(path)
    assert np.allclose(np.linalg.norm(sample.x, axis=1), 1.0, atol=1e-15)
    assert "renormalized" in capsys.readouterr().err


# ---------------------------------------------------------------- commands


def test_simulate_deterministic_output(tmp_path):
    out1, out2, out3 = (str(tmp_path / f"s{i}.csv") for i in (1, 2, 3))
    assert cli.main(["simulate", "--out", out1, "--seed", "5"]) == 0
    assert cli.main(["simulate", "--out", out2, "--seed", "5"]) == 0
    assert cli.main(["simulate", "--out", out3, "--seed", "6"]) == 0
    b1, b2, b3 = (Path(p).read_bytes() for p in (out1, out2, out3))
    assert b1 == b2  # byte-identical across runs with the same seed
    assert b1 != b3
    first = b1.decode().splitlines()
    assert first[0] == "y,x0,x1,x2"
    assert len(first) == 501


def test_estimate_outputs_grid_and_report(tmp_path):
    data = str(tmp_path / "data.csv")
    ini = _write(tmp_path / "cfg.ini", "[model]\nn_obs = 200\n")
    assert cli.main(["simulate", "--config", ini, "--out", data, "--seed", "1"]) == 0
    out = str(tmp_path / "fit.csv")
    assert cli.main(["estimate", data, "--out", out, "--grid-res", "6"]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "b0,b1,b2,density"
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert table.shape == (72, 4)
    assert np.all(table[:, 3] >= 0.0)
    report = json.loads(Path(out + ".report.json").read_text())
    assert report["grid_points"] == 72
    assert report["config"]["truncation"] == 3
    diag = report["diagnostic"]
    assert set(diag) >= {
        "axis",
        "hemisphere_mass_plus",
        "violation_score",
        "target_mass",
    }
    assert diag["target_mass"] == pytest.approx(1.0 / (8.0 * np.pi), rel=1e-12)


def test_estimate_report_says_how_the_weights_were_formed(tmp_path):
    """The report's weights block matches the in-process fit of the same
    data, and two runs with the same (config, seed) write byte-identical
    reports."""
    data = str(tmp_path / "data.csv")
    ini = _write(tmp_path / "cfg.ini", "[model]\nn_obs = 300\n")
    assert cli.main(["simulate", "--config", ini, "--out", data, "--seed", "5"]) == 0
    outs = [str(tmp_path / f"fit{k}.csv") for k in (1, 2)]
    for out in outs:
        assert cli.main(["estimate", data, "--out", out, "--grid-res", "6"]) == 0
    texts = [Path(out + ".report.json").read_bytes() for out in outs]
    assert texts[0] == texts[1]
    weights = json.loads(texts[0])["weights"]
    est = estimate_fbeta(cli.read_sample(data), EstimatorConfig())
    w = est.weights
    trimmed = int(np.sum(est.fx_values < est.trimming_floor))
    assert weights["trimmed_count"] == trimmed
    assert weights["trimmed_share"] == trimmed / 300
    assert weights["ess_ratio"] == pytest.approx(np.sum(np.abs(w)) ** 2 / (300 * np.sum(w**2)), rel=1e-14)
    assert 0.0 < weights["ess_ratio"] <= 1.0
    assert weights["max_abs_weight"] == np.max(np.abs(w))
    assert weights["fx_band"] == 10
    assert weights["lscv_band"] == est.inference.fx_band
    assert weights["lscv_band_at_cap"] == (est.inference.fx_band == FX_CV_MAX_BAND)


def test_estimate_with_points_file(tmp_path):
    data = str(tmp_path / "data.csv")
    ini = _write(tmp_path / "cfg.ini", "[model]\nn_obs = 120\n")
    assert cli.main(["simulate", "--config", ini, "--out", data]) == 0
    pts = _write(tmp_path / "pts.csv", "0,0,1\n0,1,0\n1,0,0\n")
    ini2 = _write(
        tmp_path / "cfg2.ini",
        f"[model]\nn_obs = 120\n[grid]\npoints_file = {pts}\n",
    )
    out = str(tmp_path / "fit.csv")
    assert cli.main(["estimate", data, "--config", ini2, "--out", out]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert table.shape == (3, 4)


def test_utf8_byte_order_mark_is_skipped(tmp_path):
    """A sample and a points file saved with a UTF-8 byte-order mark, as
    spreadsheet programs write "CSV UTF-8", give the same grid and report,
    byte for byte, as the plain files."""
    data = str(tmp_path / "data.csv")
    ini = _write(tmp_path / "cfg.ini", "[model]\nn_obs = 120\n")
    assert cli.main(["simulate", "--config", ini, "--out", data, "--seed", "2"]) == 0
    bom_data = tmp_path / "bom.csv"
    bom_data.write_bytes(b"\xef\xbb\xbf" + Path(data).read_bytes())
    points = "0,0,1\n0,1,0\n1,0,0\n"
    outs = []
    for name, sample, prefix in (("plain", data, b""), ("bom", str(bom_data), b"\xef\xbb\xbf")):
        pts = tmp_path / f"{name}-pts.csv"
        pts.write_bytes(prefix + points.encode())
        cfg = _write(tmp_path / f"{name}.ini", f"[grid]\npoints_file = {pts}\n")
        out = str(tmp_path / f"{name}-grid.csv")
        assert cli.main(["estimate", sample, "--config", cfg, "--out", out]) == 0
        outs.append(out)
    for suffix in ("", ".report.json"):
        assert Path(outs[0] + suffix).read_bytes() == Path(outs[1] + suffix).read_bytes()


def test_diagnose_prints_and_writes(tmp_path, capsys):
    data = str(tmp_path / "data.csv")
    ini = _write(tmp_path / "cfg.ini", "[model]\nn_obs = 300\n")
    assert cli.main(["simulate", "--config", ini, "--out", data, "--seed", "3"]) == 0
    rep = str(tmp_path / "diag.json")
    assert cli.main(["diagnose", data, "--out", rep, "--grid-res", "16"]) == 0
    text = capsys.readouterr().out
    assert "violation score" in text
    saved = json.loads(Path(rep).read_text())
    assert "violation_score" in saved and "axis" in saved
    assert len(saved["axis"]) == 3


def test_estimate_and_diagnose_share_the_diagnostic_report(tmp_path):
    data = str(tmp_path / "data.csv")
    ini = _write(tmp_path / "cfg.ini", "[model]\nn_obs = 150\n")
    assert cli.main(["simulate", "--config", ini, "--out", data, "--seed", "4"]) == 0
    out, rep = str(tmp_path / "fit.csv"), str(tmp_path / "diag.json")
    assert cli.main(["estimate", data, "--out", out, "--grid-res", "4"]) == 0
    assert cli.main(["diagnose", data, "--out", rep]) == 0
    estimated = json.loads(Path(out + ".report.json").read_text())
    diagnosed = json.loads(Path(rep).read_text())
    assert diagnosed.pop("config") == estimated["config"]
    assert diagnosed == estimated["diagnostic"]


def test_estimate_rejects_non_finite_field(tmp_path, capsys):
    data = str(tmp_path / "data.csv")
    ini = _write(tmp_path / "cfg.ini", "[model]\nn_obs = 30\n")
    assert cli.main(["simulate", "--config", ini, "--out", data, "--seed", "2"]) == 0
    lines = Path(data).read_text().splitlines()
    for bad in ("nan", "inf"):
        holed = list(lines)
        holed[5] = holed[5].rsplit(",", 1)[0] + "," + bad
        path = _write(tmp_path / f"{bad}.csv", "\n".join(holed) + "\n")
        out = tmp_path / f"{bad}-grid.csv"
        assert cli.main(["estimate", path, "--out", str(out)]) == 2
        assert "line 6" in capsys.readouterr().err
        assert not out.exists()


def test_bench_writes_errors_and_slope(tmp_path):
    ini = _write(
        tmp_path / "bench.ini",
        "[bench]\nn_grid = 60 120\nreplications = 2\nresolution = 8\n",
    )
    out = str(tmp_path / "bench.csv")
    assert cli.main(["bench", "--config", ini, "--out", out, "--seed", "0"]) == 0
    rows = Path(out).read_text().splitlines()
    assert rows[0] == "n_obs,replication,l1,l2,linf"
    assert len(rows) == 5
    report = json.loads(Path(out + ".report.json").read_text())
    assert set(report["median_l2"]) == {"60", "120"}
    assert "l2_slope" in report
    # deterministic re-run
    out2 = str(tmp_path / "bench2.csv")
    assert cli.main(["bench", "--config", ini, "--out", out2, "--seed", "0"]) == 0
    assert Path(out).read_text().split("\n", 1)[1] == Path(out2).read_text().split("\n", 1)[1]


def _fresh_cli(args):
    """Run python -W error -m spherecoef with args in a new interpreter,
    with one BLAS thread."""
    src = str(Path(cli.__file__).resolve().parents[1])
    threads = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "spherecoef", *args],
        env={**os.environ, **threads, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_python_m_spherecoef_runs_the_cli_without_warnings(tmp_path):
    """python -m spherecoef runs the command line with warnings as errors
    (python -m spherecoef.cli trips runpy's RuntimeWarning, because the
    package imports its cli): exit 0, nothing on stderr, and the CSV that
    cli.main writes."""
    out, ref = tmp_path / "m.csv", tmp_path / "ref.csv"
    done = _fresh_cli(["simulate", "--seed", "1", "--out", str(out)])
    assert done.returncode == 0 and done.stderr == ""
    assert cli.main(["simulate", "--seed", "1", "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


_TINY_BENCH = "[bench]\nn_grid = 40 80\nreplications = 2\nresolution = 8\n"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--threads 2 needs two CPUs")
def test_bench_tables_and_reports_do_not_depend_on_threads(tmp_path):
    """bench --threads 1 in this process and --threads 2 in a new one write
    byte-identical tables and reports: the workers start with other
    cached fundamental systems than this process, and the self-sums' path
    rule does not read that cache."""
    ini = _write(tmp_path / "tiny.ini", "[model]\nn_obs = 120\n" + _TINY_BENCH)
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert cli.main(["bench", "--threads", "1", "--config", ini, "--seed", "3", "--out", str(one)]) == 0
    done = _fresh_cli(["bench", "--threads", "2", "--config", ini, "--seed", "3", "--out", str(two)])
    assert done.returncode == 0, done.stderr
    for suffix in ("", ".report.json"):
        assert Path(f"{one}{suffix}").read_bytes() == Path(f"{two}{suffix}").read_bytes()


def test_circle_estimate_is_byte_identical_across_runs(tmp_path):
    """A d = 2 custom model (the circle's own recursion branch, and the
    fundamental system at every N) writes the same grid and report in a
    new interpreter as in this one."""
    ini = _write(
        tmp_path / "circle.ini",
        "[model]\npreset = custom\ndimension = 2\nn_obs = 120\ncovariate_mean = 0\n"
        "covariate_cov = 2\nmixture_weights = 1\nmixture_means = 0\nmixture_covs = 0.3\n",
    )
    data = str(tmp_path / "sample.csv")
    assert cli.main(["simulate", "--config", ini, "--seed", "3", "--out", data]) == 0
    here, fresh = tmp_path / "here.csv", tmp_path / "fresh.csv"
    assert cli.main(["estimate", data, "--config", ini, "--out", str(here)]) == 0
    done = _fresh_cli(["estimate", data, "--config", ini, "--out", str(fresh)])
    assert done.returncode == 0, done.stderr
    for suffix in ("", ".report.json"):
        assert Path(f"{here}{suffix}").read_bytes() == Path(f"{fresh}{suffix}").read_bytes()


def test_write_json_refuses_nan(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(cli.CliError):
        cli._write_json(str(path), {"value": float("nan")})
    assert not path.exists()


def test_cli_error_paths(tmp_path):
    missing = str(tmp_path / "nope.csv")
    assert cli.main(["estimate", missing, "--out", str(tmp_path / "o.csv")]) == 2
    bad_ini = _write(tmp_path / "bad.ini", "[estimator]\ntruncation = 0\n")
    data = str(tmp_path / "d.csv")
    assert cli.main(["simulate", "--out", data]) == 0
    assert cli.main(["estimate", data, "--config", bad_ini, "--out", str(tmp_path / "o.csv")]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["simulate"])  # --out is required


# Each input is refused by the library with a ValueError (or, for s = nan,
# was refused only after the grid had been written), by the config reader
# (the retired rate rule's keys), or before any task is built (--threads,
# a repeated n_grid size, a true density that is 0 at every node of
# bench's quadrature), or by
# simulate.generate when a design's draws overflow a float.
# {data} is a 60-row model_1 dataset, {two_rows} a 2-row one, {nan_points}
# a points file with a NaN row.
_SMALL_BENCH = "[bench]\nn_grid = 30\nreplications = 1\nresolution = 4\n"
# A d = 2 custom design, completed by the case's covariate_mean and
# fixed_value lines.
_CIRCLE_MODEL = (
    "[model]\npreset = custom\ndimension = 2\ncovariate_cov = 1\n"
    "mixture_weights = 1\nmixture_means = 0\nmixture_covs = 1\n"
)
_FIXED_VALUE_OVERFLOW = _CIRCLE_MODEL + "covariate_mean = 0\nfixed_value = 1e308\n"
_COVARIATE_OVERFLOW = _CIRCLE_MODEL + "covariate_mean = 1e308\n"
_REFUSED = {
    "rate_constant": (["estimate", "{data}"], "[estimator]\nrate_constant = 3.4\n"),
    "truncation_rule": (["estimate", "{data}"], "[estimator]\ntruncation_rule = fixed\n"),
    "fixed_value": (["simulate"], "[model]\nfixed_value = -1\n"),
    "fixed_value_inf": (["bench"], "[model]\nfixed_value = inf\n" + _SMALL_BENCH),
    "fixed_value_overflow": (["bench"], "[model]\nfixed_value = 1e308\n" + _SMALL_BENCH),
    "threads_zero": (["bench", "--threads", "0"], _SMALL_BENCH),
    "threads_negative": (["bench", "--threads", "-1"], _SMALL_BENCH),
    "threads_above_cpus": (["bench", "--threads", str((os.cpu_count() or 1) + 1)], _SMALL_BENCH),
    "n_grid_repeated": (["bench"], "[bench]\nn_grid = 60 60\nreplications = 1\nresolution = 4\n"),
    "delayed_means": (["estimate", "{data}"], "[estimator]\nfamily = delayed_means\nfx_truncation = 8\n"),
    "l": (["estimate", "{data}"], "[estimator]\nl = 0\n"),
    "points_file_nan": (["estimate", "{data}"], "[grid]\npoints_file = {nan_points}\n"),
    "two_rows_fixed": (["estimate", "{two_rows}"], ""),
    "seed": (["simulate", "--seed", "-1"], ""),
    "s_nan": (["estimate", "{data}"], "[estimator]\ns = nan\n"),
    "s_inf_dirichlet": (["estimate", "{data}"], "[estimator]\ns = inf\nfamily = dirichlet\n"),
    "s_nan_delayed_means": (
        ["estimate", "{data}"],
        "[estimator]\ns = nan\nfamily = delayed_means\nfx_truncation = 8\n",
    ),
    "fixed_value_1e100": (["bench"], "[model]\nfixed_value = 1e100\n" + _SMALL_BENCH),
    "fixed_value_1e-300": (["bench"], "[model]\nfixed_value = 1e-300\n" + _SMALL_BENCH),
    "mixture_covs_indefinite": (
        ["simulate"],
        "[model]\npreset = custom\ndimension = 3\ncovariate_mean = 0 0\ncovariate_cov = 2 0 ; 0 2\n"
        "mixture_weights = 1\nmixture_means = 0 0\nmixture_covs = 1 2 ; 2 1\n",
    ),
    "circle_fixed_value_overflow_simulate": (["simulate"], _FIXED_VALUE_OVERFLOW),
    "circle_fixed_value_overflow_bench": (["bench"], _FIXED_VALUE_OVERFLOW + _SMALL_BENCH),
    "covariate_mean_overflow_simulate": (["simulate"], _COVARIATE_OVERFLOW),
    "covariate_mean_overflow_bench": (["bench"], _COVARIATE_OVERFLOW + _SMALL_BENCH),
    "mixture_means_overflow": (
        ["simulate"],
        "[model]\npreset = custom\ndimension = 3\ncovariate_mean = 0 0\ncovariate_cov = 1 0 ; 0 1\n"
        "mixture_weights = 1\nmixture_means = 1e308 1e308\nmixture_covs = 1 0 ; 0 1\n",
    ),
    "mixture_means_overflow_bench": (
        ["bench"],
        "[model]\npreset = custom\ndimension = 3\ncovariate_mean = 0 0\ncovariate_cov = 1 0 ; 0 1\n"
        "mixture_weights = 1\nmixture_means = 1e308 1e308\nmixture_covs = 1 0 ; 0 1\n" + _SMALL_BENCH,
    ),
    "covariate_cov_indefinite": (
        ["simulate"],
        "[model]\npreset = custom\ndimension = 3\ncovariate_mean = 0 0\ncovariate_cov = 1 2 ; 2 1\n"
        "mixture_weights = 1\nmixture_means = 0 0\nmixture_covs = 1 0 ; 0 1\n",
    ),
}


# What the error line names, for the cases where the library's own
# message would not say which setting is at fault.
_NAMED = {
    "delayed_means": "truncation",
    "n_grid_repeated": "n_grid",
    "s_inf_dirichlet": "s must be finite",
    "s_nan_delayed_means": "s must be finite",
    "fixed_value_1e100": "fixed_value",
    "fixed_value_1e-300": "fixed_value",
    "circle_fixed_value_overflow_simulate": "fixed_value",
    "circle_fixed_value_overflow_bench": "fixed_value",
    "covariate_mean_overflow_simulate": "covariate_mean",
    "covariate_mean_overflow_bench": "covariate_mean",
    "mixture_means_overflow": "mixture_means",
    "mixture_means_overflow_bench": "mixture_means",
}


# Warnings are errors: a refused input must not let numpy warn (of an
# overflow, say) before the error line.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(_REFUSED))
def test_invalid_input_exits_2_with_one_error_line(tmp_path, capsys, case):
    data = str(tmp_path / "data.csv")
    ini = _write(tmp_path / "m.ini", "[model]\nn_obs = 60\n")
    assert cli.main(["simulate", "--config", ini, "--out", data, "--seed", "1"]) == 0
    paths = {
        "data": data,
        "two_rows": _write(tmp_path / "two.csv", "y,x0,x1,x2\n1,0.6,0.8,0\n0,1,0,0\n"),
        "nan_points": _write(tmp_path / "pts.csv", "0,0,1\nnan,0,1\n"),
    }
    argv, text = _REFUSED[case]
    config = _write(tmp_path / "c.ini", text.format(**paths))
    capsys.readouterr()
    argv = [a.format(**paths) for a in argv] + ["--config", config, "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert _NAMED.get(case, "") in err
    assert not list(tmp_path.glob("out.csv*"))


@pytest.mark.parametrize("family", ["dirichlet", "delayed_means"])
@pytest.mark.parametrize("s", ["inf", "nan"])
def test_diagnose_without_out_refuses_non_finite_s(tmp_path, capsys, family, s):
    """diagnose writes no report without --out, so only the config check
    stands between a non-finite s and exit 0."""
    data = str(tmp_path / "data.csv")
    ini = _write(tmp_path / "m.ini", "[model]\nn_obs = 60\n")
    assert cli.main(["simulate", "--config", ini, "--out", data, "--seed", "1"]) == 0
    config = _write(tmp_path / "c.ini", f"[estimator]\ns = {s}\nfamily = {family}\nfx_truncation = 8\n")
    capsys.readouterr()
    assert cli.main(["diagnose", data, "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: s must be finite") and captured.err.count("\n") == 1


# Band limits far above kernels.MAX_DEGREE, keyed by the name their
# refusal starts with.  Accepted, any of them would ask for gigabytes.
_HUGE_BANDS = {
    "truncation": "[estimator]\ntruncation = 100000000\n",
    "fx_truncation": "[estimator]\nfx_truncation = 100000000\n",
}

# Runs the CLI with the arguments given and prints its exit code and the
# traced peak of what it allocated.  The address space is capped at 1 GiB
# first, so a band that slipped through would fail with MemoryError
# instead of being allocated.
_CAPPED_CLI = """
import resource, sys, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from spherecoef import cli
tracemalloc.start()
code = cli.main(sys.argv[1:])
print(code, tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize("key", list(_HUGE_BANDS))
def test_huge_band_limit_exits_2_before_allocating(tmp_path, key):
    pytest.importorskip("resource")  # the child caps its address space
    data = str(tmp_path / "data.csv")
    ini = _write(tmp_path / "m.ini", "[model]\nn_obs = 60\n")
    assert cli.main(["simulate", "--config", ini, "--out", data, "--seed", "1"]) == 0
    config = _write(tmp_path / "c.ini", _HUGE_BANDS[key])
    out = str(tmp_path / "out.csv")
    src = str(Path(cli.__file__).resolve().parents[1])
    threads = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, "estimate", data, "--config", config, "--out", out],
        env={**os.environ, **threads, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    code, peak = map(int, done.stdout.split())
    assert code == 2
    assert peak < 1 << 20
    assert done.stderr.startswith(f"error: {key} ") and done.stderr.count("\n") == 1
    assert not list(tmp_path.glob("out.csv*"))


_BAD_VALUES = ["0", "-1", "nan", "inf", "-inf", "x"]


def _edited(base, keys, values, max_edits):
    """Config sections drawn from base, with up to max_edits of the keys
    overwritten by one of values, so that most examples break one or two
    settings and some break none."""
    edits = st.dictionaries(st.sampled_from(keys), st.sampled_from(values), max_size=max_edits)
    return st.builds(lambda section, edit: {**section, **edit}, base, edits)


def _valid(choices):
    return st.fixed_dictionaries({key: st.sampled_from(values) for key, values in choices.items()})


_FUZZ_ESTIMATOR = {
    "truncation": ["1", "2", "4"],
    "trimming_exponent": ["2.0", "0.5"],
    "family": ["riesz", "delayed_means", "dirichlet"],
    "s": ["2.0", "0.5"],
    "l": ["3", "1"],
    "fx_truncation": ["8", "4"],
}
_FUZZ_ESTIMATOR_VALUES = ["2.5", "1.5", "6", "129", "fejer"] + _BAD_VALUES
_FUZZ_GRID = {"resolution": ["2", "5"], "points_file": ["", "unit.csv"]}
_FUZZ_GRID_VALUES = ["nan.csv", "flat.csv", "missing.csv"] + _BAD_VALUES


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A 40-row model_1 dataset and points files: unit rows, a NaN row,
    two columns, and a path that does not exist."""
    base = tmp_path_factory.mktemp("fuzz")
    ini = _write(base / "m.ini", "[model]\nn_obs = 40\n")
    assert cli.main(["simulate", "--config", ini, "--out", str(base / "data.csv"), "--seed", "2"]) == 0
    _write(base / "unit.csv", "0,0,1\n0.6,0.8,0\n")
    _write(base / "nan.csv", "0,0,1\nnan,0,1\n")
    _write(base / "flat.csv", "0,1\n1,0\n")
    return base


def _run_fuzzed(fuzz_dir, argv, sections):
    """Run the CLI on a config of the given {section: {key: value}} and
    check that it succeeds, or exits 2 with one error line and no file."""
    lines = []
    for name, keys in sections.items():
        lines += [f"[{name}]", *(f"{k} = {v}" for k, v in keys.items())]
    config = _write(fuzz_dir / "fuzz.ini", "\n".join(lines) + "\n")
    out = fuzz_dir / "out.csv"
    report = fuzz_dir / "out.csv.report.json"
    for path in (out, report):
        path.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--config", config, "--out", str(out)])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert not out.exists() and not report.exists()


@settings(max_examples=600, deadline=None)
@given(
    estimator=_edited(_valid(_FUZZ_ESTIMATOR), list(_FUZZ_ESTIMATOR), _FUZZ_ESTIMATOR_VALUES, 2),
    grid=_edited(_valid(_FUZZ_GRID), list(_FUZZ_GRID), _FUZZ_GRID_VALUES, 1),
)
def test_fuzzed_config_exits_0_or_2_and_writes_nothing_on_2(fuzz_dir, estimator, grid):
    """Valid, out-of-range, NaN, infinite and non-numeric [estimator] and
    [grid] values: estimate succeeds, or it exits 2 with one error line and
    writes no file."""
    if grid["points_file"]:
        grid["points_file"] = str(fuzz_dir / grid["points_file"])
    _run_fuzzed(fuzz_dir, ["estimate", str(fuzz_dir / "data.csv")], {"estimator": estimator, "grid": grid})


# Coherent [model] sections, one per preset and one custom design per
# dimension, and [bench] settings; valid sizes are kept small (n_obs and
# n_grid entries at most 60, at most 2 replications, resolution at most 8).
# Each example then overrides up to two [model] keys and one [bench] key
# with values that are out of range, non-finite, non-numeric or of the
# wrong shape, or valid only for another design.
_FUZZ_MODELS = [
    {"preset": "model_1"},
    {"preset": "model_2", "n_obs": "7", "fixed_value": "2.5"},
    {
        "preset": "custom", "dimension": "2", "n_obs": "60", "covariate_mean": "0.5", "covariate_cov": "1.5",
        "mixture_weights": "0.5 0.5", "mixture_means": "0.5 ; -0.5", "mixture_covs": "0.3 | 0.2",
    },
    {
        "preset": "custom", "dimension": "3", "covariate_mean": "0 0", "covariate_cov": "2 0 ; 0 2",
        "mixture_weights": "1", "mixture_means": "0 0", "mixture_covs": "0.3 0.1 ; 0.1 0.3",
    },
    {
        "preset": "custom", "dimension": "4", "covariate_mean": "0 0 0", "covariate_cov": "1 0 0 ; 0 1 0 ; 0 0 1",
        "mixture_weights": "0.5 0.5", "mixture_means": "0 0 0.5 ; 0 0 -0.5", "mixture_covs": "0.3 0 0 ; 0 0.3 0 ; 0 0 0.3",
    },
]
_FUZZ_MODEL_VALUES = [
    "custom", "model_3", "1", "3", "1e308", "1e-300", "0 0", "1 2 ; 2 1", "0.5 0.9", "1 0 ; 0", "0.3 | 0.2", "",
] + _BAD_VALUES
_FUZZ_BENCH = {"n_grid": ["30 60", "40", "3"], "replications": ["1", "2"], "resolution": ["4", "8"]}
_FUZZ_BENCH_VALUES = ["", "2", "3 x", "1 60", "60 30 60"] + _BAD_VALUES


@settings(max_examples=150, deadline=None)
@given(
    model=_edited(st.sampled_from(_FUZZ_MODELS), list(cli.load_config(None)["model"]), _FUZZ_MODEL_VALUES, 2),
    bench=_edited(_valid(_FUZZ_BENCH), list(_FUZZ_BENCH), _FUZZ_BENCH_VALUES, 1),
)
def test_fuzzed_model_and_bench_exit_0_or_2_and_write_nothing_on_2(fuzz_dir, model, bench):
    """Valid, out-of-range, NaN, infinite, non-numeric and mis-shaped
    [model] and [bench] values, custom vectors and matrices included:
    bench succeeds, or it exits 2 with one error line and writes no file."""
    _run_fuzzed(fuzz_dir, ["bench", "--seed", "3"], {"model": model, "bench": bench})
