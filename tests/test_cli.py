"""Tests for the command-line interface."""

import contextlib
import io
import json
import os
import re
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
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes(b"[model]\nn_obs = 64\n# caf\xe9\n")
    with pytest.raises(cli.CliError, match=f"^cannot parse config {latin1}: line 3: byte 0xe9 is not UTF-8$"):
        cli.load_config(str(latin1))
    for key in ("truncation_rule", "rate_constant"):  # the retired rate rule's keys
        retired = _write(tmp_path / "retired.ini", f"[estimator]\n{key} = 1\n")
        with pytest.raises(cli.CliError, match=f"^{re.escape(retired)}: line 2: unknown config key '{key}'"):
            cli.load_config(retired)
    # a malformed line, refused in one line that names it
    broken = {
        "[model\nn_obs = 3\n": "line 1: expected a [section] header: '[model'",
        "[model]\nn_obs\n": "line 2: expected key = value: 'n_obs'",
        "[model]\nn_obs = 3\nn_obs = 4\n": "line 3: repeated key: 'n_obs = 4'",
    }
    for text, fault in broken.items():
        path = _write(tmp_path / "broken.ini", text)
        with pytest.raises(cli.CliError) as exc:
            cli.load_config(path)
        assert str(exc.value) == f"cannot parse config {path}: {fault}"


def test_config_values_are_literal(tmp_path):
    """% is not special in a config value: no interpolation, no error."""
    cfg = cli.load_config(_write(tmp_path / "pct.ini", "[grid]\npoints_file = a%b.csv\n[run]\nseed = 100%%\n"))
    assert cfg["grid"]["points_file"] == "a%b.csv"
    assert cfg["run"]["seed"] == "100%%"


def test_config_grammar_spellings(tmp_path):
    """Matrices continued on indented lines, with a comment and a blank line
    between, build the design of their one-line spelling; key: value and an
    upper-case key read as key = value; a repeated section is refused at
    its line."""
    model = "[model]\npreset = custom\ncovariate_mean = 0 0\nmixture_weights = 0.5 0.5\nmixture_means = 1 0 ; 0 1\n"
    one_line = model + "covariate_cov = 2 0.5 ; 0.5 2\nmixture_covs = 0.3 0 ; 0 0.3 | 0.2 0 ; 0 0.2\nn_obs = 64\n"
    spelled = model + (
        "covariate_cov = 2 0.5 ;\n  # row 2\n\n    0.5 2\n"
        "Mixture_Covs: 0.3 0 ;\n  0 0.3 |\n  0.2 0 ;\n  0 0.2\nN_OBS: 64\n"
    )
    configs = [cli.load_config(_write(tmp_path / n, text)) for n, text in (("a.ini", one_line), ("b.ini", spelled))]
    specs = [cli.build_dgp(cfg["model"], seed=1) for cfg in configs]
    assert np.array_equal(specs[1].covariate_cov, [[2, 0.5], [0.5, 2]])
    assert np.array_equal(specs[1].covariate_cov, specs[0].covariate_cov)
    assert np.array_equal(specs[1].coefficients.covs, specs[0].coefficients.covs)
    assert specs[1].n_obs == specs[0].n_obs == 64
    assert [cli._where(configs[1]["model"][key]) for key in ("covariate_cov", "mixture_covs", "n_obs")] == [
        f"{tmp_path / 'b.ini'}: line {n}: " for n in (6, 10, 14)
    ]
    repeated = _write(tmp_path / "c.ini", "[model]\nn_obs = 64\n\n[run]\nseed = 1\n[model]\n")
    with pytest.raises(cli.CliError) as exc:
        cli.load_config(repeated)
    assert str(exc.value) == f"cannot parse config {repeated}: line 6: repeated section: '[model]'"


def _docstring_config():
    """The config block of the cli module docstring."""
    lines = cli.__doc__.split("\n")
    start = lines.index("    [model]")
    end = next(i for i in range(start, len(lines)) if lines[i] and not lines[i].startswith("    "))
    return "\n".join(lines[start:end])


def test_docstring_config_block_is_a_valid_config(tmp_path):
    """The grammar block in the module docstring reads as a config: each
    value it gives for a key with a default is that default, and its
    custom model builds."""
    cfg = cli.load_config(_write(tmp_path / "doc.ini", _docstring_config()))
    defaults = cli.load_config(None)
    assert {(sec, key) for sec in cfg for key in cfg[sec] if cli._where(cfg[sec][key])} == {
        (sec, key) for sec in defaults for key in defaults[sec]
    }
    assert {(sec, key): value for sec in cfg for key, value in cfg[sec].items() if defaults[sec][key]} == {
        (sec, key): value for sec in defaults for key, value in defaults[sec].items() if value
    }
    assert cli.resolve_estimator_config(cfg["estimator"]) == EstimatorConfig()
    spec = cli.build_dgp(dict(cfg["model"], preset="custom"), seed=1)
    assert spec.dimension == 3 and np.array_equal(spec.covariate_cov, 2.0 * np.eye(2))
    assert np.array_equal(spec.coefficients.means, [[0.7, -0.7], [-0.7, 0.7]])


def test_build_dgp_presets_and_custom():
    cfg = cli.load_config(None)
    spec = cli.build_dgp(dict(cfg["model"], n_obs="77"), seed=4)
    assert spec.n_obs == 77 and spec.seed == 4 and spec.dimension == 3
    custom = dict(cfg["model"])
    custom.update(
        preset="custom",
        n_obs="10",
        dimension="3",
        covariate_mean="0 0",
        covariate_cov="1 0; 0 1",
        mixture_weights="0.5 0.5",
        mixture_means="0.5 -0.5; -0.5 0.5",
        mixture_covs="0.2 0; 0 0.2 | 0.2 0; 0 0.2",
        fixed_value="1.5",
    )
    spec2 = cli.build_dgp(custom, seed=1)
    assert spec2.fixed_value == 1.5
    assert np.allclose(spec2.coefficients.means, [[0.5, -0.5], [-0.5, 0.5]])
    bad = dict(custom)
    bad["mixture_weights"] = "0.5 0.9"
    with pytest.raises(cli.CliError):
        cli.build_dgp(bad, seed=1)


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
    # blank lines and whole-line comments are skipped, quoted numbers read
    commented = _write(tmp_path / "commented.csv", "# d = 4\n0,0,0,1\n\n  # next\n0,0,\"1\",0\n")
    assert np.array_equal(cli.evaluation_grid(4, 8, points_file=commented), g4)


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
    zero_row = _write(tmp_path / "z.csv", "y,x0,x1\n\n1,0.0,0.0\n")
    with pytest.raises(cli.CliError, match="z.csv: line 3: covariate norm is 0"):
        cli.read_sample(zero_row)
    trailing = _write(tmp_path / "t.csv", "y,x0,x1\n1,0.6,0.8 # note\n")
    with pytest.raises(cli.CliError, match="t.csv: line 2: non-numeric field"):
        cli.read_sample(trailing)
    float_y = _write(tmp_path / "f.csv", "y,x0,x1\n1.0,0.6,0.8\n")
    with pytest.raises(cli.CliError, match="f.csv: line 2: y must be an integer"):
        cli.read_sample(float_y)
    for text in ("", "\n\n", "y,x0,x1\n# no rows\n"):
        with pytest.raises(cli.CliError, match="e.csv: line [0-9]+: end of file before any data row"):
            cli.read_sample(_write(tmp_path / "e.csv", text))


def test_read_sample_skips_blank_lines_and_comments(tmp_path):
    """Whole-line # comments, before the header too, and blank lines are
    skipped; the rows read are those of the plain file."""
    plain = cli.read_sample(_write(tmp_path / "p.csv", "y,x0,x1\n1,0.6,0.8\n0,1,0\n"))
    text = "# written by hand\ny,x0,x1\n\n1,0.6,0.8\n  # a note\n0,1,0\n"
    commented = cli.read_sample(_write(tmp_path / "c.csv", text))
    assert np.array_equal(commented.y, plain.y) and np.array_equal(commented.x, plain.x)


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


def _fresh_cli(args, module="spherecoef"):
    """Run python -W error -m module (spherecoef or spherecoef.cli) with
    args in a new interpreter, with one BLAS thread."""
    src = str(Path(cli.__file__).resolve().parents[1])
    threads = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", module, *args],
        env={**os.environ, **threads, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_python_m_spherecoef_runs_the_cli_without_warnings(tmp_path):
    """python -m spherecoef and python -m spherecoef.cli run the command
    line with warnings as errors (the package does not import its cli, so
    runpy finds no copy of spherecoef.cli loaded before it runs one as
    __main__): exit 0, nothing on stderr, and the CSV that cli.main
    writes."""
    ref = tmp_path / "ref.csv"
    assert cli.main(["simulate", "--seed", "1", "--out", str(ref)]) == 0
    for module in ("spherecoef", "spherecoef.cli"):
        out = tmp_path / f"{module}.csv"
        done = _fresh_cli(["simulate", "--seed", "1", "--out", str(out)], module)
        assert done.returncode == 0 and done.stderr == ""
        assert out.read_bytes() == ref.read_bytes()


_TINY_BENCH = "[bench]\nn_grid = 40 80\nreplications = 2\nresolution = 8\n"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--threads 2 needs two CPUs")
def test_bench_tables_and_reports_do_not_depend_on_threads(tmp_path):
    """bench --threads 1 in this process and --threads 2 in a new one write
    byte-identical tables and reports: nothing a worker computes depends
    on what its process ran before."""
    ini = _write(tmp_path / "tiny.ini", "[model]\nn_obs = 120\n" + _TINY_BENCH)
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert cli.main(["bench", "--threads", "1", "--config", ini, "--seed", "3", "--out", str(one)]) == 0
    done = _fresh_cli(["bench", "--threads", "2", "--config", ini, "--seed", "3", "--out", str(two)])
    assert done.returncode == 0, done.stderr
    for suffix in ("", ".report.json"):
        assert Path(f"{one}{suffix}").read_bytes() == Path(f"{two}{suffix}").read_bytes()


def test_circle_estimate_is_byte_identical_across_runs(tmp_path):
    """A d = 2 custom model (the circle's own recursion branch, and the
    harmonic basis at every N) writes the same grid and report in a new
    interpreter as in this one."""
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


@pytest.mark.parametrize("command", ["estimate", "diagnose"])
def test_seed_is_refused_where_nothing_reads_it(tmp_path, capsys, command):
    """estimate and diagnose draw nothing at random, so they take no --seed:
    argparse refuses it with exit code 2 and writes no output."""
    data = str(tmp_path / "d.csv")
    assert cli.main(["simulate", "--out", data, "--seed", "5"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main([command, data, "--seed", "5", "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not list(tmp_path.glob("o.csv*"))


# Each input is refused by the library with a ValueError (or, for s = nan,
# was refused only after the grid had been written), by the config reader
# (the retired rate rule's keys), or before any task is built (--threads,
# a repeated n_grid size, a true density that is 0 at every node of
# bench's quadrature), or by
# simulate.generate when a design's draws overflow a float.
# {data} is a 60-row model_1 dataset, {two_rows} a 2-row one; the points
# files and the other datasets each hold one fault, on the line _NAMED gives.
_SMALL_BENCH = "[bench]\nn_grid = 30\nreplications = 1\nresolution = 4\n"
# A d = 2 custom design, completed by the case's covariate_mean and
# fixed_value lines.
_CIRCLE_DESIGN = (
    "preset = custom\ndimension = 2\ncovariate_cov = 1\n"
    "mixture_weights = 1\nmixture_means = 0\nmixture_covs = 1\n"
)
_CIRCLE_MODEL = "[model]\n" + _CIRCLE_DESIGN
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
    "points_file_abc": (["estimate", "{data}"], "[grid]\npoints_file = {abc_points}\n"),
    "points_file_off_norm": (["estimate", "{data}"], "[grid]\npoints_file = {off_points}\n"),
    "points_file_four_fields": (["estimate", "{data}"], "[grid]\npoints_file = {wide_points}\n"),
    "points_file_overflow": (["estimate", "{data}"], "[grid]\npoints_file = {huge_points}\n"),
    "points_file_empty": (["estimate", "{data}"], "[grid]\npoints_file = {empty_points}\n"),
    "points_file_blank": (["estimate", "{data}"], "[grid]\npoints_file = {blank_points}\n"),
    "sample_negative_x0": (["estimate", "{negative}"], ""),
    "sample_norm_overflow": (["estimate", "{overflow}"], ""),
    "config_no_section_header": (["simulate"], "[model\nn_obs = 3\n"),
    "config_default_section": (["simulate"], "[DEFAULT]\nn_obs = 7\n"),
    "config_unknown_section": (["simulate"], "[model]\nn_obs = 60\n\n[models]\nn_obs = 3\n"),
    "config_unknown_key": (["simulate"], "[model]\n# the sample size\nn_obz = 7\n"),
    "two_rows_fixed": (["estimate", "{two_rows}"], ""),
    "latin1_sample": (["estimate", "{latin1}"], ""),
    "latin1_points": (["estimate", "{data}"], "[grid]\npoints_file = {latin1_points}\n"),
    "seed": (["simulate", "--seed", "-1"], ""),
    "grid_res_points_file": (["estimate", "{data}", "--grid-res", "-5"], "[grid]\npoints_file = {unit_points}\n"),
    "grid_res_one_points_file": (["estimate", "{data}", "--grid-res", "1"], "[grid]\npoints_file = {unit_points}\n"),
    "grid_res_one": (["estimate", "{data}", "--grid-res", "1"], ""),
    # checked before the sample is read: a missing data file is not reached
    "grid_res_one_no_data": (["estimate", "{missing}", "--grid-res", "1"], ""),
    "diagnose_grid_res_three": (["diagnose", "{data}", "--grid-res", "3"], ""),
    "diagnose_grid_res_one": (["diagnose", "{data}", "--grid-res", "1"], ""),
    "diagnose_grid_res_negative": (["diagnose", "{data}", "--grid-res", "-5"], ""),
    "diagnose_grid_res_no_data": (["diagnose", "{missing}", "--grid-res", "3"], ""),
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
    "l": "c.ini: line 2: l must be an integer >= 1 for riesz, got 0",
    "seed": "--seed must be >= 0, got -1",
    "grid_res_points_file": "error: --grid-res must be >= 2, got -5\n",
    "grid_res_one_points_file": "error: --grid-res must be >= 2, got 1\n",
    "grid_res_one": "error: --grid-res must be >= 2, got 1\n",
    "grid_res_one_no_data": "error: --grid-res must be >= 2, got 1\n",
    "diagnose_grid_res_three": "error: --grid-res must be >= 4, got 3\n",
    "diagnose_grid_res_one": "error: --grid-res must be >= 4, got 1\n",
    "diagnose_grid_res_negative": "error: --grid-res must be >= 4, got -5\n",
    "diagnose_grid_res_no_data": "error: --grid-res must be >= 4, got 3\n",
    "mixture_covs_indefinite": "c.ini: line 8: covs is not positive definite",
    "covariate_cov_indefinite": "c.ini: line 5: covariate_cov is not positive definite",
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
    "latin1_sample": "latin1.csv: line 3: byte 0xe9 is not UTF-8",
    "points_file_nan": "pts.csv: line 2: NaN or infinite field",
    "points_file_abc": "abc.csv: line 2: non-numeric field",
    "points_file_off_norm": "off.csv: line 3: norm 1.12",
    "points_file_four_fields": "wide.csv: line 1: expected 3 fields, got 4",
    "points_file_overflow": "huge.csv: line 2: norm inf is not within 1e-6 of 1",
    "points_file_empty": "empty.csv: line 1: end of file before any data row",
    "points_file_blank": "blank.csv: line 4: end of file before any data row",
    "sample_negative_x0": "negative.csv: line 3: x0 must be nonnegative",
    "sample_norm_overflow": "overflow.csv: line 2: covariate norm is 0 or overflows",
    "config_no_section_header": "c.ini: line 1: expected a [section] header",
    "config_default_section": "c.ini: line 1: unknown config section [DEFAULT]",
    "config_unknown_section": "c.ini: line 4: unknown config section [models]",
    "config_unknown_key": "c.ini: line 3: unknown config key 'n_obz' in section [model]",
    "latin1_points": "latin1-pts.csv: line 2: byte 0xe9 is not UTF-8",
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
        "missing": str(tmp_path / "missing.csv"),
        "two_rows": _write(tmp_path / "two.csv", "y,x0,x1,x2\n1,0.6,0.8,0\n0,1,0,0\n"),
        "unit_points": _write(tmp_path / "unit.csv", "0,0,1\n0.6,0.8,0\n"),
        "nan_points": _write(tmp_path / "pts.csv", "0,0,1\nnan,0,1\n"),
        "abc_points": _write(tmp_path / "abc.csv", "0,0,1\nabc,0,1\n"),
        "off_points": _write(tmp_path / "off.csv", "0,0,1\n\n0,0.672,0.896\n"),
        "wide_points": _write(tmp_path / "wide.csv", "0,0,1,0\n"),
        "huge_points": _write(tmp_path / "huge.csv", "0,0,1\n1e200,0,0\n"),
        "empty_points": _write(tmp_path / "empty.csv", ""),
        "blank_points": _write(tmp_path / "blank.csv", "\n  \n\n"),
        "negative": _write(tmp_path / "negative.csv", "y,x0,x1,x2\n1,0.6,0.8,0\n0,-1,0,0\n"),
        "overflow": _write(tmp_path / "overflow.csv", "y,x0,x1,x2\n0,1e200,1e200,0\n1,0.6,0.8,0\n"),
        "latin1": str(tmp_path / "latin1.csv"),
        "latin1_points": str(tmp_path / "latin1-pts.csv"),
    }
    # a Latin-1 byte (0xe9), which is not UTF-8
    Path(paths["latin1"]).write_bytes(b"y,x0,x1,x2\n1,0.6,0.8,0\n0,1\xe9,0,0\n")
    Path(paths["latin1_points"]).write_bytes(b"0,0,1\n0,1\xe9,0\n")
    argv, text = _REFUSED[case]
    config = _write(tmp_path / "c.ini", text.format(**paths))
    capsys.readouterr()
    argv = [a.format(**paths) for a in argv] + ["--config", config, "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert _NAMED.get(case, "") in err
    assert not list(tmp_path.glob("out.csv*"))


def _custom_model(line):
    """line, then the other keys of a two-component d = 3 custom design."""
    design = {
        "preset": "custom", "dimension": "3", "covariate_mean": "0 0", "covariate_cov": "2 0 ; 0 2",
        "mixture_weights": "0.5 0.5", "mixture_means": "0 0 ; 0 0", "mixture_covs": "1 0 ; 0 1",
    }
    key = line.split(" = ")[0]
    return "\n".join([line] + [f"{k} = {v}" for k, v in design.items() if k != key])


# A config value the CLI refuses, the command that reads it, and its
# refusal after the file-and-line prefix; the config puts a comment, a
# section header and a blank line above the value, on line 4.
_REFUSED_VALUES = {
    "n_obs": (["simulate"], "model", "n_obs = abc", "n_obs must be an integer, got 'abc'"),
    "truncation": (
        ["estimate", "{data}"], "estimator", "truncation = 0", "truncation must be an integer in [1, 64], got 0"
    ),
    "n_grid": (["bench"], "bench", "n_grid = 10 x", "bench n_grid entry must be an integer, got 'x'"),
    "fixed_value": (["simulate"], "model", "fixed_value = -1", "fixed_value must be finite and positive, got -1.0"),
    "mixture_weights": (
        ["simulate"], "model", _custom_model("mixture_weights = 0.5 0.9"), "weights must sum to 1, got 1.4"
    ),
    "covariate_cov": (
        ["simulate"], "model", _custom_model("covariate_cov = 1 2 ; 2 1"), "covariate_cov is not positive definite"
    ),
    "mixture_covs": (
        ["simulate"],
        "model",
        _custom_model("mixture_covs = 1 0 ; 0 1 | 1 0 ; 0 x"),
        "mixture_covs must be space-separated numbers, got '0 x'",
    ),
    "mixture_covs_sizes": (
        ["simulate"],
        "model",
        _custom_model("mixture_covs = 1 0 ; 0 1 | 1"),
        "mixture_covs holds matrices of unequal size",
    ),
    "seed": (["simulate"], "run", "seed = -1", "seed must be >= 0, got -1"),
    "s": (["estimate", "{data}"], "estimator", "s = -1", "s must be > 0 for riesz, got -1.0"),
    # draws that overflow a float, refused by simulate.generate
    "covariate_mean_overflow": (
        ["bench"],
        "model",
        _custom_model("covariate_mean = 1e308 1e308") + "\n" + _SMALL_BENCH,
        "covariate_mean or covariate_cov is too large: covariate draws overflow a float",
    ),
    "fixed_value_overflow": (
        ["simulate"],
        "model",
        "fixed_value = 1e308\ncovariate_mean = 0\n" + _CIRCLE_DESIGN,
        "fixed_value = 1e+308 times a covariate draw overflows a float",
    ),
    "mixture_means_overflow": (
        ["simulate"],
        "model",
        _custom_model("mixture_means = 1e308 1e308 ; 1e308 1e308"),
        "mixture_means or mixture_covs is too large: the latent index x'beta overflows a float",
    ),
    # non-finite values, refused by name and entry before any draw
    "mixture_weights_nan": (
        ["simulate"],
        "model",
        _custom_model("mixture_weights = nan 0.5"),
        "weights must be finite, not NaN or infinite: weights[0] = nan",
    ),
    "mixture_weights_nan_bench": (
        ["bench"],
        "model",
        _custom_model("mixture_weights = nan 0.5") + "\n" + _SMALL_BENCH,
        "weights must be finite, not NaN or infinite: weights[0] = nan",
    ),
    "mixture_means_nan": (
        ["simulate"],
        "model",
        _custom_model("mixture_means = nan 0 ; 0 0"),
        "means must be finite, not NaN or infinite: means[0, 0] = nan",
    ),
    "covariate_mean_nan": (
        ["simulate"],
        "model",
        _custom_model("covariate_mean = nan 0"),
        "covariate_mean must be finite, not NaN or infinite: covariate_mean[0] = nan",
    ),
    # an int past the largest float, which float() cannot convert
    "l_past_the_largest_float": (
        ["estimate", "{data}"],
        "estimator",
        "l = 1" + "0" * 400,
        "l must be finite, not NaN or infinite: l = 1" + "0" * 400,
    ),
}


@pytest.mark.parametrize("case", list(_REFUSED_VALUES))
def test_refused_config_value_names_its_file_and_line(tmp_path, capsys, case):
    argv, section, line, message = _REFUSED_VALUES[case]
    data = str(tmp_path / "data.csv")
    ini = _write(tmp_path / "m.ini", "[model]\nn_obs = 60\n")
    assert cli.main(["simulate", "--config", ini, "--out", data, "--seed", "1"]) == 0
    config = _write(tmp_path / "c.ini", f"# refused\n[{section}]\n\n{line}\n")
    capsys.readouterr()
    out = str(tmp_path / "out.csv")
    assert cli.main([a.format(data=data) for a in argv] + ["--config", config, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {config}: line 4: {message}\n"
    assert not list(tmp_path.glob("out.csv*"))


_D4_MODEL = (
    "[model]\npreset = custom\ndimension = 4\nn_obs = 60\ncovariate_mean = 0 0 0\n"
    "covariate_cov = 1 0 0 ; 0 1 0 ; 0 0 1\nmixture_weights = 1\nmixture_means = 0 0 0\n"
    "mixture_covs = 0.3 0 0 ; 0 0.3 0 ; 0 0 0.3\n"
)


@pytest.mark.parametrize("command", ["estimate", "diagnose", "bench"])
def test_riesz_power_refused_in_d_4_names_its_line(tmp_path, capsys, monkeypatch, command):
    """l = 1 passes the config's own checks but not riesz l > (d - 2)/2 in
    d = 4: each command refuses it at its line as soon as it knows d,
    before a grid, a quadrature or a fit (d = 4 has no built-in grid, and
    no points file is given)."""
    config = _write(tmp_path / "c.ini", _D4_MODEL + "[estimator]\nl = 1\n" + _SMALL_BENCH)
    data = str(tmp_path / "data.csv")
    assert cli.main(["simulate", "--config", config, "--out", data, "--seed", "1"]) == 0
    capsys.readouterr()
    for late in ("build_quadrature", "estimate_fbeta"):
        monkeypatch.setattr(cli, late, lambda *args, **kwargs: pytest.fail("reached past the check"))
    out = str(tmp_path / "out.csv")
    argv = [command] + ([] if command == "bench" else [data]) + ["--config", config, "--out", out]
    assert cli.main(argv) == 2
    message = "l must be an integer > (d-2)/2 = 1.0 for riesz in d = 4, got 1"
    assert capsys.readouterr().err == f"error: {config}: line 11: {message}\n"
    assert not list(tmp_path.glob("out.csv*"))


def test_config_values_are_still_their_strings(tmp_path):
    """A value read from a file compares equal to its text and feeds
    build_dgp as a default does; only a refusal reads where it came from."""
    path = _write(tmp_path / "c.ini", "[model]\n  n_obs = 64\n\n# the design\npreset : model_2\n")
    cfg = cli.load_config(path)
    assert cfg["model"]["n_obs"] == "64" and cfg["model"]["preset"] == "model_2"
    assert [cli._where(cfg["model"][key]) for key in ("n_obs", "preset", "fixed_value")] == [
        f"{path}: line 2: ",
        f"{path}: line 5: ",
        "",
    ]
    spec = cli.build_dgp(cfg["model"], seed=1)
    assert spec.n_obs == 64
    assert np.array_equal(spec.coefficients.means, DgpSpec.model_2().coefficients.means)


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
    assert captured.err.startswith(f"error: {config}: line 2: s must be finite")
    assert captured.err.count("\n") == 1


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
    assert done.stderr.startswith(f"error: {config}: line 2: {key} ") and done.stderr.count("\n") == 1
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
_FUZZ_GRID_VALUES = ["nan.csv", "flat.csv", "empty.csv", "missing.csv"] + _BAD_VALUES


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A 40-row model_1 dataset and points files: unit rows, a NaN row,
    two columns, no rows, and a path that does not exist."""
    base = tmp_path_factory.mktemp("fuzz")
    ini = _write(base / "m.ini", "[model]\nn_obs = 40\n")
    assert cli.main(["simulate", "--config", ini, "--out", str(base / "data.csv"), "--seed", "2"]) == 0
    _write(base / "unit.csv", "0,0,1\n0.6,0.8,0\n")
    _write(base / "nan.csv", "0,0,1\nnan,0,1\n")
    _write(base / "flat.csv", "0,1\n1,0\n")
    _write(base / "empty.csv", "")
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
