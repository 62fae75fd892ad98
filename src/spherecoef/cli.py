"""Command-line front end: simulate, estimate, diagnose, bench.

Subcommands
-----------
simulate   draw a synthetic dataset and write it as CSV
estimate   fit the coefficient density on a dataset, write grid values + report
           (config echo, support diagnostic, and how the weights were formed)
diagnose   run the one-hemisphere support diagnostic on a dataset
bench      Monte-Carlo error study over a sample-size grid, on --threads
           worker processes (1 to the CPU count)

Config file grammar (INI, all keys optional, defaults in parentheses):

    [model]
    preset = model_1 | model_2 | custom      (model_1)
    n_obs = 500
    fixed_value = 1.0                        ; finite, > 0, with fixed_value^(d-1) finite
    ; the remaining [model] keys apply only when preset = custom:
    dimension = 3
    covariate_mean = 0 0                     ; space-separated vector
    covariate_cov = 2 0 ; 0 2                ; rows separated by ';'
    mixture_weights = 0.5 0.5
    mixture_means = 0.7 -0.7 ; -0.7 0.7      ; one row per component
    mixture_covs = 0.3 0.15 ; 0.15 0.3       ; one matrix, or one per
                                             ; component separated by '|'

    [estimator]                ; defaults and ranges are EstimatorConfig's
    truncation = 3
    trimming_exponent = 2.0
    family = riesz | delayed_means | dirichlet   (riesz)
    s = 2.0
    l = 3
    fx_truncation = 10

    [grid]
    resolution = 24          ; circle points (d=2) or polar levels (d=3)
    points_file =            ; CSV of evaluation points, required for d >= 4

    [run]
    seed = 0

    [bench]
    n_grid = 250 500 1000 2000
    replications = 50
    resolution = 16          ; quadrature resolution for error norms

Exit codes: 0 on success, 2 on usage, config, or data errors (CliError, or
the library's ValueError), with one "error:" line and no output file.
Outputs are byte-identical across runs for the same config and seed;
floats are written with 17 significant digits, which round-trips exactly.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from .estimator import (
    ChoiceSample,
    EstimatorConfig,
    estimate_fbeta,
    identification_diagnostic,
    weight_summary,
)
from .simulate import DgpSpec, GaussianMixture, generate, true_fbeta_on_sphere
from .sphere import build_quadrature, check_on_sphere, normalize, surface_area

__all__ = ["main", "entry_point"]


class CliError(Exception):
    """Fatal usage, config, or data problem (exit code 2)."""


_DEFAULTS = {
    "model": {
        "preset": "model_1",
        "n_obs": "500",
        "fixed_value": "1.0",
        "dimension": "3",
        "covariate_mean": "",
        "covariate_cov": "",
        "mixture_weights": "",
        "mixture_means": "",
        "mixture_covs": "",
    },
    "estimator": {f.name: str(f.default) for f in fields(EstimatorConfig)},
    "grid": {"resolution": "24", "points_file": ""},
    "run": {"seed": "0"},
    "bench": {"n_grid": "250 500 1000 2000", "replications": "50", "resolution": "16"},
}


def load_config(path):
    """Read an INI config into a dict of dicts, applying defaults."""
    cfg = {sec: dict(keys) for sec, keys in _DEFAULTS.items()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise CliError(f"cannot parse config {path}: {exc}") from exc
    for section in parser.sections():
        if section not in cfg:
            raise CliError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in cfg[section]:
                raise CliError(f"unknown config key {key!r} in section [{section}]")
            cfg[section][key] = value
    return cfg


def _parse_int(text, what, minimum=None):
    try:
        value = int(text)
    except ValueError as exc:
        raise CliError(f"{what} must be an integer, got {text!r}") from exc
    if minimum is not None and value < minimum:
        raise CliError(f"{what} must be >= {minimum}, got {value}")
    return value


def _parse_float(text, what):
    try:
        return float(text)
    except ValueError as exc:
        raise CliError(f"{what} must be a number, got {text!r}") from exc


def _parse_vector(text, what):
    try:
        return np.array([float(tok) for tok in text.split()])
    except ValueError as exc:
        raise CliError(f"{what} must be space-separated numbers, got {text!r}") from exc


def _parse_matrix(text, what):
    rows = [r.strip() for r in text.split(";") if r.strip()]
    if not rows:
        raise CliError(f"{what} is empty")
    mat = [_parse_vector(r, what) for r in rows]
    if len({v.size for v in mat}) != 1:
        raise CliError(f"{what} has rows of unequal length")
    return np.vstack(mat)


def build_dgp(model_cfg, n_obs=None, seed=None):
    """Construct the DgpSpec described by the [model] section."""
    preset = model_cfg["preset"]
    n = _parse_int(model_cfg["n_obs"], "n_obs", minimum=1) if n_obs is None else n_obs
    fixed = _parse_float(model_cfg["fixed_value"], "fixed_value")
    if preset == "model_1":
        spec = DgpSpec.model_1(n_obs=n, seed=seed)
    elif preset == "model_2":
        spec = DgpSpec.model_2(n_obs=n, seed=seed)
    elif preset == "custom":
        d = _parse_int(model_cfg["dimension"], "dimension", minimum=2)
        weights = _parse_vector(model_cfg["mixture_weights"], "mixture_weights")
        means = _parse_matrix(model_cfg["mixture_means"], "mixture_means")
        blocks = [b.strip() for b in model_cfg["mixture_covs"].split("|") if b.strip()]
        covs = np.stack([_parse_matrix(b, "mixture_covs") for b in blocks])
        if covs.shape[0] == 1 and weights.size > 1:
            covs = np.repeat(covs, weights.size, axis=0)
        try:
            mix = GaussianMixture(weights=weights, means=means, covs=covs)
            spec = DgpSpec(
                dimension=d,
                n_obs=n,
                coefficients=mix,
                covariate_mean=_parse_vector(model_cfg["covariate_mean"], "covariate_mean"),
                covariate_cov=_parse_matrix(model_cfg["covariate_cov"], "covariate_cov"),
                seed=seed,
                fixed_value=fixed,
            )
        except ValueError as exc:
            raise CliError(f"invalid custom model: {exc}") from exc
    else:
        raise CliError(f"unknown model preset {preset!r}")
    if preset != "custom" and fixed != 1.0:
        spec = replace(spec, fixed_value=fixed)
    return spec


def resolve_estimator_config(est_cfg):
    """Construct the EstimatorConfig described by the [estimator] section,
    each key parsed by the type of its default; the library checks ranges."""
    parse = {int: _parse_int, float: _parse_float, str: lambda text, what: text}
    return EstimatorConfig(
        **{f.name: parse[type(f.default)](est_cfg[f.name], f.name) for f in fields(EstimatorConfig)}
    )


def evaluation_grid(dimension, resolution, points_file=""):
    """Evaluation points: circle grid (d=2), cosine-uniform grid (d=3), or file."""
    if points_file:
        return _read_points_file(points_file, dimension)
    if resolution < 2:
        raise CliError(f"grid resolution must be >= 2, got {resolution}")
    if dimension == 2:
        theta = 2.0 * math.pi * np.arange(resolution) / resolution
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if dimension == 3:
        t = -1.0 + 2.0 * (np.arange(resolution) + 0.5) / resolution
        phi = math.pi * np.arange(2 * resolution) / resolution
        tt, pp = np.meshgrid(t, phi, indexing="ij")
        r = np.sqrt(np.clip(1.0 - tt**2, 0.0, None))
        return np.column_stack(
            [(r * np.cos(pp)).ravel(), (r * np.sin(pp)).ravel(), tt.ravel()]
        )
    raise CliError(
        f"no built-in grid for dimension {dimension}; supply [grid] points_file"
    )


def _read_points_file(path, dimension):
    """Rows of a points CSV, each within 1e-6 of unit norm, renormalized;
    a UTF-8 byte-order mark is skipped, as read_sample skips one."""
    try:
        pts = np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8-sig")
        return normalize(check_on_sphere(pts, d=dimension, tol=1e-6))
    except OSError as exc:
        raise CliError(f"cannot read points file {path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"bad points file {path}: {exc}") from exc


def _write_lines(path, lines):
    """Write each line, newline-terminated, to path."""
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def write_sample(sample, path):
    """Write a ChoiceSample as CSV with header y,x0,...,x{d-1}."""
    header = ",".join(["y"] + [f"x{j}" for j in range(sample.dimension)])
    rows = (str(int(yi)) + "," + ",".join(f"{v:.17g}" for v in xi) for yi, xi in zip(sample.y, sample.x))
    _write_lines(path, [header, *rows])


def read_sample(path):
    """Parse a dataset CSV back into a ChoiceSample.

    Rows whose coordinates are off the unit sphere by more than 1e-6 are
    renormalized with a warning on stderr; genuinely malformed rows,
    NaN and infinite fields included, abort with the offending line
    number.  A UTF-8 byte-order mark, as spreadsheet programs write one,
    is skipped.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CliError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0] != "y" or header[1:] != [
            f"x{j}" for j in range(len(header) - 1)
        ]:
            raise CliError(
                f"{path}: line 1: bad header {','.join(header)!r}, "
                "expected y,x0,...,x{d-1}"
            )
        d = len(header) - 1
        ys, xs = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != d + 1:
                raise CliError(
                    f"{path}: line {lineno}: expected {d + 1} fields, got {len(row)}"
                )
            try:
                yi = int(row[0])
                xi = [float(tok) for tok in row[1:]]
            except ValueError:
                raise CliError(f"{path}: line {lineno}: non-numeric field") from None
            if not all(map(math.isfinite, xi)):
                raise CliError(f"{path}: line {lineno}: NaN or infinite field")
            if yi not in (0, 1):
                raise CliError(f"{path}: line {lineno}: y must be 0 or 1, got {yi}")
            ys.append(yi)
            xs.append(xi)
    if not ys:
        raise CliError(f"{path}: no data rows")
    x = np.array(xs)
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.argmax(norms == 0.0))
        raise CliError(f"{path}: line {bad + 2}: zero covariate vector")
    # renormalize only rows that need it, so rows written at 17 significant
    # digits survive a read-write cycle bit for bit
    need = np.abs(norms - 1.0) > 1e-13
    if np.any(need):
        x[need] = x[need] / norms[need, None]
    off = np.abs(norms - 1.0) > 1e-6
    if np.any(off):
        print(
            f"warning: renormalized {int(off.sum())} rows of {path} "
            "whose norm was off by more than 1e-6",
            file=sys.stderr,
        )
    try:
        return ChoiceSample(y=np.array(ys), x=x)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _json_text(payload, path):
    """The payload as sorted, indented JSON, refused if it holds NaN or inf."""
    try:
        return json.dumps(
            payload, default=lambda a: a.tolist(), indent=2, sort_keys=True, allow_nan=False
        )
    except ValueError as exc:
        raise CliError(f"not writing {path}: {exc}") from exc


def _write_json(path, payload):
    _write_lines(path, [_json_text(payload, path)])


def _write_with_report(path, lines, payload):
    """Write lines to path and payload to path + ".report.json", the JSON
    serialised first so that a payload it refuses leaves neither file."""
    report_path = path + ".report.json"
    report = _json_text(payload, report_path)
    _write_lines(path, lines)
    _write_lines(report_path, [report])


def _config_echo(config, n_obs, dimension):
    return dict(asdict(config), n_obs=n_obs, dimension=dimension, trimming_floor=config.trimming_floor(n_obs))


def _diagnostic_report(diag, d):
    return {
        "axis": diag.axis,
        "hemisphere_mass_plus": diag.mass_plus,
        "hemisphere_mass_minus": diag.mass_minus,
        "violation_score": diag.violation_score,
        "threshold": diag.threshold,
        "target_mass": 1.0 / (2.0 * surface_area(d)),
    }


def cmd_simulate(args):
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else _parse_int(cfg["run"]["seed"], "seed")
    spec = build_dgp(cfg["model"], seed=seed)
    draw = generate(spec)
    write_sample(draw.sample, args.out)
    print(f"wrote {spec.n_obs} rows to {args.out}")
    return 0


def cmd_estimate(args):
    cfg = load_config(args.config)
    config = resolve_estimator_config(cfg["estimator"])
    sample = read_sample(args.data)
    d = sample.dimension
    resolution = args.grid_res if args.grid_res is not None else _parse_int(
        cfg["grid"]["resolution"], "grid resolution", minimum=2
    )
    grid = evaluation_grid(d, resolution, cfg["grid"]["points_file"])
    est = estimate_fbeta(sample, config)
    values = est.density(grid)
    header = ",".join([f"b{j}" for j in range(d)] + ["density"])
    rows = (",".join(f"{v:.17g}" for v in pt) + f",{val:.17g}" for pt, val in zip(grid, values))
    report = {
        "config": _config_echo(config, sample.n_obs, d),
        "grid_points": int(grid.shape[0]),
        "diagnostic": _diagnostic_report(identification_diagnostic(est), d),
        "weights": weight_summary(est),
    }
    _write_with_report(args.out, [header, *rows], report)
    print(f"wrote {grid.shape[0]} grid values to {args.out}")
    print(f"wrote report to {args.out}.report.json")
    return 0


def cmd_diagnose(args):
    cfg = load_config(args.config)
    config = resolve_estimator_config(cfg["estimator"])
    sample = read_sample(args.data)
    d = sample.dimension
    resolution = args.grid_res if args.grid_res is not None else 32
    est = estimate_fbeta(sample, config)
    diag = identification_diagnostic(est, resolution=resolution)
    report = _diagnostic_report(diag, d)
    target = report["target_mass"]
    print("one-hemisphere support diagnostic")
    print(f"  axis: {np.array2string(diag.axis, precision=6)}")
    print(f"  hemisphere mass  +: {diag.mass_plus:.6g}  (target {target:.6g})")
    print(f"  hemisphere mass  -: {diag.mass_minus:.6g}  (target {-target:.6g})")
    print(f"  violation score   : {diag.violation_score:.6g}")
    print(f"  positivity cutoff : {diag.threshold:.6g}")
    if args.out:
        _write_json(args.out, {"config": _config_echo(config, sample.n_obs, d), **report})
        print(f"wrote report to {args.out}")
    return 0


def _bench_task(payload):
    """One (sample size, replication) cell of the benchmark grid."""
    spec, config, n, rep, seed, quad_points, quad_weights, truth = payload
    cell_spec = replace(
        spec, n_obs=n, seed=np.random.SeedSequence((seed, n, rep))
    )
    draw = generate(cell_spec)
    est = estimate_fbeta(draw.sample, config)
    diff = est.density(quad_points) - truth
    l1 = float(np.sum(quad_weights * np.abs(diff)))
    l2 = float(math.sqrt(np.sum(quad_weights * diff**2)))
    linf = float(np.max(np.abs(diff)))
    return n, rep, l1, l2, linf


def cmd_bench(args):
    cpus = os.cpu_count() or 1
    if not 1 <= args.threads <= cpus:
        raise CliError(f"--threads must be from 1 to the CPU count, {cpus}, got {args.threads}")
    cfg = load_config(args.config)
    config = resolve_estimator_config(cfg["estimator"])
    seed = args.seed if args.seed is not None else _parse_int(cfg["run"]["seed"], "seed")
    n_grid = [
        _parse_int(tok, "bench n_grid entry", minimum=3)
        for tok in cfg["bench"]["n_grid"].split()
    ]
    if not n_grid:
        raise CliError("bench n_grid is empty")
    if len(set(n_grid)) != len(n_grid):
        raise CliError(f"bench n_grid repeats a size: {cfg['bench']['n_grid']!r}")
    reps = _parse_int(cfg["bench"]["replications"], "bench replications", minimum=1)
    resolution = _parse_int(cfg["bench"]["resolution"], "bench resolution", minimum=4)
    spec = build_dgp(cfg["model"], seed=seed)
    quad = build_quadrature(spec.dimension, resolution, seed=0)
    truth = true_fbeta_on_sphere(spec, quad.points)
    if not np.any(truth):
        cause = (
            f"is fixed_value = {spec.fixed_value} too far from 1?"
            if spec.fixed_value != 1.0
            else "do mixture_means and mixture_covs put the mass between the nodes?"
        )
        raise CliError(
            f"the true density is 0 at every node of the bench quadrature, so there is no "
            f"error to measure; {cause}"
        )
    tasks = [
        (spec, config, n, rep, seed, quad.points, quad.weights, truth)
        for n in n_grid
        for rep in range(reps)
    ]
    if args.threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(_bench_task, tasks, chunksize=1))
    else:
        rows = [_bench_task(t) for t in tasks]
    rows.sort(key=lambda r: (r[0], r[1]))
    # statistics.median gives np.median's value for finite errors without
    # loading numpy.ma, which np.median imports for its NaN check.
    from statistics import median

    medians = {n: median(r[3] for r in rows if r[0] == n) for n in n_grid}
    summary = {
        "replications": reps,
        "median_l2": {str(n): medians[n] for n in n_grid},
        "quadrature_resolution": resolution,
    }
    if len(n_grid) >= 2:
        slope = float(
            np.polyfit(np.log(np.array(n_grid, dtype=float)), np.log([medians[n] for n in n_grid]), 1)[0]
        )
        summary["l2_slope"] = slope
        print(f"log-log slope of median L2 error: {slope:.4f}")
    table = (f"{n},{rep},{l1:.17g},{l2:.17g},{linf:.17g}" for n, rep, l1, l2, linf in rows)
    _write_with_report(args.out, ["n_obs,replication,l1,l2,linf", *table], summary)
    for n in n_grid:
        print(f"N={n}: median L2 error {medians[n]:.6g}")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spherecoef",
        description="Random-coefficients density estimation on the sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        if needs_out:
            p.add_argument("--out", required=True, help="output path")

    p_sim = sub.add_parser("simulate", help="draw a synthetic dataset")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="fit the coefficient density")
    p_est.add_argument("data", help="dataset CSV (y,x0,...,x{d-1})")
    common(p_est)
    p_est.add_argument("--grid-res", type=int, default=None, help="evaluation grid resolution")
    p_est.set_defaults(func=cmd_estimate)

    p_diag = sub.add_parser("diagnose", help="one-hemisphere support diagnostic")
    p_diag.add_argument("data", help="dataset CSV (y,x0,...,x{d-1})")
    common(p_diag, needs_out=False)
    p_diag.add_argument("--out", default=None, help="optional JSON report path")
    p_diag.add_argument("--grid-res", type=int, default=None, help="probe grid resolution")
    p_diag.set_defaults(func=cmd_diagnose)

    p_bench = sub.add_parser("bench", help="Monte-Carlo error study")
    common(p_bench)
    p_bench.add_argument("--threads", type=int, default=1, help="worker processes")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
