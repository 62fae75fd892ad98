"""Command-line front end: simulate, estimate, diagnose, bench.

Subcommands
-----------
simulate   draw a synthetic dataset and write it as CSV
estimate   fit the coefficient density on a dataset, write grid values + report
           (config echo, support diagnostic, and how the weights were formed)
diagnose   run the one-hemisphere support diagnostic on a dataset
bench      Monte-Carlo error study over a sample-size grid, on --threads
           worker processes (1 to the CPU count)

Config file grammar (INI): [section] headers and key = value or key: value
lines, keys in any case; a line indented deeper than its key continues the
value, and a line that begins with # or ; is a comment.  Values are literal.
Every key is optional; shown are the defaults (the custom model has none):

    [model]
    # model_1, model_2 or custom
    preset = model_1
    n_obs = 500
    # finite, > 0, with fixed_value^(d-1) finite
    fixed_value = 1.0
    # read only when preset = custom: vectors are space-separated, matrix
    # rows are separated by ';', mixture_means has one row per component,
    # and mixture_covs one matrix, or one per component separated by '|'
    dimension = 3
    covariate_mean = 0 0
    covariate_cov = 2 0 ;
        0 2
    mixture_weights = 0.5 0.5
    mixture_means = 0.7 -0.7 ; -0.7 0.7
    mixture_covs = 0.3 0.15 ; 0.15 0.3

    [estimator]
    # ranges are EstimatorConfig's; family is riesz, delayed_means or dirichlet
    truncation = 3
    trimming_exponent = 2.0
    family = riesz
    s = 2.0
    l = 3
    fx_truncation = 10

    [grid]
    # circle points (d=2) or polar levels (d=3), >= 2, as is estimate's
    # --grid-res, which overrides it (also when points_file is set)
    resolution = 24
    # CSV of evaluation points, required for d >= 4
    points_file =

    [run]
    seed = 0

    [bench]
    n_grid = 250 500 1000 2000
    replications = 50
    # quadrature resolution for error norms
    resolution = 16

The dataset and the points file share one CSV grammar: blank lines and
whole-line # comments are skipped.  Exit codes: 0 on success, 2 on usage,
config, or data errors (CliError, or the library's ValueError), with one
"error:" line, which names the file and line of a refused input, and no
output file.  Outputs are byte-identical across runs for the same config
and seed; floats are written with 17 significant digits, which round-trips
exactly.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import csv
import io
import json
import math
import os
import re
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
from .sphere import _circle_rule, _normalize, build_quadrature, surface_area

__all__ = ["main", "entry_point"]


class CliError(Exception):
    """Fatal usage, config, or data problem (exit code 2)."""


class _Setting(str):
    """A config value read from a file, which keeps where: the
    "<path>: line <n>: " prefix of its refusals.  It is still the string."""

    def __new__(cls, value, where):
        setting = super().__new__(cls, value)
        setting.where = where
        return setting


def _where(text):
    """The file-and-line prefix of a config value ("" for a default)."""
    return getattr(text, "where", "")


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
    """Read an INI config into a dict of dicts, applying defaults, in one
    pass by the grammar above; a refusal names the line it is found on."""
    cfg = {sec: dict(keys) for sec, keys in _DEFAULTS.items()}
    if path is None:
        return cfg
    seen, section, key, indent = set(), None, None, 0
    for number, line in enumerate(_read_text(path, "config ").split("\n"), start=1):
        text, depth = line.strip(), len(line) - len(line.lstrip())
        if not text or text[0] in "#;":
            continue
        if key and depth > indent:  # continues the value above
            value = cfg[section][key]
            cfg[section][key] = _Setting(f"{value}\n{text}", value.where)
            continue
        where, indent = f"{path}: line {number}: ", depth
        if text[0] == "[" and text[-1] == "]":
            key, section = None, text[1:-1]
            if section not in cfg:
                raise CliError(f"{where}unknown config section [{section}]")
        elif section is None or text[0] == "[":
            raise CliError(f"cannot parse config {where}expected a [section] header: {text!r}")
        elif not (pair := re.match(r"([^=:]+)[=:](.*)", text)):  # split at the first = or :
            raise CliError(f"cannot parse config {where}expected key = value: {text!r}")
        else:
            key = pair[1].rstrip().lower()
            if key not in cfg[section]:
                raise CliError(f"{where}unknown config key {key!r} in section [{section}]")
            cfg[section][key] = _Setting(pair[2].strip(), where)
        if (section, key) in seen:
            raise CliError(f"cannot parse config {where}repeated {'key' if key else 'section'}: {text!r}")
        seen.add((section, key))
    return cfg


@contextlib.contextmanager
def _attributed(settings, prefix=""):
    """Re-raise a library ValueError as a CliError at the line of setting prefix + its first word."""
    try:
        yield
    except ValueError as exc:
        raise CliError(_where(settings.get(prefix + str(exc).split(" ", 1)[0])) + str(exc)) from None


def _parse(text, what, convert=float, kind="a number"):
    """convert(text), refused as "<where>what must be kind, got text"."""
    try:
        return convert(text)
    except ValueError:
        raise CliError(f"{_where(text)}{what} must be {kind}, got {text!r}") from None


def _parse_int(text, what, minimum=None):
    value = _parse(text, what, int, "an integer")
    if minimum is not None and value < minimum:
        raise CliError(f"{_where(text)}{what} must be >= {minimum}, got {value}")
    return value


def _parse_vector(text, what):
    return _parse(text, what, lambda t: np.array([float(tok) for tok in t.split()]), "space-separated numbers")


def _parse_matrix(text, what):
    what = _where(text) + what
    rows = [r.strip() for r in text.split(";") if r.strip()]
    if not rows:
        raise CliError(f"{what} is empty")
    mat = [_parse_vector(r, what) for r in rows]
    if len({v.size for v in mat}) != 1:
        raise CliError(f"{what} has rows of unequal length")
    return np.vstack(mat)


def build_dgp(model_cfg, seed=None):
    """Construct the DgpSpec described by the [model] section."""
    preset = model_cfg["preset"]
    n = _parse_int(model_cfg["n_obs"], "n_obs", minimum=1)
    fixed = _parse(model_cfg["fixed_value"], "fixed_value")
    if preset in ("model_1", "model_2"):
        spec = getattr(DgpSpec, preset)(n_obs=n, seed=seed)
        with _attributed(model_cfg):
            return spec if fixed == 1.0 else replace(spec, fixed_value=fixed)
    if preset != "custom":
        raise CliError(f"{_where(preset)}unknown model preset {preset!r}")
    d = _parse_int(model_cfg["dimension"], "dimension", minimum=2)
    weights = _parse_vector(model_cfg["mixture_weights"], "mixture_weights")
    means = _parse_matrix(model_cfg["mixture_means"], "mixture_means")
    what = _where(model_cfg["mixture_covs"]) + "mixture_covs"
    covs = [_parse_matrix(block, what) for block in model_cfg["mixture_covs"].split("|")]
    if len({c.shape for c in covs}) > 1:
        raise CliError(f"{what} holds matrices of unequal size")
    covs = np.stack(covs)
    if covs.shape[0] == 1 and weights.size > 1:
        covs = np.repeat(covs, weights.size, axis=0)
    with _attributed(model_cfg, prefix="mixture_"):
        mix = GaussianMixture(weights=weights, means=means, covs=covs)
    with _attributed(model_cfg):
        return DgpSpec(
            dimension=d,
            n_obs=n,
            coefficients=mix,
            covariate_mean=_parse_vector(model_cfg["covariate_mean"], "covariate_mean"),
            covariate_cov=_parse_matrix(model_cfg["covariate_cov"], "covariate_cov"),
            seed=seed,
            fixed_value=fixed,
        )


def resolve_estimator_config(est_cfg):
    """Construct the EstimatorConfig described by the [estimator] section,
    each key parsed by the type of its default; the library checks ranges."""
    parse = {int: _parse_int, float: _parse, str: lambda text, what: str(text)}
    with _attributed(est_cfg):
        return EstimatorConfig(
            **{f.name: parse[type(f.default)](est_cfg[f.name], f.name) for f in fields(EstimatorConfig)}
        )


def _checked_dimension(est_cfg, config, d):
    """The dimension d, once a command knows it, after the one [estimator]
    bound that needs it, riesz l > (d - 2)/2, refused at its config line."""
    with _attributed(est_cfg):
        return config.main_kernel(d).dimension


def _seed(args, run_cfg):
    """--seed, or else [run] seed; refused below 0."""
    text, what = (run_cfg["seed"], "seed") if args.seed is None else (str(args.seed), "--seed")
    return _parse_int(text, what, minimum=0)


def evaluation_grid(dimension, resolution, points_file=""):
    """Evaluation points: circle grid (d=2), cosine-uniform grid (d=3), or the
    rows of a points file, each within 1e-6 of unit norm, renormalized."""
    if points_file:
        rows = list(_csv_rows(points_file, dimension))
        pts = np.array([values for _, _, values in rows])
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(pts, axis=1)
        if np.any(off := np.abs(norms - 1.0) > 1e-6):
            bad = int(np.argmax(off))
            raise CliError(f"{points_file}: line {rows[bad][0]}: norm {norms[bad]:.17g} is not within 1e-6 of 1")
        return _normalize(pts)
    if resolution < 2:
        raise CliError(f"grid resolution must be >= 2, got {resolution}")
    if dimension == 2:
        return _circle_rule(resolution)[0]
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


def _read_text(path, what=""):
    """The text of a UTF-8 file, a byte-order mark skipped; CliError names
    a file that cannot be read, or the line of a byte that is not UTF-8."""
    try:
        with open(path, "rb") as fh:
            data = fh.read().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise CliError(f"cannot read {what}{path}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise CliError(f"cannot parse {what}{path}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8") from None


def _csv_rows(path, width=None):
    """(line, fields, values) for each row of the UTF-8 CSV at path that is
    neither blank nor a whole-line # comment: its 1-based line number, its
    fields, and those fields as finite floats.  Each row has width fields;
    with width None the first row is a header, yielded with values None,
    that sets the width.  Every refusal names path and the line."""
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    line, values = 1, None
    try:
        for fields in reader:
            first = fields[0].lstrip() if fields else ""
            if (first or len(fields) > 1) and not first.startswith("#"):
                if width is None:
                    width = len(fields)
                elif len(fields) != width:
                    raise CliError(f"{path}: line {line}: expected {width} fields, got {len(fields)}")
                else:
                    try:
                        values = [float(tok) for tok in fields]
                    except ValueError:
                        raise CliError(f"{path}: line {line}: non-numeric field") from None
                    if not all(map(math.isfinite, values)):
                        raise CliError(f"{path}: line {line}: NaN or infinite field")
                yield line, fields, values
            line = reader.line_num + 1
    except csv.Error as exc:
        raise CliError(f"{path}: line {line}: {exc}") from None
    if values is None:
        raise CliError(f"{path}: line {line}: end of file before any data row")


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
    """Parse a dataset CSV back into a ChoiceSample.  Rows whose coordinates
    are off the unit sphere by more than 1e-6 are renormalized with a
    warning on stderr; a malformed row aborts, naming its line."""
    rows = _csv_rows(path)
    line, header, _ = next(rows)
    header = [h.strip() for h in header]
    if len(header) < 3 or header[0] != "y" or header[1:] != [f"x{j}" for j in range(len(header) - 1)]:
        raise CliError(f"{path}: line {line}: bad header {','.join(header)!r}, expected y,x0,...,x{{d-1}}")
    kept = []
    for line, fields, values in rows:
        y = _parse_int(fields[0], f"{path}: line {line}: y")
        if y not in (0, 1):
            raise CliError(f"{path}: line {line}: y must be 0 or 1, got {y}")
        kept.append((line, y, values[1:]))
    lines, ys, xs = zip(*kept)
    x = np.array(xs)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1)
    if np.any(bad := (norms == 0.0) | np.isinf(norms)):
        raise CliError(f"{path}: line {lines[int(np.argmax(bad))]}: covariate norm is 0 or overflows")
    # renormalize only rows that need it, so rows written at 17 significant
    # digits survive a read-write cycle bit for bit
    need = np.abs(norms - 1.0) > 1e-13
    x[need] = x[need] / norms[need, None]
    if np.any(negative := x[:, 0] < -1e-12):  # ChoiceSample's scale-fixing convention
        raise CliError(f"{path}: line {lines[int(np.argmax(negative))]}: x0 must be nonnegative")
    off = np.abs(norms - 1.0) > 1e-6
    if np.any(off):
        print(f"warning: renormalized {int(off.sum())} rows of {path} whose norm was off by more than 1e-6",
              file=sys.stderr)
    return ChoiceSample(y=np.array(ys), x=x)


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
    serialised first so that a payload it refuses leaves neither file, and
    path removed again when the report cannot be written."""
    report_path = path + ".report.json"
    report = _json_text(payload, report_path)
    _write_lines(path, lines)
    try:
        _write_lines(report_path, [report])
    except CliError:
        os.remove(path)
        raise


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
    seed = _seed(args, cfg["run"])
    spec = build_dgp(cfg["model"], seed=seed)
    with _attributed(cfg["model"]):
        draw = generate(spec)
    write_sample(draw.sample, args.out)
    print(f"wrote {spec.n_obs} rows to {args.out}")
    return 0


def cmd_estimate(args):
    cfg = load_config(args.config)
    config = resolve_estimator_config(cfg["estimator"])
    # --grid-res is checked even when [grid] points_file sets the grid, and
    # before the data are read
    flag = args.grid_res is not None
    text, what = (str(args.grid_res), "--grid-res") if flag else (cfg["grid"]["resolution"], "grid resolution")
    resolution = _parse_int(text, what, minimum=2)
    sample = read_sample(args.data)
    d = _checked_dimension(cfg["estimator"], config, sample.dimension)
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
    resolution = 32 if args.grid_res is None else _parse_int(str(args.grid_res), "--grid-res", minimum=4)
    sample = read_sample(args.data)
    d = _checked_dimension(cfg["estimator"], config, sample.dimension)
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
    seed = _seed(args, cfg["run"])
    where = _where(cfg["bench"]["n_grid"])
    n_grid = [_parse_int(tok, f"{where}bench n_grid entry", minimum=3) for tok in cfg["bench"]["n_grid"].split()]
    if not n_grid:
        raise CliError(f"{where}bench n_grid is empty")
    if len(set(n_grid)) != len(n_grid):
        raise CliError(f"{where}bench n_grid repeats a size: {cfg['bench']['n_grid']!r}")
    reps = _parse_int(cfg["bench"]["replications"], "bench replications", minimum=1)
    resolution = _parse_int(cfg["bench"]["resolution"], "bench resolution", minimum=4)
    spec = build_dgp(cfg["model"], seed=seed)
    _checked_dimension(cfg["estimator"], config, spec.dimension)
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
    # each task draws its sample: an overflowing draw names its [model] key
    with _attributed(cfg["model"]):
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

    def common(p, needs_out=True, seeded=False):
        p.add_argument("--config", default=None, help="INI config file")
        if seeded:
            p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        if needs_out:
            p.add_argument("--out", required=True, help="output path")

    p_sim = sub.add_parser("simulate", help="draw a synthetic dataset")
    common(p_sim, seeded=True)
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
    common(p_bench, seeded=True)
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
