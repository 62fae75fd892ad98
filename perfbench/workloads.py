"""The three benchmark workloads: fit-5k, query-2k and cli-small.

Each workload generates its inputs from the seed alone and hands the
package only those inputs.  run.py calls, per workload:

- setup()              repeated several times; the last state is used;
- op(i)                one closed-loop operation, returns a record;
- check(rec)           failure messages for that record;
- end_to_end(records, norm)
                       end-to-end metrics (setup_s and peak_rss_mb are
                       added by run.py); records hold measured
                       (start, end) intervals and norm scales one to the
                       reference speed (see speed.py);
- summary_lines(records, e2e, norm)
                       human-readable per-workload figures (estimate_s,
                       query_p90_ms, cli_bench_s, ...);
- reference(i) / traced(tracer, i) / check_traced(rec)
                       the same composition untraced and traced, alternated
                       in the traced run to measure tracing overhead;
- probes(tracer)       direct calls into single layers, traced run only;
- facts()              deterministic estimator telemetry.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import replace

import numpy as np

import checks
from common import (
    SERIES_CHUNK,
    child_env,
    hemisphere_probe,
    run_timed,
    series_probe,
    spherecoef_cmd,
    telemetry,
    traced_density,
    traced_fit,
)
from spherecoef import cli
from spherecoef.estimator import (
    CoefficientDensity,
    EstimatorConfig,
    confidence_interval,
    estimate_fbeta,
    identification_diagnostic,
    marginal_density,
    standard_error,
)
from spherecoef.simulate import DgpSpec, GaussianMixture, generate, true_fbeta_on_sphere
from spherecoef.sphere import build_quadrature, sample_uniform

GRID_RES = 24  # cli.evaluation_grid(3, 24): 1 152 points
DIAG_RES = 32  # identification_diagnostic default: 2 048 probe nodes
L2_RES = 16  # quadrature the bench subcommand uses for error norms


def percentile(values, q):
    """Inclusive-method percentile (q in 1..99) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail(values):
    """The highest percentile up to the 90th with at least ten values beyond
    it; the median when there are fewer than 20 values."""
    n = len(values)
    return percentile(values, min(90, int(100 * (1 - 10 / n))) if n >= 20 else 50)


class Fit5k:
    """Repeated in-process estimate pipeline on model_1, N = 5 000, d = 3.

    Operations cycle over SAMPLES datasets drawn from the seed.  The
    warm-up and the first two timed operations fit all three, so l2_error,
    the mean over the datasets, does not depend on how many operations fit
    in the run, and it varies less from seed to seed than one dataset's.
    """

    name = "fit-5k"
    SAMPLES = 3

    def __init__(self, seed, tiny, workdir, src):
        self.seed = seed
        self.n_obs = 200 if tiny else 5000
        self.series_size = 40_000 if tiny else SERIES_CHUNK
        self.config = EstimatorConfig()
        self.fitted = {}  # dataset index -> (estimate, grid values, l2)

    def setup(self):
        self.specs = [
            DgpSpec.model_1(n_obs=self.n_obs, seed=np.random.SeedSequence((self.seed, k + 1)))
            for k in range(self.SAMPLES)
        ]
        self.samples = [generate(spec).sample for spec in self.specs]
        self.grid = cli.evaluation_grid(3, GRID_RES)
        self.quad = build_quadrature(3, L2_RES, seed=0)
        self.truth = true_fbeta_on_sphere(self.specs[0], self.quad.points)
        self.probe = sample_uniform(3, 16, seed=self.seed)

    def op(self, i):
        k = i % self.SAMPLES
        t0 = time.perf_counter()
        est = estimate_fbeta(self.samples[k], self.config)
        t1 = time.perf_counter()
        values = est.density(self.grid)
        diag = identification_diagnostic(est)
        t2 = time.perf_counter()
        return {"latency": (t0, t2), "fit": (t0, t1), "dataset": k, "est": est, "values": values, "diag": diag}

    def check(self, rec):
        est = rec["est"]
        l2 = checks.l2_distance(est.density(self.quad.points), self.truth, self.quad.weights)
        fails = checks.density("grid density", rec["values"])
        fails += checks.odd_part("odd part", est.odd_values, self.probe)
        fails += checks.diagnostic("diagnostic", rec["diag"].mass_plus, rec["diag"].mass_minus)
        fails += checks.finite("l2_error", [l2])
        self.fitted[rec["dataset"]] = (est, rec["values"], l2)
        return fails

    def end_to_end(self, records, norm):
        lat = [norm(r["latency"]) for r in records]
        est_s = statistics.median(lat)
        return {
            "fit_s": statistics.median(norm(r["fit"]) for r in records),
            "op_p50_ms": 1e3 * est_s,
            "op_tail_ms": 1e3 * tail(lat),
            "points_per_s": len(self.grid) / est_s,
            "l2_error": statistics.mean(l2 for _, _, l2 in self.fitted.values()),
        }

    def summary_lines(self, records, e2e, norm):
        return {"estimate_s": (e2e["op_p50_ms"] / 1e3, "s"), "operations": (len(records), "count")}

    reference = op

    def traced(self, tracer, i):
        k = i % self.SAMPLES
        with tracer.operation("estimate"):
            est = traced_fit(tracer, self.samples[k], self.config)
            values = traced_density(tracer, est, self.grid)
            with tracer.span("sphere.build_quadrature"):
                quad = build_quadrature(3, DIAG_RES, seed=0)
            with tracer.span("estimator.identification_diagnostic"):
                diag = identification_diagnostic(est, quad=quad)
        self.diag_quad = quad
        return {"dataset": k, "est": est, "values": values, "diag": diag}

    check_traced = check

    def probes(self, tracer):
        with tracer.operation("setup"):
            with tracer.span("simulate.generate"):
                generate(self.specs[0])
            with tracer.span("cli.evaluation_grid"):
                cli.evaluation_grid(3, GRID_RES)
            with tracer.span("simulate.true_fbeta_on_sphere"):
                true_fbeta_on_sphere(self.specs[0], self.quad.points)
        hemisphere_probe(tracer, self.fitted[0][0], self.diag_quad)
        series_probe(tracer, self.seed, self.series_size)

    def facts(self):
        fits = [self.fitted[k] for k in sorted(self.fitted)]
        return telemetry([f[0] for f in fits], [f[1] for f in fits])


# Request mix per block of 20, shuffled by the seed.  Measured latencies
# order the kinds ci < predict < marginal < density, so the shares put the
# median inside the marginal requests and the 90th percentile inside the
# density requests, away from the class boundaries.
QUERY_BLOCK = ("density",) * 5 + ("marginal",) * 7 + ("predict",) * 4 + ("ci",) * 4
QUERY_POINTS = {"density": 1152, "predict": 256, "ci": 16, "marginal": 512}
POOL = 8  # distinct inputs per request kind and model


def _design_d4(n_obs, seed):
    """Single-Gaussian design on S^3, the d = 4 analogue of model_1."""
    mix = GaussianMixture(weights=[1.0], means=[[0.0, 0.0, 0.0]], covs=0.3 * np.eye(3))
    return DgpSpec(
        dimension=4,
        n_obs=n_obs,
        coefficients=mix,
        covariate_mean=np.zeros(3),
        covariate_cov=2.0 * np.eye(3),
        seed=seed,
    )


class Query2k:
    """Seeded request stream over two fitted models (d = 3 and d = 4)."""

    name = "query-2k"

    def __init__(self, seed, tiny, workdir, src):
        self.seed = seed
        self.n_obs = 200 if tiny else 2000
        self.series_size = 40_000 if tiny else SERIES_CHUNK
        self.fit_times = []

    def setup(self):
        specs = [
            DgpSpec.model_1(n_obs=self.n_obs, seed=np.random.SeedSequence((self.seed, 1))),
            _design_d4(self.n_obs, np.random.SeedSequence((self.seed, 2))),
        ]
        samples = [generate(s).sample for s in specs]
        t0 = time.perf_counter()
        models = [CoefficientDensity().fit(s.x, s.y) for s in samples]
        self.fit_times.append((t0, time.perf_counter()))
        self.specs, self.samples, self.models = specs, samples, models
        self.grids = [
            cli.evaluation_grid(3, GRID_RES),
            sample_uniform(4, QUERY_POINTS["density"], seed=(self.seed, 6)),
        ]
        self.rows = [
            [
                generate(replace(s, n_obs=QUERY_POINTS["predict"], seed=np.random.SeedSequence((self.seed, 3, k, j)))).sample.x
                for j in range(POOL)
            ]
            for k, s in enumerate(specs)
        ]
        self.ci_points = [
            [sample_uniform(s.dimension, QUERY_POINTS["ci"], seed=(self.seed, 4, k, j)) for j in range(POOL)]
            for k, s in enumerate(specs)
        ]
        rng = np.random.default_rng((self.seed, 5))
        self.marginal_values = rng.uniform(0.05, 0.95, size=POOL)
        self.stream = [str(k) for _ in range(200) for k in rng.permutation(QUERY_BLOCK)]
        self.probe = [sample_uniform(s.dimension, 16, seed=self.seed) for s in specs]
        # product rule on S^2, fixed Monte-Carlo nodes on S^3
        self.quads = [build_quadrature(3, L2_RES, seed=0), build_quadrature(4, 4096, seed=0)]
        self.truths = [true_fbeta_on_sphere(s, q.points) for s, q in zip(specs, self.quads)]

    def _request(self, i):
        kind = self.stream[i % len(self.stream)]
        k = i % 2
        j = (i // 2) % POOL
        return kind, k, j

    def op(self, i):
        kind, k, j = self._request(i)
        m, d = self.models[k], self.specs[k].dimension
        t0 = time.perf_counter()
        if kind == "density":
            out = m.density(self.grids[k])
        elif kind == "predict":
            out = m.predict_proba(self.rows[k][j])
        elif kind == "ci":
            out = m.confidence_interval(self.ci_points[k][j])
        else:
            out = m.marginal([d - 1], [self.marginal_values[j]], seed=j)
        return {"latency": (t0, time.perf_counter()), "kind": kind, "model": k, "pool": j, "out": out}

    def check(self, rec):
        kind, k, j, out = rec["kind"], rec["model"], rec["pool"], rec["out"]
        m = self.models[k]
        what = f"{kind} (d={self.specs[k].dimension})"
        if kind == "density":
            return checks.density(what, out) + checks.odd_part(what, m.estimate_.odd_values, self.probe[k])
        if kind == "predict":
            return checks.choice_probability(
                what, m.choice_probability_.evaluate, self.rows[k][j][:8], out
            )
        if kind == "ci":
            return checks.interval(what, *out)
        return checks.density(what, [out])

    def end_to_end(self, records, norm):
        lat = [norm(r["latency"]) for r in records]
        points = sum(QUERY_POINTS[r["kind"]] for r in records)
        l2 = [
            checks.l2_distance(m.density(q.points), truth, q.weights)
            for m, q, truth in zip(self.models, self.quads, self.truths)
        ]
        return {
            "fit_s": statistics.median(map(norm, self.fit_times)),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_tail_ms": 1e3 * tail(lat),
            "points_per_s": points / sum(lat),
            "l2_error": statistics.mean(l2),
        }

    def summary_lines(self, records, e2e, norm):
        return {
            "query_points_per_s": (e2e["points_per_s"], "1/s"),
            "query_p50_ms": (e2e["op_p50_ms"], "ms"),
            "query_p90_ms": (1e3 * percentile([norm(r["latency"]) for r in records], 90), "ms"),
            "requests": (len(records), "count"),
        }

    reference = op

    def traced(self, tracer, i):
        kind, k, j = self._request(i)
        m, d = self.models[k], self.specs[k].dimension
        with tracer.operation(f"query.{kind}"):
            if kind == "density":
                out = traced_density(tracer, m.estimate_, self.grids[k])
            elif kind == "predict":
                rows = self.rows[k][j]
                cp = m.choice_probability_
                with tracer.span("estimator.ChoiceProbabilityEstimate.evaluate"):
                    with tracer.span("kernels.HarmonicMixture.evaluate", pairs=len(rows) * m.estimate_.n_obs):
                        odd = cp.odd_part.evaluate(rows)
                    p = 0.5 + odd
                p = np.clip(p, 0.0, 1.0)
                out = np.column_stack([1.0 - p, p])
            elif kind == "ci":
                with tracer.span("estimator.confidence_interval"):
                    out = confidence_interval(m.estimate_, self.ci_points[k][j])
            else:
                with tracer.span("estimator.marginal_density"):
                    out = marginal_density(m.estimate_, [d - 1], [self.marginal_values[j]], seed=j)
        if kind == "ci":
            pts = self.ci_points[k][j]
            with tracer.operation("estimator.standard_error", points=len(pts)):
                standard_error(m.estimate_, pts)
        return {"kind": kind, "model": k, "pool": j, "out": out}

    check_traced = check

    def probes(self, tracer):
        for spec, sample, model in zip(self.specs, self.samples, self.models):
            with tracer.operation("setup"):
                with tracer.span("simulate.generate"):
                    generate(spec)
                traced_fit(tracer, sample, model.config_, choice=True)
        series_probe(tracer, self.seed, self.series_size)

    def facts(self):
        ests = [m.estimate_ for m in self.models]
        return telemetry(ests, [e.density(g) for e, g in zip(ests, self.grids)])


class CliSmall:
    """Subprocess invocations of the command-line entry point on 500 rows."""

    name = "cli-small"

    def __init__(self, seed, tiny, workdir, src):
        self.seed = seed
        self.work = workdir
        self.env = child_env(src)
        self.n_obs = 100 if tiny else 500
        self.n_grid = (50, 100) if tiny else (250, 500, 1000)
        self.reps = 2 if tiny else 10

    def _path(self, name):
        return str(self.work / name)

    def _run(self, argv):
        interval, proc = run_timed(argv, self.env, self.work)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[2:]} exited {proc.returncode}: {proc.stderr.strip()}")
        return interval

    def _cli(self, *args):
        return self._run(spherecoef_cmd(*args))

    def setup(self):
        with open(self._path("model.ini"), "w") as fh:
            fh.write(f"[model]\nn_obs = {self.n_obs}\n")
            fh.write(f"[bench]\nn_grid = {' '.join(map(str, self.n_grid))}\nreplications = {self.reps}\n")
        self.csv = self._path("sample.csv")
        self._cli("simulate", "--config", self._path("model.ini"), "--seed", str(self.seed), "--out", self.csv)
        self.sample = cli.read_sample(self.csv)
        self.grid = cli.evaluation_grid(3, GRID_RES)
        self.est = estimate_fbeta(self.sample, EstimatorConfig())
        self.reference_values = self.est.density(self.grid)

    def op(self, i):
        # fit_s: the same fit in-process, timed apart from the CLI cycle
        fits = []
        for _ in range(10):
            t0 = time.perf_counter()
            est = estimate_fbeta(self.sample, EstimatorConfig())
            fits.append((t0, time.perf_counter()))
        grid_out, bench_out = self._path("grid.csv"), self._path("bench.csv")
        t_est = self._cli("estimate", self.csv, "--out", grid_out)
        t_bench = self._cli(
            "bench", "--threads", "1", "--config", self._path("model.ini"),
            "--seed", str(self.seed), "--out", bench_out,
        )
        t_imp = self._run([sys.executable, "-c", "import spherecoef"])
        return {
            "latency": (t_est[0], t_imp[1]),
            "fits": fits,
            "inprocess": est.density(self.grid),
            "estimate": t_est,
            "bench": t_bench,
            "import": t_imp,
            "grid_out": grid_out,
            "bench_out": bench_out,
        }

    def check(self, rec):
        fails = []
        table = np.loadtxt(rec["grid_out"], delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (len(self.grid), 4):
            return [f"estimate grid has shape {table.shape}"]
        fails += checks.density("cli grid density", table[:, 3])
        fails += checks.close("cli grid points vs cli.evaluation_grid", table[:, :3], self.grid)
        fails += checks.close("cli grid density vs in-process estimate_fbeta", table[:, 3], rec["inprocess"])
        report = checks.load_json(rec["grid_out"] + ".report.json")
        diag = report["diagnostic"]
        fails += checks.diagnostic("cli diagnostic", diag["hemisphere_mass_plus"], diag["hemisphere_mass_minus"])
        summary = checks.load_json(rec["bench_out"] + ".report.json")
        errors = np.loadtxt(rec["bench_out"], delimiter=",", skiprows=1, ndmin=2)
        if errors.shape != (len(self.n_grid) * self.reps, 5):
            fails.append(f"bench table has shape {errors.shape}")
        fails += checks.finite("bench errors", errors)
        medians = [summary["median_l2"][str(n)] for n in self.n_grid]
        fails += checks.finite("bench median_l2", medians)
        rec["l2"] = float(np.mean(medians))
        return fails

    def end_to_end(self, records, norm):
        lat = [norm(r["latency"]) for r in records]
        return {
            "fit_s": statistics.median(norm(f) for r in records for f in r["fits"]),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_tail_ms": 1e3 * tail(lat),
            "points_per_s": len(self.grid) / statistics.median(lat),
            "l2_error": records[0]["l2"],
        }

    def summary_lines(self, records, e2e, norm):
        return {
            "cli_estimate_s": (statistics.median(norm(r["estimate"]) for r in records), "s"),
            "cli_bench_s": (statistics.median(norm(r["bench"]) for r in records), "s"),
            "import_s": (statistics.median(norm(r["import"]) for r in records), "s"),
            "l2_error": (e2e["l2_error"], "L2"),
        }

    def reference(self, i):
        sample = cli.read_sample(self.csv)
        grid = cli.evaluation_grid(3, GRID_RES)
        est = estimate_fbeta(sample, EstimatorConfig())
        values = est.density(grid)
        diag = identification_diagnostic(est)
        return {"est": est, "values": values, "diag": diag}

    def traced(self, tracer, i):
        with tracer.operation("cli.estimate"):
            with tracer.span("cli.read_sample", rows=self.n_obs):
                sample = cli.read_sample(self.csv)
            with tracer.span("cli.evaluation_grid"):
                grid = cli.evaluation_grid(3, GRID_RES)
            est = traced_fit(tracer, sample, EstimatorConfig())
            values = traced_density(tracer, est, grid)
            with tracer.span("sphere.build_quadrature"):
                quad = build_quadrature(3, DIAG_RES, seed=0)
            with tracer.span("estimator.identification_diagnostic"):
                diag = identification_diagnostic(est, quad=quad)
        self.diag_quad = quad
        return {"est": est, "values": values, "diag": diag}

    def check_traced(self, rec):
        fails = checks.density("grid density", rec["values"])
        fails += checks.close("in-process grid density vs set-up estimate", rec["values"], self.reference_values)
        return fails + checks.diagnostic("diagnostic", rec["diag"].mass_plus, rec["diag"].mass_minus)

    def probes(self, tracer):
        spec = cli.build_dgp(cli.load_config(self._path("model.ini"))["model"], seed=self.seed)
        with tracer.operation("cli.simulate"):
            with tracer.span("simulate.generate"):
                draw = generate(spec)
            with tracer.span("cli.write_sample"):
                cli.write_sample(draw.sample, self._path("probe.csv"))
        with tracer.operation("cli.bench"):
            quad = build_quadrature(3, L2_RES, seed=0)
            with tracer.span("simulate.true_fbeta_on_sphere"):
                true_fbeta_on_sphere(spec, quad.points)
            for n in self.n_grid:
                with tracer.span("simulate.generate"):
                    generate(replace(spec, n_obs=n, seed=np.random.SeedSequence((self.seed, n, 0))))
        hemisphere_probe(tracer, self.est, self.diag_quad)

    def import_times(self):
        """Cumulative import times from python -X importtime, median of three."""
        wanted = ("spherecoef", "spherecoef.cli", "scipy.stats")
        runs = {name: [] for name in wanted}
        for _ in range(3):
            _, proc = run_timed(
                [sys.executable, "-X", "importtime", "-c", "import spherecoef"],
                self.env, self.work,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"import spherecoef exited {proc.returncode}")
            seen = {}
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                    seen[parts[2].strip()] = int(parts[1]) * 1e-6
            for name in wanted:
                runs[name].append(seen.get(name, 0.0))
        return {f"import.{name}.s": statistics.median(v) for name, v in runs.items()}

    def facts(self):
        return telemetry([self.est], [self.reference_values])


WORKLOADS = {w.name: w for w in (Fit5k, Query2k, CliSmall)}
