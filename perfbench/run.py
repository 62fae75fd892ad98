"""Benchmark harness for spherecoef.

Run from the root of a source checkout (the directory holding src/):

    python3 perfbench/run.py --workload fit-5k --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced operations, runs the single-layer probes,
writes the spans to .perfbench_out/ and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP to one thread before numpy loads; subprocesses inherit it.
os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

SETUP_REPS = {"fit-5k": 5, "query-2k": 8, "cli-small": 3}


def metric_units(root):
    """(end-to-end, per-layer) dicts of metric name -> unit from BENCHMARK.json."""
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(SETUP_REPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes (N = 200, short runs)")
    return p.parse_args(argv)


def import_package(root):
    """Import spherecoef from <root>/src and nowhere else."""
    src = root / "src"
    if not (src / "spherecoef" / "__init__.py").is_file():
        raise SystemExit(f"error: {src}/spherecoef not found; run from the root of a spherecoef checkout")
    sys.path.insert(0, str(src))
    import spherecoef

    if Path(spherecoef.__file__).resolve().parent != (src / "spherecoef").resolve():
        raise SystemExit(f"error: imported spherecoef from {spherecoef.__file__}, not {src}")
    return src


def blas_threads():
    """OpenBLAS thread count as reported by the library numpy loaded."""
    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                return int(getattr(handle, fn)())
    return None


def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Counter:
    """Attempted and failed operations; a failure is an exception or a
    failed output check, reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label, fn, check):
        self.attempted += 1
        try:
            rec = fn()
            fails = check(rec)
        except Exception:
            self.failed += 1
            print(f"{label}: failed\n{traceback.format_exc()}", file=sys.stderr)
            return None
        if fails:
            self.failed += 1
            print(f"{label}: " + "; ".join(fails), file=sys.stderr)
            return None
        return rec


def timed_loop(seconds, step, speed):
    """Closed loop: call step(i) until the time is up (at least once),
    running the speed reference at the start, between operations at most
    INTERVAL_S apart, and at the end."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        if speed.due():
            speed.sample()
        step(i)
        i += 1
    speed.sample()


def measure(wl, args, counter, speed):
    records = []

    def step(i):
        rec = counter.run(f"op {i}", lambda: wl.op(i), wl.check)
        if rec is not None:
            records.append(rec)

    timed_loop(args.seconds, step, speed)
    if not records:
        raise RuntimeError("no operation succeeded")
    return records


def measure_traced(wl, args, counter, out_dir, names, speed):
    from spans import Tracer

    tracer = Tracer()
    plain, traced = [], []

    def step(i):
        t0 = time.perf_counter()
        if counter.run(f"reference {i}", lambda: wl.reference(i), wl.check_traced) is not None:
            plain.append(time.perf_counter() - t0)
        n_spans = len(tracer.spans)
        if counter.run(f"traced {i}", lambda: wl.traced(tracer, i), wl.check_traced) is not None:
            root = tracer.spans[n_spans]
            traced.append(root["end"] - root["start"])

    timed_loop(args.seconds, step, speed)
    if not plain or not traced:
        raise RuntimeError("no operation succeeded")
    wl.probes(tracer)
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json")
    found = tracer.layer_metrics()
    found.update(wl.facts())
    if hasattr(wl, "import_times"):
        found.update(wl.import_times())
    found["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    # layers a workload does not exercise report 0
    return {name: found.get(name, 0.0) for name in names}


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = import_package(root)
    end_to_end, per_layer = metric_units(root)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from speed import SpeedReference
    from workloads import WORKLOADS

    out_dir = root / ".perfbench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print("env " + json.dumps(environment(), sort_keys=True))
        wl = WORKLOADS[args.workload](args.seed, args.tiny, work, src)
        speed = SpeedReference()
        speed.sample()
        setup_times = []
        for _ in range(SETUP_REPS[args.workload]):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append((t0, time.perf_counter()))
            speed.sample()
        counter = Counter()
        counter.run("warm-up", lambda: wl.op(-1), wl.check)
        if args.trace:
            units = per_layer
            metrics = measure_traced(wl, args, counter, out_dir, units, speed)
        else:
            records = measure(wl, args, counter, speed)
            metrics = wl.end_to_end(records, speed.normalize)
            metrics["setup_s"] = statistics.median(map(speed.normalize, setup_times))
            metrics["peak_rss_mb"] = peak_rss_mb()
            units = end_to_end
            for name, (value, unit) in wl.summary_lines(records, metrics, speed.normalize).items():
                print(f"{args.workload} {name} = {value:.6g} {unit}")
            print(f"{args.workload} failed_share = {counter.failed / counter.attempted:.6g} ratio")
            print(f"{args.workload} speed_factor = {speed.factor():.6g} (normalized time / measured time)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
