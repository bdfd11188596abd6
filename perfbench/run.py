"""Closed-loop benchmark of the etmhe package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src and
configured from ./configs/benchmark.cfg. One process drives one workload;
each timed pass starts when the previous one has ended. With --trace 0 the
last stdout line is a JSON object holding the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a separate traced run. The
lines before it print the environment, every metric with its unit and the
outcome of the correctness gate. See perfbench/README.md.
"""

import os

# Pin BLAS threads before numpy is imported, here and in set-up children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5        # fresh set-up processes measured, after one discarded


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import the workloads, and through them etmhe from this checkout's src."""
    if not (SRC / "etmhe" / "__init__.py").is_file():
        sys.exit(f"error: no etmhe package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import workloads
    import etmhe
    if Path(etmhe.__file__).resolve().parent != SRC / "etmhe":
        sys.exit(f"error: etmhe imported from {etmhe.__file__}, not {SRC}")
    if not workloads.CONFIG.is_file():
        sys.exit(f"error: missing {workloads.CONFIG}")
    return workloads


def setup_probe(args) -> None:
    """Child process body: time import, config parsing and workload set-up."""
    t0 = perf_counter()
    workloads = import_package()
    workloads.setup(args.workload, args.seed)
    print(repr(perf_counter() - t0))


def measure_setup(args) -> float:
    """Median set-up time over fresh processes; the first one is discarded."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def timed_passes(run, check, budget: float, min_passes: int):
    """Run passes k = 0, 1, ... back to back until the budget is spent and
    at least min_passes have run.

    Returns (pass times, problems, failed passes, last result). Each pass
    is checked right after it, outside its timed region.
    """
    times, problems, failed = [], [], 0
    start = perf_counter()
    while True:
        k = len(times)
        t0 = perf_counter()
        result = run(k)
        times.append(perf_counter() - t0)
        found = check(k, result)
        problems.extend(found)
        failed += bool(found)
        if len(times) >= min_passes and perf_counter() - start >= budget:
            return times, problems, failed, result


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def end_to_end(args, workloads):
    setup_s = measure_setup(args)
    wl = workloads.setup(args.workload, args.seed)
    n = wl.realizations
    total = Counter()

    def check(k, result):
        problems = wl.check(k % n, result)
        if k < n:
            sums, found = wl.tally(k, result)
            problems += found
            total.update(sums)
        return problems

    try:
        wl.warmup()
        times, problems, failed, _ = timed_passes(lambda k: wl.run(k % n), check,
                                                  args.seconds, n)
    finally:
        wl.close()
    wall = statistics.median(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "steps_per_s": (wl.steps / wall, "step/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    metrics.update(workloads.quality_metrics(total))
    wl.notes["rmse_post"] = workloads.rmse_post(total)
    for key, value in wl.notes.items():
        print(f"# {key}: {value}")
    print(f"# passes {len(times)} over {n} realizations: "
          + " ".join(f"{t:.4f}" for t in times))
    return metrics, problems, len(times), failed


def traced(args, workloads):
    import tracing

    # Every pass of the traced run replays realization 0, so the counts of
    # its traced passes must repeat exactly.
    wl = workloads.setup(args.workload, args.seed)
    try:
        wl.warmup()
        half = args.seconds / 2
        plain_times, problems, failed, _ = timed_passes(
            lambda k: wl.run(0), lambda k, r: wl.check(0, r), half, 1)
    finally:
        wl.close()

    tracer = tracing.Tracer()
    tracer.install()
    twl = None
    try:
        setup_run = tracer.begin_run(f"{args.workload}-{args.seed}-setup")
        twl = tracer.span("bench.setup", workloads.setup, args.workload, args.seed)
        pass_runs = []

        def run(k):
            pass_runs.append(tracer.begin_run(f"{args.workload}-{args.seed}-pass{k}"))
            return tracer.span("bench.pass", twl.run, 0)

        traced_times, traced_problems, traced_failed, result = timed_passes(
            run, lambda k, r: twl.check(0, r), half, 2)
        csv_bytes = twl.csv_bytes(result)
    finally:
        tracer.uninstall()
        if twl is not None:
            twl.close()
    problems += traced_problems
    failed += traced_failed

    per_pass = [tracing.layer_metrics(*tracer.summarize(r)) for r in pass_runs]
    repeats = [name for name in tracing.EXACT if len({p[name] for p in per_pass}) != 1]
    if repeats:
        problems.append(f"exact-repeat counts differ across passes: {repeats}")
        failed += 1
    layer = tracing.median_metrics(per_pass)
    setup_totals, _ = tracer.summarize(setup_run)
    for name in ("cli.parse_config", "certificate.min_horizon"):
        layer[f"{name}.self_s"] = setup_totals[name]["self_s"]
    layer["cli.sweep_csv.bytes"] = csv_bytes
    layer["trace.overhead_frac"] = (statistics.median(traced_times)
                                    / statistics.median(plain_times) - 1.0)
    tracer.write(workloads.OUT_DIR / f"spans-{args.workload}.npz")
    print(f"# untraced passes {len(plain_times)}, traced passes {len(traced_times)}, "
          f"{len(tracer.start)} spans")
    metrics = {k: (layer[k], unit) for k, unit in tracing.PER_LAYER_UNITS.items()}
    # One operation per pass plus the exact-repeat comparison.
    return metrics, problems, len(plain_times) + len(traced_times) + 1, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    for key, value in environment().items():
        print(f"# {key}: {value}")
    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")
    measure = traced if args.trace else end_to_end
    metrics, problems, attempted, failed = measure(args, workloads)
    for name, (value, unit) in metrics.items():
        shown = value if float(value).is_integer() else format(value, ".6g")
        print(f"{name} {shown} {unit}")
    for problem in problems:
        print(f"# FAILED: {problem}")
    print(f"# gate: {'pass' if not problems else 'FAIL'}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
