"""Benchmark of ``slmc compare``: end-to-end and per-layer cost of ``run_experiment``.

Run from the repository root:

    python3 bench/run.py --workload gauss-d2-planned --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the run times back-to-back ``run_experiment`` calls with
nothing wrapped and reports the end-to-end metrics. With ``--trace 1`` it
alternates untraced and traced calls, reports per-layer metrics from the
traced ones, and ends with a sweep of step-cache build and step time against
the dimension. Every call's rows go through the output checks.

The last line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it is a record of
the samples, the spreads, the environment and the code size. The process is
single-threaded: BLAS and OpenMP are pinned to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Sweep points: (d, chain steps timed, cache builds timed).
SWEEP_DIMS = {
    "full": ((2, 2000, 20), (32, 1000, 20), (256, 200, 5), (1024, 20, 1)),
    "toy": ((2, 20, 1), (32, 10, 1), (256, 5, 1), (1024, 2, 1)),
}
#: Before each call, set-up is repeated until it has used this share of the
#: previous call's wall time (at least once, at most SETUP_BATCH_MAX times),
#: so that its samples spread over the whole run as the calls' samples do.
SETUP_SHARE, SETUP_BATCH_MAX = 0.05, 50


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "toy"), default="full", help="toy: tiny inputs for the smoke test"
    )
    return parser.parse_args(argv)


def load_slmc(root: Path):
    """Import slmc from ``root/src`` and nowhere else; None if it is not there."""
    package = root / "src" / "slmc"
    if not (package / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(root / "src"))
    import slmc

    if Path(slmc.__file__).resolve().parent != package.resolve():
        return None
    return slmc


def rounded(values):
    return [float(f"{v:.6g}") for v in values]


def median(values):
    return statistics.median(values) if values else 0.0


def fits(start: float, durations, seconds: float) -> bool:
    """Whether one more round of median duration ends within ``seconds`` of ``start``."""
    return perf_counter() - start + median(durations) <= seconds


def iqr_frac(values):
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def environment(root: Path) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_loc = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            src_loc += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
        "src_loc": src_loc,
    }


class Runner:
    """Makes ``run_experiment`` calls on one workload and checks each one."""

    def __init__(self, workload, scratch: str):
        from slmc.experiment import run_experiment

        self.run_experiment = run_experiment
        self.workload = workload
        self.csv_path = os.path.join(scratch, "results.csv")
        self.reference = None  # emit_csv output of the first call
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.w2_within_eps: list[bool] = []

    def call(self, tracer=None):
        """One checked call; returns (wall seconds, rows), or None if it raised."""
        import tracing
        from workloads import check_rows, csv_bytes

        self.attempted += 1
        if tracer is not None:
            tracer.reset()
        start = perf_counter()
        try:
            if tracer is None:
                rows = self.run_experiment(self.workload.config)
            else:
                with tracing.instrument(tracer):
                    rows = self.run_experiment(self.workload.config)
        except Exception:  # a failed call is counted and reported, not fatal
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None
        wall = perf_counter() - start
        problems = check_rows(self.workload, rows)
        data = csv_bytes(rows, self.csv_path)
        if self.reference is None:
            self.reference = data
            if self.workload.closed_form:
                self.w2_within_eps = [row.w2_gauss <= row.epsilon for row in rows]
        elif data != self.reference:
            kind = "traced" if tracer is not None else "untraced"
            problems.append(f"{kind} call's emit_csv output differs from the first same-seed call")
        if problems:
            self.failed += 1
            self.errors.extend(problems)
        return wall, rows


def run_untraced(args, runner, record):
    from workloads import setup_once

    setup, walls, rates, rounds = [], [], [], []
    start = perf_counter()
    while runner.attempted < 2 or fits(start, rounds, args.seconds):
        round_start = perf_counter()
        budget = SETUP_SHARE * (walls[-1] if walls else 0.0)
        for _ in range(SETUP_BATCH_MAX):
            t0 = perf_counter()
            setup_once(runner.workload.config)
            setup.append(perf_counter() - t0)
            if perf_counter() - round_start >= budget:
                break
        out = runner.call()
        if out is not None:
            wall, rows = out
            walls.append(wall)
            rates.append(sum(row.grad_calls for row in rows) / wall)
        rounds.append(perf_counter() - round_start)
    record["samples"] = {"wall_s": rounded(walls), "setup_s": rounded(setup)}
    record["spread"] = {
        "wall_s_repeat_iqr_frac": iqr_frac(walls),
        "setup_s_repeat_iqr_frac": iqr_frac(setup),
    }
    return {
        "wall_s": (median(walls), "s"),
        "grad_calls_per_s": (median(rates), "1/s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_traced(args, runner, record):
    import tracing

    tracer = tracing.Tracer()
    untraced, traced, layers = [], [], []
    start = perf_counter()
    while runner.attempted < 2 or fits(start, untraced + traced, args.seconds):
        if runner.attempted % 2 == 0:
            out = runner.call()
            if out is not None:
                untraced.append(out[0])
        else:
            out = runner.call(tracer)
            if out is not None:
                traced.append(out[0])
                layers.append(tracing.layer_metrics(tracer, out[0]))
    metrics = {
        name: (statistics.median_low([layer[name] for layer in layers]) if layers else 0, unit)
        for name, unit in tracing.LAYER_UNITS.items()
    }
    base = median(untraced)
    metrics["trace.overhead_frac"] = ((median(traced) - base) / base if base else 0.0, "ratio")
    for name, value in tracing.sweep(SWEEP_DIMS[args.size]).items():
        metrics[name] = (value, "s" if name.endswith("_s") else "us")
    record["samples"] = {"untraced_wall_s": rounded(untraced), "traced_wall_s": rounded(traced)}
    record["absent"] = tracer.absent()
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = Path.cwd()
    if load_slmc(root) is None:
        print(f"error: no slmc sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; expected one of {workloads.NAMES}", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size}
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=root) as scratch:
        workload = workloads.make_workload(args.workload, args.seed, scratch, args.size)
        runner = Runner(workload, scratch)
        measure = run_traced if args.trace else run_untraced
        metrics = measure(args, runner, record)
    record.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failed_frac=runner.failed / runner.attempted,
        errors=runner.errors,
        w2_within_eps=runner.w2_within_eps,
        environment=environment(root),
    )
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
