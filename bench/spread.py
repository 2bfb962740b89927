"""Run the benchmark over several seeds and report how much each metric spreads.

    python3 bench/spread.py --workloads gauss-d2-planned --seeds 1-10 --seconds 35

Runs ``bench/run.py`` once per (workload, seed), one at a time, from the
repository root. For each end-to-end metric it prints the median over seeds
and the seed spread: the distance between the first and third quartile as a
share of the median. For ``wall_s`` it also prints the median of the
within-run repeat spreads, so seed-to-seed and repeat-to-repeat variation
can be told apart. ``--trace 1`` does the same for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import iqr_frac


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 1,5,9")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    script = Path(__file__).resolve().parent / "run.py"
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        repeat_spreads, failed = [], 0
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
            failed += result["failed"]
            repeat_spreads.append(record.get("spread", {}).get("wall_s_repeat_iqr_frac", 0.0))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            summary = " ".join(f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items())
            print(f"{workload} seed={seed} failed={result['failed']} {summary}", flush=True)
        print(f"== {workload}: {len(repeat_spreads)} seeds, {failed} failed calls")
        for name, vals in values.items():
            print(f"   {name:28s} median {statistics.median(vals):.6g}  seed spread {iqr_frac(vals):.3f}")
        if args.trace == 0:
            print(f"   {'wall_s repeat spread':28s} median {statistics.median(repeat_spreads):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
