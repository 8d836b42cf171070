"""Measure the run-to-run spread of every end-to-end metric.

    python3 perfbench/spread.py [--seeds 1-10] [--workload NAME ...] [--out FILE]

Runs ``perfbench/run.py`` once per seed and workload (``--trace 0``,
with BENCHMARK.json's ``run_seconds``) and reports, per metric, the
median of the runs and the distance between their first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound. ``--out`` writes the table as JSON;
``perfbench/spreads.json`` holds the spreads the bounds were set from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table: dict[str, dict] = {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in args.seeds:
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            walls.append(time.perf_counter() - started)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: checks failed: {done.stdout}", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s", file=sys.stderr, flush=True)
        rows = {}
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            rows[name] = {
                "median": median,
                "spread": (q3 - q1) / median,
                "bound": bounds[name],
            }
            print(f"{workload:12s} {name:14s} median {median:12.4f} "
                  f"spread {rows[name]['spread']:.4f} bound {bounds[name]}")
        table[workload] = {
            "seeds": args.seeds,
            "wall_s_median": statistics.median(walls),
            "metrics": rows,
        }
    if args.out:
        args.out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
