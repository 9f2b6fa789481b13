"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/spread.py --workloads corpus2d tensor4d --seeds 1-10 \
        [--out perfbench/baseline/e2e.json]

Each run measures for BENCHMARK.json's ``run_seconds`` with tracing off.
For each workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound from
BENCHMARK.json, flagged WIDE when the spread is a third of the bound or
more.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads:
        runs = [run_once(workload, s, spec["run_seconds"]) for s in args.seeds]
        names = list(runs[0][1]["metrics"])
        summary = {n: summarise([r[1]["metrics"][n]["value"] for r in runs])
                   for n in names}
        report[workload] = {
            "seeds": args.seeds,
            "correct": [r[1]["correct"] for r in runs],
            "attempted": [r[1]["attempted"] for r in runs],
            "failed": [r[1]["failed"] for r in runs],
            "jobs": [r[0]["jobs"] for r in runs],
            "env": runs[0][0]["env"],
            "metrics": summary,
        }
        print(f"{workload}: correct={report[workload]['correct']} "
              f"jobs={report[workload]['jobs']}")
        for n, s in summary.items():
            bound = bounds[n]
            flag = " OK" if s["spread"] < bound / 3 else " WIDE"
            print(f"  {n:40s} median {s['median']:14.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  "
                  f"spread {s['spread']:.4f}  bound {bound}{flag}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
