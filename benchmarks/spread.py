"""Run the benchmark on several seeds and summarise each metric.

    python3 benchmarks/spread.py --workload options --seeds 1-10 [--trace 0]
                                 [--seconds 35] [--out FILE]

Runs `run.py` once per seed, one after another, and prints one JSON object
per workload: for every metric its median, quartiles and spread (the
distance between the quartiles as a share of the median, as
`statistics.quantiles(values, n=4)` gives them), plus whether every run was
correct. --out also writes the summary, with every run's raw result, to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 180


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summary(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]

    report = {}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        names = runs[0]["metrics"]
        report[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "metrics": {name: {**summary([r["metrics"][name]["value"] for r in runs]),
                               "unit": names[name]["unit"]} for name in names},
        }
        print(json.dumps({workload: report[workload]}, indent=1), flush=True)
        if args.out:
            report[workload]["runs"] = runs
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
