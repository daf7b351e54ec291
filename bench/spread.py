"""Run one workload over several seeds and print each end-to-end
metric's median, quartiles and spread ((Q3 - Q1) / median), the figures
bench/README.md quotes.

    python3 bench/spread.py --workload classify --seeds 1-10

Run from the repository root.  Each run's result line is kept in
``.bench_run-spread/<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    os.makedirs(".bench_run-spread", exist_ok=True)
    log = os.path.join(".bench_run-spread", f"{args.workload}.jsonl")
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(result, seed=seed)) + "\n")
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            + f" failed={result['failed']}/{result['attempted']}", flush=True)
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{args.workload} {name}: median {med:.4f} Q1 {q1:.4f} Q3 {q3:.4f} "
              f"spread {(q3 - q1) / med:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
