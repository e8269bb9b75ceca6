"""Run every workload repeatedly, in two sets, and print how steady each
end-to-end metric is.

    python3 p3qbench/steadiness.py --seeds 1-10 [--seconds S]

Each run is a fresh ``run.py`` process.  The seed list is played twice, as
two sets one after the other; within a set the workloads take turns seed by
seed, so a drift of the host's speed reaches every workload alike.  For
every workload and end-to-end metric it prints, per set, the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread -- the interquartile distance as a share of the median -- and then
how far the second set's median moved from the first's, next to the
metric's bound from ``BENCHMARK.json``.  A spread above a third of the
bound or a move beyond the bound is flagged, as is a failed check or a
share of failed operations that is not the same in every run of a workload.
Exit code 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join("p3qbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="seed list, e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    results = {(w, n): [] for w in workloads for n in range(SETS)}
    for number in range(SETS):
        for seed in seeds:
            for workload in workloads:
                result = run_once(workload, seed, args.seconds)
                results[workload, number].append(result)
                values = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
                print(f"  set {number + 1} {workload} seed {seed}: correct={result['correct']} "
                      f"failed {result['failed']}/{result['attempted']} {values}", flush=True)

    flagged = False
    for workload in workloads:
        runs = [r for n in range(SETS) for r in results[workload, n]]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: {SETS} sets of {len(seeds)} runs, failed shares {shares}")
        flagged |= len(shares) != 1 or not all(r["correct"] for r in runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for number in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[workload, number]]
                med, q1, q3, spread = summarize(values)
                medians.append(med)
                mark = ""
                if spread > bound / 3:
                    mark = "  <-- spread above a third of the bound"
                    flagged = True
                print(f"  {name:14s} set {number + 1}  median {med:12.4f}  q1 {q1:12.4f}  "
                      f"q3 {q3:12.4f}  spread {spread:7.2%}{mark}")
            move = medians[-1] / medians[0] - 1.0 if medians[0] else float("inf")
            mark = ""
            if abs(move) > bound:
                mark = "  <-- beyond the bound"
                flagged = True
            print(f"  {name:14s} second median over first {move:+7.2%}  bound {bound:.0%}{mark}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
