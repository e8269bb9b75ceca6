"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 p3qbench/run.py --workload lazy-converge --seed 1 --seconds 25 --trace 0

Rounds of the workload repeat until ``--seconds`` of wall time have passed
(every round runs whole).  With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` the first round runs untraced as the
overhead reference and the remaining rounds run with every layer
instrumented, and the result carries the per-layer metrics instead (spans
are written to ``p3qbench/traces/``).  The exit code is 0 only when every
round's correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_program() -> None:
    """Put the repository's ``src`` and root on the path; fail loudly without them."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"p3qbench: no program to measure: {src}/repro is missing")
    sys.path[:0] = [src, ROOT]


def end_to_end(rounds, peak_mb: float) -> dict:
    from p3qbench.common import percentile

    # Guarded so that a run whose operations all failed still reports.
    completed = max(1, sum(r.completed for r in rounds))
    op_ms = [ms for r in rounds for ms in r.op_ms]
    values = {
        "setup_s": (statistics.median(s for r in rounds for s in r.setup_s), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ops_per_s": (completed / sum(r.op_s for r in rounds), "1/s"),
        "cpu_ms_per_op": (1e3 * sum(r.cpu_s for r in rounds) / completed, "ms"),
        "kb_per_op": (sum(r.kb for r in rounds) / completed, "KB"),
        "op_ms_p50": (percentile(op_ms, 50), "ms"),
        "op_ms_p90": (percentile(op_ms, 90), "ms"),
        "success_ratio": (statistics.median(r.success_ratio for r in rounds), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    from p3qbench.common import peak_rss_mb
    from p3qbench.workloads import WORKLOADS, NullTracer

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("inputs " + json.dumps(workload.makeup(), sort_keys=True))

    started = time.perf_counter()
    rounds = []
    if args.trace:
        from p3qbench.tracing import trace_run

        metrics, rounds = trace_run(workload, os.path.join(ROOT, "p3qbench", "traces"))
    else:
        tracer = NullTracer()
        while not rounds or time.perf_counter() - started < args.seconds:
            rounds.append(workload.round(tracer, len(rounds)))
            last = rounds[-1]
            print(f"round {len(rounds)}: setup {min(last.setup_s):.3f} s, "
                  f"{last.completed}/{last.attempted} ops in {last.op_s:.3f} s "
                  f"({last.cpu_s:.3f} s CPU)", flush=True)
        metrics = end_to_end(rounds, peak_rss_mb())

    prints = {"dataset": workload.dataset_fingerprint}
    streams = [r.stream_fingerprint for r in rounds if r.stream_fingerprint]
    if streams:
        prints["rounds"] = streams
    print("fingerprint " + json.dumps(prints))
    exact = [r.checked_exactly for r in rounds if r.checked_exactly is not None]
    if exact:
        print(f"queries checked exactly (profile set unchanged), per round: {exact}")
    errors = [e for r in rounds for e in r.errors]
    for error in errors[:10]:
        print(f"CHECK FAILED: {error}")
    print(f"rounds {len(rounds)} wall {time.perf_counter() - started:.1f} s")
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.attempted - r.completed for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
