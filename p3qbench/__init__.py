"""The P3Q repository benchmark: three workloads, independent checks, tracing.

Run ``python3 p3qbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``p3qbench/README.md``.
"""
