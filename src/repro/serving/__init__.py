"""Query-serving benchmark subsystem.

Layers a serving harness on the cycle simulator: a workload catalogue
(:mod:`~repro.serving.workloads`), a driver injecting queries at
configurable concurrency and arrival rates (:mod:`~repro.serving.driver`),
and the resource plumbing shared with the perf harness
(:mod:`~repro.serving.resources`).  ``python -m repro perf --serving``
sweeps the catalogue across concurrency levels into the BENCH report.
"""

from .driver import (
    ABANDONED,
    COMPLETED,
    REJECTED,
    QueryOutcome,
    ServingConfig,
    ServingResult,
    percentile,
    run_serving,
)
from .resources import ResourceEnvelope, ResourceProbe, cpu_seconds, peak_rss_bytes
from .workloads import (
    WORKLOADS,
    ServingWorkload,
    build_workload,
    hot_topic_workload,
    long_tail_workload,
    mixed_workload,
)

__all__ = [
    "ABANDONED",
    "COMPLETED",
    "REJECTED",
    "QueryOutcome",
    "ServingConfig",
    "ServingResult",
    "percentile",
    "run_serving",
    "ResourceEnvelope",
    "ResourceProbe",
    "cpu_seconds",
    "peak_rss_bytes",
    "WORKLOADS",
    "ServingWorkload",
    "build_workload",
    "hot_topic_workload",
    "long_tail_workload",
    "mixed_workload",
]
