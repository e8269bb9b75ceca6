"""The three benchmark workloads.

A workload is built once per run from the run's seed and length, then plays
whole *rounds*: a round sets a deployment up from scratch several times
(each timed as one set-up; the round keeps the last deployment), runs the
measured operations, and checks the outcome against brute-force
references.  Round ``r`` of a run with seed ``n`` draws its random choices
from :func:`round_seed`, so a run averages over several independent draws
and the same seed always replays the same rounds.  The program is driven
only through its public entry points: ``generate_dataset``,
``P3QSimulation``, ``run_serving`` and ``ServiceRuntime``.
"""

from __future__ import annotations

import asyncio
import gc
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from . import checks
from .common import (
    brute_scores,
    dataset_fingerprint,
    fingerprint,
    raw_actions,
    success_ratio,
    top_thresholds,
)


#: Generator seed of the synthetic trace every run deploys.  The trace's
#: community structure -- and with it the cost of every operation -- varies
#: a lot between generator seeds, so the deployment is fixed and ``--seed``
#: draws everything that happens on it: the protocol's random choices
#: (bootstrap contacts, gossip partners, timer jitter), the query stream and
#: the profile-change days.
DATASET_SEED = 42


@dataclass
class Round:
    """What one round measured."""

    setup_s: List[float]
    #: Wall and process-CPU seconds of the measured operations.
    op_s: float
    cpu_s: float
    attempted: int
    completed: int
    #: Wall milliseconds each completed operation took.
    op_ms: List[float]
    #: Accounted kilobytes the operations cost (see each workload).
    kb: float
    success_ratio: float
    errors: List[str] = field(default_factory=list)
    #: Digest of the round's query stream and change days (query workloads).
    stream_fingerprint: Optional[str] = None
    #: Completed queries held to the exact brute-force top-k (serve-mixed).
    checked_exactly: Optional[int] = None


class NullTracer:
    """Stand-in tracer of untraced runs: spans cost one no-op call."""

    def span(self, name: str):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def round_seed(seed: int, index: int) -> int:
    """The seed of round ``index`` (from 0) of a run with seed ``seed``."""
    return seed * 1000 + index


def _stream_fingerprint(queries, schedule=None) -> str:
    days = sorted(
        (cycle, [(c.user_id, c.new_actions) for c in day.changes])
        for cycle, day in (schedule or {}).items()
    )
    return fingerprint([(q.query_id, q.querier, q.tags) for q in queries], days)


def network_snapshot(sim) -> Dict[int, checks.Network]:
    """Every node's ranked ``(member, score)`` list and raw replica sets."""
    return {
        uid: (
            [(e.user_id, e.score) for e in node.personal_network.ranked_entries()],
            {
                member: frozenset(replica)
                for member, replica in node.personal_network.stored_profiles().items()
            },
        )
        for uid, node in sim.nodes.items()
    }


class Workload:
    """One run of a workload: the deployed trace, its references and the
    live deployment.

    Subclasses give :meth:`deploy` (one set-up) and :meth:`round`.
    """

    name: str
    num_users: int
    network_size: int
    storage = 3
    #: Timed set-ups per round.  The host's speed moves by tens of percent
    #: from one second to the next, so one sample per round would make
    #: ``setup_s`` read that noise.
    setups_per_round = 3
    #: True when one round fills the whole run (its length is the run's).
    one_round_per_run = False
    #: The service of the last round, for workloads that run one.
    runtime = None

    def __init__(self, seed: int, seconds: float) -> None:
        from repro.data import SyntheticConfig

        self.seed = seed
        #: Run length; only a workload whose round fills the run reads it.
        self.seconds = seconds
        self.data = SyntheticConfig(num_users=self.num_users, seed=DATASET_SEED)
        self.raw = raw_actions(self.data)
        #: Brute-force top-``s`` thresholds of :func:`success_ratio`.
        self.thresholds = top_thresholds(self.raw, self.network_size)
        self.dataset_fingerprint = dataset_fingerprint(self.raw)
        #: The current deployment (read by the tracer's digest probe).
        self.sim = None

    def makeup(self) -> Dict[str, Any]:
        return {
            "dataset_seed": DATASET_SEED,
            "N": self.num_users,
            "s": self.network_size,
            "storage": self.storage,
            "setups_per_round": self.setups_per_round,
        }

    def deploy(self, tracer, seed: int):
        """Build one deployment (the timed set-up) and return its simulation."""
        raise NotImplementedError

    def round(self, tracer, index: int) -> Round:
        raise NotImplementedError

    def timed_setups(self, tracer, seed: int, count: int) -> List[float]:
        """Set up ``count`` times from cold program caches and a collected
        heap; :attr:`sim` is left holding the last deployment."""
        from repro.bloom import clear_hash_cache

        times = []
        for _ in range(count):
            self.close()
            clear_hash_cache()
            gc.collect()
            started = time.perf_counter()
            with tracer.span("bench.setup"):
                self.sim = self.deploy(tracer, seed)
            times.append(time.perf_counter() - started)
        return times

    def close(self) -> None:
        if self.sim is not None:
            self.sim.close()
            self.sim = None


# ---------------------------------------------------------------- lazy-converge


class LazyConverge(Workload):
    """Cold start at N=1000: bootstrap the views, then lazy 3-step cycles.

    One operation is one lazy cycle of the whole deployment.  ``kb`` is the
    accounted gossip traffic of the cycles.
    """

    name = "lazy-converge"
    num_users = 1000
    network_size = 50
    cycles_per_round = 10

    def makeup(self) -> Dict[str, Any]:
        return {**super().makeup(), "lazy_cycles_per_round": self.cycles_per_round, "workers": 1}

    def deploy(self, tracer, seed: int):
        from repro.data import generate_dataset
        from repro.p3q import P3QConfig, P3QSimulation

        with tracer.span("data.generate"):
            dataset = generate_dataset(self.data)
        sim = P3QSimulation(
            dataset,
            P3QConfig(network_size=self.network_size, storage=self.storage, seed=seed),
        )
        sim.bootstrap_random_views()
        return sim

    def round(self, tracer, index: int) -> Round:
        setups = self.timed_setups(tracer, round_seed(self.seed, index), self.setups_per_round)
        sim = self.sim

        stamps = [time.perf_counter()]
        cpu0 = time.process_time()
        with tracer.span("bench.ops"):
            sim.run_lazy(self.cycles_per_round, callback=lambda _: stamps.append(time.perf_counter()))
        cpu = time.process_time() - cpu0
        op_ms = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]

        errors = checks.check_networks(network_snapshot(sim), self.raw, self.network_size)
        ratio = success_ratio(self.raw, self.thresholds, sim.discovered_networks())
        kb = sim.stats.total_bytes() / 1024.0
        self.close()
        return Round(
            setup_s=setups,
            op_s=stamps[-1] - stamps[0],
            cpu_s=cpu,
            attempted=self.cycles_per_round,
            completed=self.cycles_per_round,
            op_ms=op_ms,
            kb=kb,
            success_ratio=ratio,
            errors=errors,
        )


# ------------------------------------------------------------------ serve-mixed


class ServeMixed(Workload):
    """Warm start at N=1000, then the ``mixed`` catalogue workload, closed loop.

    One operation is one query.  ``kb`` is the accounted query traffic
    (``StatsCollector.query_bytes``) of the completed queries.
    """

    name = "serve-mixed"
    num_users = 1000
    network_size = 50
    num_queries = 200
    concurrency = 16
    arrivals_per_cycle = 8
    max_cycles = 400
    cutoff_cycles = 100

    def makeup(self) -> Dict[str, Any]:
        return {
            **super().makeup(),
            "queries_per_round": self.num_queries,
            "change_days": 3,
            "change_every_cycles": 4,
            "change_fraction": 0.10,
            "concurrency": self.concurrency,
            "arrivals_per_cycle": self.arrivals_per_cycle,
            "cutoff_cycles": self.cutoff_cycles,
            "workers": 1,
        }

    def deploy(self, tracer, seed: int):
        from repro.data import generate_dataset
        from repro.p3q import P3QConfig, P3QSimulation
        from repro.serving import build_workload
        from repro.similarity.knn import IdealNetworkIndex

        with tracer.span("data.generate"):
            dataset = generate_dataset(self.data)
        with tracer.span("similarity.ideal_index"):
            ideal = IdealNetworkIndex(dataset, size=self.network_size)
        sim = P3QSimulation(
            dataset,
            P3QConfig(network_size=self.network_size, storage=self.storage, seed=seed),
        )
        sim.warm_start(ideal=ideal)
        with tracer.span("data.workload"):
            # The query stream and change days the round serves.
            self.stream = build_workload("mixed", dataset, self.num_queries, seed=seed)
        return sim

    def round(self, tracer, index: int) -> Round:
        from repro.serving import COMPLETED, ServingConfig, run_serving

        setups = self.timed_setups(tracer, round_seed(self.seed, index), self.setups_per_round)
        sim, workload = self.sim, self.stream

        # Wall clock at the end of every eager cycle, to time each query
        # from the cycle it was admitted in to the cycle that completed it.
        run_eager = sim.run_eager
        stamps: Dict[int, float] = {}

        def stamped_run_eager(*args, **kwargs):
            ran = run_eager(*args, **kwargs)
            stamps[sim.eager_cycles_run] = time.perf_counter()
            return ran

        sim.run_eager = stamped_run_eager
        config = ServingConfig(
            concurrency=self.concurrency,
            arrivals_per_cycle=self.arrivals_per_cycle,
            max_cycles=self.max_cycles,
            cutoff_cycles=self.cutoff_cycles,
        )
        cpu0 = time.process_time()
        stamps[0] = time.perf_counter()
        with tracer.span("bench.ops"):
            with tracer.span("serving.run_serving"):
                result = run_serving(sim, workload, config)
        cpu = time.process_time() - cpu0
        op_s = time.perf_counter() - stamps[0]

        # Raw action sets after each applied change day.  A day scheduled at
        # driver cycle c lands before eager cycle c + 1, so it can reach a
        # query that completed at eager cycle e only if c < e.
        raw_start = self.raw
        states = [(0, raw_start, frozenset())]
        for cycle in sorted(workload.change_schedule)[: result.change_days_applied]:
            raw_day, changed = dict(states[-1][1]), set(states[-1][2])
            for change in workload.change_schedule[cycle].changes:
                raw_day[change.user_id] = raw_day[change.user_id] | frozenset(change.new_actions)
                changed.add(change.user_id)
            states.append((cycle + 1, raw_day, frozenset(changed)))

        sessions = sim.sessions()
        k = sim.config.k
        errors: List[str] = []
        op_ms: List[float] = []
        kb = 0.0
        exact = 0
        completed = [o for o in result.outcomes if o.status == COMPLETED]
        for outcome in completed:
            end_cycle = outcome.issued_cycle + outcome.latency_cycles
            op_ms.append((stamps[end_cycle] - stamps[outcome.issued_cycle]) * 1e3)
            kb += sum(sim.stats.query_bytes(outcome.query_id).values()) / 1024.0
            session = sessions[outcome.query_id]
            returned = session.current_top_k()
            users = session.expected_profiles
            raw_end, changed = [(raw, ch) for landed, raw, ch in states if landed <= end_cycle][-1]
            start = brute_scores(raw_start, users, session.query.tags)
            if users & changed:
                # Replicas may predate the query, so the lower bound is the
                # round's start, not the query's issue.
                end = brute_scores(raw_end, users, session.query.tags)
                more = checks.check_bounded_topk(outcome.query_id, returned, k, start, end)
            else:
                exact += 1
                more = checks.check_exact_topk(outcome.query_id, returned, k, start)
            checks.first_errors(errors, more)

        raw_final = states[-1][1]
        ratio = success_ratio(
            raw_final, top_thresholds(raw_final, self.network_size), sim.discovered_networks()
        )
        self.close()
        return Round(
            setup_s=setups,
            op_s=op_s,
            cpu_s=cpu,
            attempted=len(result.outcomes),
            completed=len(completed),
            op_ms=op_ms,
            kb=kb,
            success_ratio=ratio,
            errors=errors,
            stream_fingerprint=_stream_fingerprint(workload.queries, workload.change_schedule),
            checked_exactly=exact,
        )


# --------------------------------------------------------------- service-steady


class ServiceSteady(Workload):
    """The asyncio service at N=100 over the in-process wire, open loop.

    Queries arrive at a fixed rate for the run's length; each is timed from
    its due time to the eager tick that completed it.  One operation is one
    query.  ``kb`` is the accounted query traffic of the completed queries.
    """

    name = "service-steady"
    num_users = 100
    network_size = 25
    gossip_interval = 1.0
    eager_interval = 0.1
    #: Queries per second (open loop) and seconds of gossip before the first.
    rate = 10.0
    warmup_s = 1.0
    #: A query still open this long after the last one was due has failed.
    drain_s = 5.0
    #: Timed set-ups before the service starts and again after it stopped.
    #: A 0.05 s set-up reads up to 1.5x slower from one second to the next
    #: on a shared host, so sampling two moments a run apart steadies the
    #: median.
    setups_per_round = 5
    one_round_per_run = True

    def makeup(self) -> Dict[str, Any]:
        return {
            **super().makeup(),
            "setups_per_round": 2 * self.setups_per_round,
            "wire": "inproc",
            "codec": "binary",
            "gossip_interval_s": self.gossip_interval,
            "eager_interval_s": self.eager_interval,
            "arrival_rate_per_s": self.rate,
            "warmup_s": self.warmup_s,
        }

    def deploy(self, tracer, seed: int):
        from repro.data import generate_dataset
        from repro.p3q import P3QConfig, P3QSimulation
        from repro.similarity.knn import IdealNetworkIndex

        with tracer.span("data.generate"):
            dataset = generate_dataset(self.data)
        with tracer.span("similarity.ideal_index"):
            ideal = IdealNetworkIndex(dataset, size=self.network_size)
        sim = P3QSimulation(
            dataset,
            P3QConfig(network_size=self.network_size, storage=self.storage, seed=seed),
        )
        sim.warm_start(ideal=ideal)
        return sim

    def queries(self, dataset, count: int, seed: int):
        """``count`` queries, the users taking turns in a seeded order.

        Turns rather than independent draws: how much a query costs depends
        mostly on its querier's personal network, and taking turns keeps
        every run's mix of queriers the same.
        """
        from repro.data import QueryWorkloadGenerator

        users = sorted(uid for uid, actions in self.raw.items() if actions)
        random.Random(seed).shuffle(users)
        generator = QueryWorkloadGenerator(dataset, seed=seed)
        return [generator.query_for(users[i % len(users)], query_id=i) for i in range(count)]

    def round(self, tracer, index: int) -> Round:
        seed = round_seed(self.seed, index)
        setups = self.timed_setups(tracer, seed, self.setups_per_round)
        sim = self.sim
        queries = self.queries(sim.dataset, max(1, int(round(self.seconds * self.rate))), seed)
        result = asyncio.run(self._serve(sim, queries, tracer))
        result.setup_s = setups + self.timed_setups(tracer, seed, self.setups_per_round)
        self.close()
        result.stream_fingerprint = _stream_fingerprint(queries)
        return result

    async def _serve(self, sim, queries, tracer) -> Round:
        from repro.service.runtime import ServiceConfig, ServiceRuntime
        from repro.service.trace import check_trace
        from repro.simtest.invariants import InvariantViolation

        runtime = self.runtime = ServiceRuntime(
            sim,
            ServiceConfig(
                gossip_interval=self.gossip_interval,
                eager_interval=self.eager_interval,
            ),
        )
        loop = asyncio.get_running_loop()
        done: Dict[int, float] = {}

        def watch(session):
            close_cycle = session.close_cycle

            def stamped(cycle):
                snapshot = close_cycle(cycle)
                if session.closed and session.query.query_id not in done:
                    done[session.query.query_id] = loop.time()
                return snapshot

            session.close_cycle = stamped

        sessions = {}
        # The traced window spans the service's whole life, start to stop.
        with tracer.span("bench.ops"):
            await runtime.start()
            first_due = loop.time() + self.warmup_s
            try:
                await asyncio.sleep(self.warmup_s)
                cpu0 = time.process_time()
                for index, query in enumerate(queries):
                    delay = first_due + index / self.rate - loop.time()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    session = runtime.issue_query(query)
                    sessions[query.query_id] = session
                    watch(session)
                    if session.closed:
                        done.setdefault(query.query_id, loop.time())
                cutoff = loop.time() + self.drain_s
                while len(done) < len(queries) and loop.time() < cutoff:
                    await asyncio.sleep(self.eager_interval / 4)
                last = max(done.values(), default=loop.time())
                cpu = time.process_time() - cpu0
            finally:
                await runtime.stop()

        errors: List[str] = []
        k = sim.config.k
        op_ms = []
        kb = 0.0
        for index, query in enumerate(queries):
            if query.query_id not in done:
                continue
            op_ms.append((done[query.query_id] - (first_due + index / self.rate)) * 1e3)
            kb += sum(sim.stats.query_bytes(query.query_id).values()) / 1024.0
            session = sessions[query.query_id]
            scores = brute_scores(self.raw, session.expected_profiles, query.tags)
            checks.first_errors(
                errors,
                checks.check_exact_topk(query.query_id, session.current_top_k(), k, scores),
            )
        try:
            check_trace(runtime.trace.events, sim)
        except InvariantViolation as violation:
            errors.insert(0, f"check_trace: {violation}")
        ratio = success_ratio(self.raw, self.thresholds, sim.discovered_networks())
        return Round(
            setup_s=[],
            op_s=last - first_due,
            cpu_s=cpu,
            attempted=len(queries),
            completed=len(done),
            op_ms=op_ms,
            kb=kb,
            success_ratio=ratio,
            errors=errors,
        )


WORKLOADS = {cls.name: cls for cls in (LazyConverge, ServeMixed, ServiceSteady)}
