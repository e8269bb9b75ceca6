"""Per-layer tracing, done entirely from the benchmark's side.

:func:`instrument` wraps public functions of each layer of ``src/repro``
(class attributes and module-level names, patched in place for the rest of
the process) so that every call records a span: name, start, end, parent
span and query id where known.  Sans-io ``*_effects`` generators are timed
per ``send`` step, so a layer is not charged for the time its yielded
effects spend being resolved elsewhere.  A span's self time is its duration
minus the time its child spans cover; a layer's self time is the sum over
its spans.  Aggregates are kept for every span; the first
:data:`SPAN_LOG_LIMIT` spans are also kept verbatim and written out as JSON
when the run ends.

:func:`trace_run` is the ``--trace 1`` mode of ``run.py``: one untraced
round as the overhead reference, then traced rounds, then the per-layer
metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time
import weakref
from array import array
from typing import Any, Callable, Dict, List, Optional

from .common import percentile

#: Spans kept verbatim for the JSON dump (aggregates cover every span).
SPAN_LOG_LIMIT = 200_000

#: Layer names, longest first so that prefixes resolve to the deepest layer.
LAYERS = sorted(
    [
        "data", "similarity", "bloom",
        "gossip.digest", "gossip.views", "gossip.profile_exchange", "gossip.peer_sampling",
        "simulator.engine", "simulator.transport",
        "p3q.protocol", "p3q.node", "p3q.eager", "p3q.query", "p3q.scoring",
        "topk", "serving", "service.codec", "service.runtime",
        "bench", "trace",
    ],
    key=len,
    reverse=True,
)

#: The seven accounted message kinds (``repro.simulator.stats``).
MESSAGE_KINDS = (
    "random_view_digests", "personal_digests", "common_item_actions", "full_profiles",
    "remaining_list_forward", "remaining_list_return", "partial_result",
)


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


class Tracer:
    """In-memory span recorder with running self-time aggregates."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.count: List[int] = []
        self.total_ns: List[int] = []
        self.self_ns: List[int] = []
        #: Open spans: ``[name id, start ns, child ns, log index]``.
        self._stack: List[list] = []
        self.log = array("q")
        self.logged = 0
        self.dropped = 0
        #: Named counters and samples filled by the instrumentation hooks.
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            layer_of(name)
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def begin(self, nid: int, qid: int = -1) -> None:
        stack = self._stack
        index = -1
        if self.logged < SPAN_LOG_LIMIT:
            index = self.logged
            self.logged += 1
            self.log.extend((nid, 0, 0, stack[-1][3] if stack else -1, qid))
        else:
            self.dropped += 1
        stack.append([nid, time.perf_counter_ns(), 0, index])

    def end(self) -> None:
        now = time.perf_counter_ns()
        nid, start, child, index = self._stack.pop()
        duration = now - start
        self.count[nid] += 1
        self.total_ns[nid] += duration
        self.self_ns[nid] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.log[5 * index + 1] = start
            self.log[5 * index + 2] = now

    def current_layer(self) -> Optional[str]:
        """Layer of the innermost open span, looking through hook spans."""
        for entry in reversed(self._stack):
            layer = layer_of(self.names[entry[0]])
            if layer != "trace":
                return layer
        return None

    def span(self, name: str) -> "_Span":
        return _Span(self, self.name_id(name))

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # -- read-out ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.count[nid] if nid is not None else 0

    def seconds(self, name: str, own: bool = False) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        return (self.self_ns if own else self.total_ns)[nid] / 1e9

    def layer_self_s(self, layer: str) -> float:
        return sum(
            self.self_ns[nid] / 1e9 for nid, name in enumerate(self.names) if layer_of(name) == layer
        )

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        log = self.log
        spans = [list(log[i:i + 5]) for i in range(0, len(log), 5)]
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "query_id"],
                    "names": self.names,
                    "spans": spans,
                    "dropped": self.dropped,
                    "aggregates": {
                        name: {
                            "calls": self.count[nid],
                            "total_s": self.total_ns[nid] / 1e9,
                            "self_s": self.self_ns[nid] / 1e9,
                        }
                        for nid, name in enumerate(self.names)
                    },
                    **extra,
                },
                handle,
            )


class _Span:
    __slots__ = ("tracer", "nid")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.tracer.begin(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.end()
        return False


# ------------------------------------------------------------- instrumentation


class Instrumentation:
    """Patches layer entry points to record spans; :meth:`remove` undoes it."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[tuple] = []
        self._hooks = tracer.name_id("trace.hooks")

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        static = inspect.getattr_static(owner, attr)
        self._undo.append((owner, attr, static))
        if isinstance(static, classmethod):
            setattr(owner, attr, classmethod(make(static.__func__)))
        else:
            setattr(owner, attr, make(static))

    def remove(self) -> None:
        for owner, attr, static in reversed(self._undo):
            setattr(owner, attr, static)
        self._undo.clear()

    def call(self, owner, attr: str, name: str, qid=None, after=None) -> None:
        """Time every call of ``owner.attr``; ``after(result, args)`` runs untimed."""
        tracer = self.tracer
        nid = tracer.name_id(name)
        begin, end, hooks = tracer.begin, tracer.end, self._hooks

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                begin(nid, qid(args, kwargs) if qid else -1)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end()
                if after is not None:
                    begin(hooks)
                    try:
                        after(result, args)
                    finally:
                        end()
                return result

            return wrapper

        self._patch(owner, attr, make)

    def generator(self, owner, attr: str, name: str, qid=None, on_call=None) -> None:
        """Time each ``send`` step of the generators ``owner.attr`` returns."""
        tracer = self.tracer
        nid = tracer.name_id(name)
        begin, end = tracer.begin, tracer.end

        def steps(gen, query_id):
            value = None
            thrown = None
            while True:
                begin(nid, query_id)
                try:
                    if thrown is None:
                        effect = gen.send(value)
                    else:
                        effect, thrown = gen.throw(thrown), None
                except StopIteration as stop:
                    end()
                    return stop.value
                except BaseException:
                    end()
                    raise
                end()
                try:
                    value = yield effect
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the wrapped generator
                    thrown = exc

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call()
                return steps(fn(*args, **kwargs), qid(args, kwargs) if qid else -1)

            return wrapper

        self._patch(owner, attr, make)

    def counter(self, owner, attr: str, hook: Callable) -> None:
        """Call ``hook(args, kwargs)`` after every call, without a span."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(args, kwargs)
                return result

            return wrapper

        self._patch(owner, attr, make)


def _query_kwarg(args, kwargs) -> int:
    query_id = kwargs.get("query_id")
    return -1 if query_id is None else query_id


def _query_arg(position: int):
    """Query id read off a ``Query`` positional argument."""
    return lambda args, kwargs: args[position].query_id if len(args) > position else -1


def instrument(tracer: Tracer, profiles: Callable[[int], Any]) -> Instrumentation:
    """Install spans and counters on every layer; ``profiles(uid)`` gives the
    live profile of a user (for the digest false-positive ratio)."""
    import repro.p3q.eager as eager_module
    import repro.p3q.node as node_module
    import repro.p3q.protocol as protocol_module
    from repro.bloom import BloomFilter
    from repro.gossip.digest import DigestCache
    from repro.gossip.peer_sampling import PeerSamplingProtocol
    from repro.gossip.profile_exchange import LazyExchangeProtocol
    from repro.gossip.views import PersonalNetwork, RandomView
    from repro.p3q.eager import EagerGossipProtocol
    from repro.p3q.node import P3QNode
    from repro.p3q.protocol import P3QSimulation
    from repro.p3q.query import QuerySession
    from repro.service.codec import BinaryWireCodec
    from repro.service.runtime import FrameBatcher, InProcWire, ServiceRuntime, TimerWheel
    from repro.simulator.engine import SimulationEngine
    from repro.simulator.stats import StatsCollector
    from repro.simulator.transport import DirectTransport, FullProfileRequest, Transport
    from repro.topk.incremental import IncrementalNRA

    inst = Instrumentation(tracer)
    add, sample = tracer.add, tracer.sample

    # data / p3q.scoring: module-level names the protocol modules call.
    inst.call(protocol_module, "apply_change_day", "data.apply_change_day")
    for module in (eager_module, node_module):
        inst.call(module, "partial_scores", "p3q.scoring.partial_scores")

    # bloom
    inst.call(BloomFilter, "from_items", "bloom.from_items")
    inst.call(BloomFilter, "bit_positions", "bloom.bit_positions")

    # gossip.digest
    def probe_outcome(common, args):
        digest = args[2]
        profile = profiles(digest.user_id)
        if profile is not None and profile.version == digest.version and common:
            add("digest.returned", len(common))
            add("digest.false_positives", len(common - profile.items))

    inst.call(DigestCache, "common_items", "gossip.digest.common_items", after=probe_outcome)
    inst.call(DigestCache, "digest_for", "gossip.digest.digest_for")

    # gossip.views
    inst.call(PersonalNetwork, "consider", "gossip.views.consider",
              after=lambda accepted, _: add("views.accepted", 1 if accepted else 0))
    inst.call(RandomView, "merge", "gossip.views.merge")

    def stored(kept, _):
        if kept and tracer.current_layer() == "gossip.profile_exchange":
            add("exchange.profiles_kept")

    inst.call(PersonalNetwork, "store_profile", "gossip.views.store_profile", after=stored)

    # gossip.profile_exchange / gossip.peer_sampling
    for attr in ("run_cycle_effects", "exchange_effects", "handle_advertisement_effects",
                 "integrate_effects", "refresh_from_random_view_effects"):
        inst.generator(
            LazyExchangeProtocol, attr, f"gossip.profile_exchange.{attr}",
            on_call=(lambda: add("exchange.exchanges")) if attr == "exchange_effects" else None,
        )
    inst.call(LazyExchangeProtocol, "handle_advertisement", "gossip.profile_exchange.handle_advertisement")
    inst.generator(PeerSamplingProtocol, "run_cycle_effects", "gossip.peer_sampling.run_cycle_effects",
                   on_call=lambda: add("peer_sampling.rounds"))
    inst.call(PeerSamplingProtocol, "handle_advertisement", "gossip.peer_sampling.handle_advertisement")

    # simulator.engine / simulator.transport
    cycle = tracer.name_id("simulator.engine.run_cycle")

    def timed_cycle(run_cycle):
        @functools.wraps(run_cycle)
        def wrapper(*args, **kwargs):
            started = time.perf_counter_ns()
            tracer.begin(cycle)
            try:
                return run_cycle(*args, **kwargs)
            finally:
                tracer.end()
                sample("engine.cycle_ms", (time.perf_counter_ns() - started) / 1e6)

        return wrapper

    inst._patch(SimulationEngine, "run_cycle", timed_cycle)

    def fetched(dispatch, args):
        if type(args[3]) is FullProfileRequest and dispatch.reply is not None \
                and dispatch.reply.profile is not None:
            add("exchange.profiles_fetched")

    for cls in (Transport, DirectTransport):
        for attr in ("request", "send", "drain"):
            if attr in vars(cls):
                inst.call(cls, attr, f"simulator.transport.{cls.__name__}.{attr}",
                          qid=_query_kwarg,
                          after=fetched if attr == "request" else None)

    def accounted(args, kwargs):
        # Rows recorded by the engine's transport; the service runtime
        # accounts through the same collector from outside any transport span.
        if tracer.current_layer() == "simulator.transport":
            row = dict(zip(("cycle", "sender", "receiver", "kind", "size_bytes"), args[1:]))
            row.update(kwargs)
            add("transport.messages")
            add(f"transport.bytes.{row['kind']}", row["size_bytes"])

    inst.counter(StatsCollector, "record", accounted)

    # p3q.protocol / p3q.node / p3q.eager / p3q.query
    for attr in ("run_lazy", "run_eager", "issue_queries", "apply_profile_changes",
                 "warm_start", "bootstrap_random_views", "eager_participants"):
        inst.call(P3QSimulation, attr, f"p3q.protocol.{attr}")
    inst.call(P3QNode, "handle_message", "p3q.node.handle_message")
    inst.call(P3QNode, "issue_query", "p3q.node.issue_query", qid=_query_arg(1))
    inst.generator(P3QNode, "handle_message_effects", "p3q.node.handle_message_effects")
    inst.generator(EagerGossipProtocol, "gossip_query_effects", "p3q.eager.gossip_query_effects",
                   qid=_query_arg(2))
    inst.generator(EagerGossipProtocol, "select_destination_effects",
                   "p3q.eager.select_destination_effects")
    inst.generator(EagerGossipProtocol, "process_at_destination_effects",
                   "p3q.eager.process_at_destination_effects", qid=_query_arg(2),
                   on_call=lambda: add("eager.forwards"))
    inst.call(EagerGossipProtocol, "process_at_destination", "p3q.eager.process_at_destination",
              qid=_query_arg(2))
    inst.call(QuerySession, "close_cycle", "p3q.query.close_cycle",
              qid=lambda args, kwargs: args[0].query.query_id)
    inst.counter(QuerySession, "receive_partial", lambda *_: add("query.partials"))

    # topk
    accesses = weakref.WeakKeyDictionary()

    def scanned(nra) -> None:
        now = nra.sequential_accesses
        add("topk.sequential_accesses", now - accesses.get(nra, 0))
        accesses[nra] = now

    def merged(_, args):
        sample("topk.candidates", args[0].num_candidates)
        scanned(args[0])

    inst.call(IncrementalNRA, "process_cycle", "topk.process_cycle", after=merged)
    inst.call(IncrementalNRA, "finalize", "topk.finalize", after=lambda _, args: scanned(args[0]))

    # service.codec / service.runtime
    for attr in ("encode_request", "encode_reply", "encode_send"):
        inst.call(BinaryWireCodec, attr, "service.codec.encode",
                  after=lambda frame, _: (add("codec.encoded"), add("codec.bytes", len(frame))))
    inst.call(BinaryWireCodec, "decode_body", "service.codec.decode",
              after=lambda *_: add("codec.decoded"))
    inst.call(BinaryWireCodec, "split", "service.codec.split")
    inst.call(InProcWire, "send", "service.runtime.wire_send",
              after=lambda *_: add("runtime.wire_writes"))
    for attr in ("send", "send_now", "flush_all"):
        inst.call(FrameBatcher, attr, f"service.runtime.batcher_{attr}")
    for attr in ("account", "observe"):
        inst.call(ServiceRuntime, attr, f"service.runtime.{attr}")

    def lagging(schedule):
        import asyncio

        @functools.wraps(schedule)
        def wrapper(self, delay, callback):
            due = asyncio.get_running_loop().time() + delay

            def fire():
                sample("runtime.wheel_lag_ms", (asyncio.get_running_loop().time() - due) * 1e3)
                callback()

            return schedule(self, delay, fire)

        return wrapper

    inst._patch(TimerWheel, "schedule", lagging)
    return inst


# ------------------------------------------------------------------- read-out


def per_layer(tracer: Tracer, services: List[Any], cpu_s: float, overhead: float) -> Dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    c, s = tracer.counters, tracer.seconds
    own = functools.partial(tracer.seconds, own=True)
    layer = tracer.layer_self_s

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    cycle_ms = tracer.samples.get("engine.cycle_ms", [])
    candidates = tracer.samples.get("topk.candidates", [])
    rpc_ms = [x * 1e3 for runtime in services for x in runtime.rpc_latencies]
    requests = [e for runtime in services for e in runtime.trace.events if e.op == "request"]
    lags = tracer.samples.get("runtime.wheel_lag_ms", [])
    roots = sum(s(name) for name in tracer.names if name.startswith("bench."))
    m: Dict[str, tuple] = {
        "data.generate_s": (s("data.generate"), "s"),
        "data.change_days_s": (s("data.apply_change_day"), "s"),
        "similarity.ideal_index_s": (s("similarity.ideal_index"), "s"),
        "bloom.filters_built": (tracer.calls("bloom.from_items"), "count"),
        "bloom.build_s": (s("bloom.from_items"), "s"),
        "bloom.bit_positions_s": (s("bloom.bit_positions"), "s"),
        "gossip.digest.common_items_calls": (tracer.calls("gossip.digest.common_items"), "count"),
        "gossip.digest.common_items_s": (own("gossip.digest.common_items"), "s"),
        "gossip.digest.false_positive_ratio": (
            ratio(c.get("digest.false_positives", 0), c.get("digest.returned", 0)), "ratio"),
        "gossip.digest.self_s": (layer("gossip.digest"), "s"),
        "gossip.views.consider_calls": (tracer.calls("gossip.views.consider"), "count"),
        "gossip.views.consider_s": (s("gossip.views.consider"), "s"),
        "gossip.views.merge_s": (s("gossip.views.merge"), "s"),
        "gossip.views.accepted_ratio": (
            ratio(c.get("views.accepted", 0), tracer.calls("gossip.views.consider")), "ratio"),
        "gossip.profile_exchange.exchanges": (c.get("exchange.exchanges", 0), "count"),
        "gossip.profile_exchange.self_s": (layer("gossip.profile_exchange"), "s"),
        "gossip.profile_exchange.profiles_kept_ratio": (
            ratio(c.get("exchange.profiles_kept", 0), c.get("exchange.profiles_fetched", 0)), "ratio"),
        "gossip.peer_sampling.rounds": (c.get("peer_sampling.rounds", 0), "count"),
        "gossip.peer_sampling.self_s": (layer("gossip.peer_sampling"), "s"),
        "simulator.engine.cycle_ms_p50": (statistics.median(cycle_ms) if cycle_ms else 0.0, "ms"),
        "simulator.engine.self_s": (layer("simulator.engine"), "s"),
        "simulator.transport.messages": (c.get("transport.messages", 0), "count"),
        "simulator.transport.kb": (
            sum(c.get(f"transport.bytes.{k}", 0) for k in MESSAGE_KINDS) / 1024.0, "KB"),
    }
    for kind in MESSAGE_KINDS:
        m[f"simulator.transport.kb.{kind}"] = (c.get(f"transport.bytes.{kind}", 0) / 1024.0, "KB")
    m.update({
        "simulator.transport.self_s": (layer("simulator.transport"), "s"),
        "p3q.protocol.self_s": (layer("p3q.protocol"), "s"),
        "p3q.node.self_s": (layer("p3q.node"), "s"),
        "p3q.eager.forwards": (c.get("eager.forwards", 0), "count"),
        "p3q.eager.self_s": (layer("p3q.eager"), "s"),
        "p3q.query.partials_merged": (c.get("query.partials", 0), "count"),
        "p3q.query.close_cycle_s": (own("p3q.query.close_cycle"), "s"),
        "p3q.scoring.partial_scores_calls": (tracer.calls("p3q.scoring.partial_scores"), "count"),
        "p3q.scoring.partial_scores_s": (s("p3q.scoring.partial_scores"), "s"),
        "topk.process_cycle_calls": (tracer.calls("topk.process_cycle"), "count"),
        "topk.process_cycle_s": (s("topk.process_cycle"), "s"),
        "topk.finalize_s": (s("topk.finalize"), "s"),
        "topk.candidates_p50": (statistics.median(candidates) if candidates else 0.0, "count"),
        "topk.sequential_accesses": (c.get("topk.sequential_accesses", 0), "count"),
        "serving.driver_self_s": (own("serving.run_serving"), "s"),
        "service.codec.frames_encoded": (c.get("codec.encoded", 0), "count"),
        "service.codec.frames_decoded": (c.get("codec.decoded", 0), "count"),
        "service.codec.encode_s": (s("service.codec.encode"), "s"),
        "service.codec.decode_s": (s("service.codec.decode") + s("service.codec.split"), "s"),
        "service.codec.wire_kb": (c.get("codec.bytes", 0) / 1024.0, "KB"),
        "service.runtime.gossip_rounds": (sum(r.gossip_rounds for r in services), "count"),
        "service.runtime.eager_ticks": (sum(r.eager_ticks for r in services), "count"),
        "service.runtime.rpcs": (len(requests), "count"),
        "service.runtime.rpc_ms_p50": (percentile(rpc_ms, 50), "ms"),
        "service.runtime.rpc_ms_p99": (percentile(rpc_ms, 99), "ms"),
        "service.runtime.rpcs_dropped": (sum(1 for e in requests if e.status == "dropped"), "count"),
        "service.runtime.wire_writes": (c.get("runtime.wire_writes", 0), "count"),
        "service.runtime.frames_per_write": (
            ratio(c.get("codec.encoded", 0), c.get("runtime.wire_writes", 0)), "ratio"),
        "service.runtime.wheel_lag_ms_p50": (percentile(lags, 50), "ms"),
        "service.runtime.wheel_lag_ms_p99": (percentile(lags, 99), "ms"),
        "service.runtime.handler_s": (s("p3q.node.handle_message_effects"), "s"),
        "service.runtime.self_s": (layer("service.runtime"), "s"),
        "process.cpu_s": (cpu_s, "s"),
        "process.wall_s": (roots, "s"),
        "process.other_s": (layer("bench"), "s"),
        "process.trace_hooks_s": (layer("trace"), "s"),
        "process.trace_overhead": (overhead, "ratio"),
        "process.spans": (sum(tracer.count), "count"),
    })
    return m


def trace_run(workload, out_dir: str):
    """``--trace 1``: an untraced reference round, then traced rounds.

    A workload whose one round fills the run gets half the run for each of
    the two.  Returns the per-layer metrics and every round played.
    """
    from .workloads import NullTracer

    started = time.perf_counter()
    seconds = workload.seconds
    if workload.one_round_per_run:
        workload.seconds = seconds / 2
    reference = workload.round(NullTracer(), 0)
    tracer = Tracer()
    inst = instrument(tracer, lambda uid: workload.sim and workload.sim.dataset.profile(uid))
    rounds = []
    try:
        while not rounds or (
            not workload.one_round_per_run and time.perf_counter() - started < seconds
        ):
            rounds.append(workload.round(tracer, len(rounds) + 1))
    finally:
        inst.remove()
    cpu = sum(r.cpu_s for r in rounds)
    per_op = cpu / max(1, sum(r.completed for r in rounds))
    overhead = per_op / (reference.cpu_s / max(1, reference.completed)) - 1.0
    services = [workload.runtime] if workload.runtime is not None else []
    metrics = per_layer(tracer, services, cpu, overhead)
    tracer.dump(
        os.path.join(out_dir, f"{workload.name}-seed{workload.seed}.json"),
        {"workload": workload.name, "seed": workload.seed, "traced_rounds": len(rounds)},
    )
    return (
        {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        [reference] + rounds,
    )
