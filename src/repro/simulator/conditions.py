"""Adversarial network conditions: partitions, asymmetric links, NAT nodes.

The paper's evaluation assumes benign churn and uniform links.  This module
supplies the adversarial side as *composable, deterministic* fault-injection
conditions layered on the transport:

* :class:`PartitionSpec` -- a seeded split of the population into ``>= 2``
  components between a split cycle and a heal cycle (global engine cycles).
  While the cut is active, every freshly sent message whose endpoints sit on
  opposite sides is dropped -- and, like a lossy drop, still charged to its
  sender (the connection attempt happens; the paper's cost model charges at
  send time).  Envelopes already in flight across the cut are *held* until
  the heal cycle instead of being lost: their bytes were spent exactly once,
  and delivery resumes when the components merge.

* :class:`AsymmetrySpec` -- per-*direction* link degradation.  A seeded
  fraction of ordered ``(sender, receiver)`` pairs is marked degraded; a
  degraded direction adds an extra loss roll and an extra delivery delay on
  top of whatever the base loss/latency conditions already impose.  Because
  directions are sampled independently, ``a -> b`` can be perfect while
  ``b -> a`` loses every message.  A seeded ``nat_fraction`` of nodes
  additionally refuses *inbound* connections entirely (NAT without hole
  punching): contacting them fails like contacting an offline node, before
  any bytes are charged, while their own outbound traffic flows normally.

Both specs are frozen config objects (carried by ``P3QConfig`` and
``ScenarioSpec``) with hardened constructors, and every random decision is
drawn from its own seeded stream -- independent of the node RNGs and of the
base loss/delay streams -- so a zero-rate condition consumes no randomness
and a conditioned transport with no conditions is bit-identical to
:class:`~repro.simulator.transport.DirectTransport`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from .transport import (
    Envelope,
    Message,
    Transport,
    _validate_delay_cycles,
    _validate_loss_rate,
)


def validate_fraction(name: str, value: float) -> float:
    """A population/link fraction must be a finite real number in [0, 1].

    Mirrors ``_validate_loss_rate``: booleans are almost certainly a
    mixed-up argument and NaN would silently disable comparison-based
    sampling, so both are rejected.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def _validate_count(name: str, value: int, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class PartitionSpec:
    """A network partition active over ``[split_cycle, heal_cycle)``.

    Cycles are *global* engine cycles (counted across the lazy and eager
    phases).  The population is dealt into ``components`` groups by a seeded
    shuffle, so components are balanced and every component is non-empty
    whenever the population allows.
    """

    components: int = 2
    split_cycle: int = 0
    heal_cycle: int = 1

    def __post_init__(self) -> None:
        _validate_count("components", self.components, 2)
        _validate_count("split_cycle", self.split_cycle, 0)
        _validate_count("heal_cycle", self.heal_cycle, 0)
        if self.heal_cycle <= self.split_cycle:
            raise ValueError(
                "heal_cycle must come strictly after split_cycle, got "
                f"split={self.split_cycle!r}, heal={self.heal_cycle!r}"
            )


@dataclass(frozen=True, slots=True)
class AsymmetrySpec:
    """Per-direction link degradation plus NAT-like unreachable-inbound nodes.

    A ``degraded_fraction`` of ordered node pairs suffers an extra
    ``link_loss_rate`` drop roll and up to ``link_delay_cycles`` extra delay
    per deferrable message; a ``nat_fraction`` of nodes rejects all inbound
    connections.  The all-zero spec (``is_null``) imposes nothing and
    consumes no randomness.
    """

    degraded_fraction: float = 0.0
    link_loss_rate: float = 0.0
    link_delay_cycles: int = 0
    nat_fraction: float = 0.0

    def __post_init__(self) -> None:
        validate_fraction("degraded_fraction", self.degraded_fraction)
        validate_fraction("link_loss_rate", self.link_loss_rate)
        _validate_delay_cycles(self.link_delay_cycles)
        validate_fraction("nat_fraction", self.nat_fraction)

    @property
    def is_null(self) -> bool:
        """True when this spec perturbs nothing at all."""
        return (
            self.degraded_fraction == 0.0
            and self.link_loss_rate == 0.0
            and self.link_delay_cycles == 0
            and self.nat_fraction == 0.0
        )


class ConditionedTransport(Transport):
    """Seeded loss and latency, composed with partition and asymmetric links.

    * **Loss.**  Every message is independently dropped with probability
      ``loss_rate``, drawn from the ``"{seed}/transport/loss"`` stream.
    * **Latency.**  Top-level (``DEFERRABLE``) exchanges are delayed by
      0..``delay_cycles`` engine cycles, drawn from the
      ``"{seed}/transport/delay"`` stream; the control sub-requests of an
      exchange stay synchronous (see :mod:`repro.simulator.transport`).

    Both streams are separate from every node's RNG stream and are drawn
    only when their rate is non-zero, so a transport with no conditions at
    all is bit-identical to
    :class:`~repro.simulator.transport.DirectTransport` and a fixed seed
    yields a fully deterministic run.

    Condition evaluation order per message (matching the base delivery
    path): NAT inbound block (before accounting, like an offline peer) ->
    byte accounting -> partition cut drop (accounted, counted in
    :attr:`cut_drops`) -> base loss roll -> degraded-link loss roll -> base
    delay roll + degraded-link delay.  In-flight envelopes that would cross
    an active cut when drained are re-queued to the heal cycle.
    """

    name = "conditioned"

    def __init__(
        self,
        seed: int = 0,
        loss_rate: float = 0.0,
        delay_cycles: int = 0,
        partition: Optional[PartitionSpec] = None,
        asymmetry: Optional[AsymmetrySpec] = None,
    ) -> None:
        super().__init__()
        self.loss_rate = _validate_loss_rate(loss_rate)
        self.delay_cycles = _validate_delay_cycles(delay_cycles)
        self._drop_rng = random.Random(f"{seed}/transport/loss")
        self._delay_rng = random.Random(f"{seed}/transport/delay")
        if partition is not None and not isinstance(partition, PartitionSpec):
            raise TypeError(f"partition must be a PartitionSpec, got {partition!r}")
        if asymmetry is not None and not isinstance(asymmetry, AsymmetrySpec):
            raise TypeError(f"asymmetry must be an AsymmetrySpec, got {asymmetry!r}")
        self.partition = partition
        self.asymmetry = asymmetry
        self._seed = seed
        #: node id -> partition component index; assigned lazily because the
        #: transport is attached before the population is registered.
        self._components: Optional[Dict[int, int]] = None
        self._nat: Optional[FrozenSet[int]] = None
        #: Memoized per-(sender, receiver) degraded decisions.  Each ordered
        #: pair gets its own hash-seeded stream, so the decision does not
        #: depend on the order in which links are first exercised.
        self._degraded: Dict[Tuple[int, int], bool] = {}
        self._link_drop_rng = random.Random(f"{seed}/transport/asymmetry/loss")
        self._link_delay_rng = random.Random(f"{seed}/transport/asymmetry/delay")
        #: Messages dropped at an active partition cut (accounted drops).
        self.cut_drops = 0

    @property
    def drop_rng(self) -> random.Random:
        return self._drop_rng

    # -- condition state -------------------------------------------------------

    def partition_component(self, node_id: int) -> int:
        """The partition component a node belongs to (0 with no partition)."""
        if self.partition is None:
            return 0
        components = self._components
        if components is None:
            components = self._assign_components()
        return components[node_id]

    def _assign_components(self) -> Dict[int, int]:
        ids = self._network.node_ids()
        rng = random.Random(f"{self._seed}/transport/partition")
        rng.shuffle(ids)
        k = self.partition.components
        self._components = {nid: index % k for index, nid in enumerate(ids)}
        return self._components

    def partition_active(self, cycle: Optional[int] = None) -> bool:
        """Whether the cut is up at ``cycle`` (default: the current cycle)."""
        partition = self.partition
        if partition is None:
            return False
        if cycle is None:
            cycle = self._network.current_cycle
        return partition.split_cycle <= cycle < partition.heal_cycle

    def _crosses_cut(self, sender: int, receiver: int) -> bool:
        return self.partition_component(sender) != self.partition_component(receiver)

    def nat_ids(self) -> FrozenSet[int]:
        """Ids of nodes that refuse inbound connections (stable, seeded)."""
        nat = self._nat
        if nat is None:
            asymmetry = self.asymmetry
            if asymmetry is None or asymmetry.nat_fraction <= 0.0:
                nat = frozenset()
            else:
                ids = self._network.node_ids()
                count = int(round(asymmetry.nat_fraction * len(ids)))
                rng = random.Random(f"{self._seed}/transport/nat")
                nat = frozenset(rng.sample(ids, count))
            self._nat = nat
        return nat

    def _link_degraded(self, sender: int, receiver: int) -> bool:
        key = (sender, receiver)
        hit = self._degraded.get(key)
        if hit is None:
            fraction = self.asymmetry.degraded_fraction
            hit = self._degraded[key] = bool(
                fraction > 0.0
                and random.Random(
                    f"{self._seed}/transport/asymmetry/link/{sender}/{receiver}"
                ).random()
                < fraction
            )
        return hit

    # -- condition hooks -------------------------------------------------------

    def _inbound_blocked(self, sender: int, receiver: int) -> bool:
        return receiver in self.nat_ids()

    def _roll_drop(self, message: Message, sender: int, receiver: int) -> bool:
        if (
            self.partition is not None
            and self.partition_active()
            and self._crosses_cut(sender, receiver)
        ):
            self.cut_drops += 1
            return True
        if self.loss_rate > 0.0 and self._drop_rng.random() < self.loss_rate:
            return True
        asymmetry = self.asymmetry
        if (
            asymmetry is not None
            and asymmetry.link_loss_rate > 0.0
            and self._link_degraded(sender, receiver)
        ):
            return self._link_drop_rng.random() < asymmetry.link_loss_rate
        return False

    def _roll_delay(self, message: Message, sender: int, receiver: int) -> int:
        delay = 0
        if self.delay_cycles > 0 and message.DEFERRABLE:
            delay = self._delay_rng.randint(0, self.delay_cycles)
        asymmetry = self.asymmetry
        if (
            asymmetry is not None
            and asymmetry.link_delay_cycles > 0
            and message.DEFERRABLE
            and self._link_degraded(sender, receiver)
        ):
            delay += self._link_delay_rng.randint(1, asymmetry.link_delay_cycles)
        return delay

    def _drain_blocked(self, envelope: Envelope) -> Optional[int]:
        partition = self.partition
        if (
            partition is not None
            and self.partition_active()
            and self._crosses_cut(envelope.sender, envelope.receiver)
        ):
            return partition.heal_cycle - self._network.current_cycle
        return None
