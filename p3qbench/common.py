"""Inputs, brute-force references and small statistics shared by the workloads.

Everything here works on *raw* tagging-action sets -- ``user -> frozenset of
(item, tag)`` -- taken straight from the synthetic generator's action
stream, never from the program's interned profiles or caches, so the
references the correctness checks compare against are computed
independently of the code under test.
"""

from __future__ import annotations

import hashlib
import math
import resource
import sys
from collections import Counter, defaultdict
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple

Action = Tuple[int, int]
RawActions = Dict[int, FrozenSet[Action]]


def raw_actions(config) -> RawActions:
    """``user -> action set`` from a fresh generator's action stream."""
    from repro.data.synthetic import SyntheticTraceGenerator

    return {
        user_id: frozenset(actions)
        for user_id, actions in SyntheticTraceGenerator(config).iter_user_actions()
    }


def fingerprint(*parts: object) -> str:
    """A short stable digest of the ``repr`` of canonicalised inputs."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def dataset_fingerprint(raw: Mapping[int, Iterable[Action]]) -> str:
    return fingerprint([(uid, sorted(raw[uid])) for uid in sorted(raw)])


def top_thresholds(raw: Mapping[int, FrozenSet[Action]], size: int) -> Dict[int, Tuple[int, int]]:
    """``u -> (t, m)``: ``u``'s brute-force top ``m = min(size, #peers sharing
    an action)`` neighbours all have ``|A(u) & A(v)| >= t``, the ``m``-th
    largest overlap.  Users sharing no action with anyone are left out.
    """
    holders: Dict[Action, List[int]] = defaultdict(list)
    for user_id, actions in raw.items():
        for action in actions:
            holders[action].append(user_id)
    thresholds: Dict[int, Tuple[int, int]] = {}
    for user_id, actions in raw.items():
        counts: Counter = Counter()
        for action in actions:
            counts.update(holders[action])
        del counts[user_id]
        if counts:
            top = sorted(counts.values(), reverse=True)[:size]
            thresholds[user_id] = (top[-1], len(top))
    return thresholds


def success_ratio(
    raw: Mapping[int, FrozenSet[Action]],
    thresholds: Mapping[int, Tuple[int, int]],
    discovered: Mapping[int, Sequence[int]],
) -> float:
    """Mean share of each user's brute-force top-``s`` neighbours they have discovered.

    Ties at the ``s``-th score count in the user's favour: any discovered
    member whose overlap reaches the threshold of :func:`top_thresholds`
    is a hit.
    """
    ratios = []
    for user_id, (threshold, wanted) in thresholds.items():
        own = raw[user_id]
        hits = sum(1 for v in set(discovered.get(user_id, ())) if len(own & raw[v]) >= threshold)
        ratios.append(min(hits, wanted) / wanted)
    return sum(ratios) / len(ratios) if ratios else 1.0


def brute_scores(raw: Mapping[int, FrozenSet[Action]], users: Iterable[int], tags: Iterable[int]) -> Dict[int, int]:
    """``item -> sum over users of |{t in tags : (item, t) in A(u)}|``."""
    wanted: Set[int] = set(tags)
    scores: Dict[int, int] = defaultdict(int)
    for user_id in users:
        for item, tag in raw[user_id]:
            if tag in wanted:
                scores[item] += 1
    return dict(scores)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss``), in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0
