"""Independent correctness checks, one per workload.

Each check takes plain data -- lists, dicts and raw action sets the
workload extracted from the program after its run -- and returns the list
of violations it found (empty when the result is correct).  Keeping the
checks free of program objects lets ``test_checks.py`` feed them
deliberately corrupted results.
"""

from __future__ import annotations

from typing import FrozenSet, List, Mapping, Sequence, Tuple

from .common import Action

#: A personal network as extracted from the program: ranked
#: ``(member, recorded score)`` pairs and ``member -> replica action set``.
Network = Tuple[Sequence[Tuple[int, float]], Mapping[int, FrozenSet[Action]]]

#: A query result as returned by the program: ``(item, score)`` pairs.
TopK = Sequence[Tuple[int, float]]

#: How many violations a check reports before it stops looking.
MAX_REPORTED = 5


def check_networks(
    networks: Mapping[int, Network],
    raw: Mapping[int, FrozenSet[Action]],
    size: int,
) -> List[str]:
    """lazy-converge: bounded, owner-free networks with exact scores and replicas.

    Every personal network has at most ``size`` distinct members and
    excludes its owner; every member's recorded score equals the
    brute-force ``|A(u) & A(v)|``; every stored replica belongs to a member
    and equals the owner's raw action set.
    """
    errors: List[str] = []
    for owner, (members, replicas) in sorted(networks.items()):
        ids = [member for member, _ in members]
        if len(ids) > size:
            errors.append(f"network of {owner} has {len(ids)} members > {size}")
        if len(set(ids)) != len(ids):
            errors.append(f"network of {owner} lists a member twice")
        if owner in ids:
            errors.append(f"network of {owner} contains its owner")
        for member, score in members:
            expected = len(raw[owner] & raw[member])
            if score != expected:
                errors.append(
                    f"network of {owner}: member {member} scored {score}, brute force {expected}"
                )
        for member, actions in replicas.items():
            if member not in ids:
                errors.append(f"network of {owner} stores a replica of non-member {member}")
            elif actions != raw[member]:
                errors.append(
                    f"network of {owner}: replica of {member} differs from the profile "
                    f"({len(actions)} vs {len(raw[member])} actions)"
                )
        if len(errors) >= MAX_REPORTED:
            break
    return errors[:MAX_REPORTED]


def _ranked_scores(scores: Mapping[int, int], k: int) -> List[float]:
    return sorted((float(s) for s in scores.values() if s > 0), reverse=True)[:k]


def check_exact_topk(query_id: int, returned: TopK, k: int, scores: Mapping[int, int]) -> List[str]:
    """The returned score list equals the brute-force top-``k`` score list,
    and every returned item carries its brute-force score."""
    errors = []
    got = [float(score) for _, score in returned]
    want = _ranked_scores(scores, k)
    if got != want:
        errors.append(f"query {query_id}: scores {got} != brute force {want}")
    for item, score in returned:
        if score != scores.get(item, 0):
            errors.append(
                f"query {query_id}: item {item} scored {score}, brute force {scores.get(item, 0)}"
            )
    return errors


def check_bounded_topk(
    query_id: int,
    returned: TopK,
    k: int,
    start: Mapping[int, int],
    end: Mapping[int, int],
) -> List[str]:
    """serve-mixed: a result computed while profiles only gained actions.

    Each returned item's score lies between its brute-force score at the
    start of the round (``start``) and at the query's completion (``end``);
    scores are non-increasing; and no unreturned item scores higher at the
    start than the ``k``-th returned item scores at the end (with fewer
    than ``k`` items returned, no unreturned item may score at all at the
    start).
    """
    errors = []
    scores = [score for _, score in returned]
    if any(a < b for a, b in zip(scores, scores[1:])):
        errors.append(f"query {query_id}: scores {scores} are not non-increasing")
    for item, score in returned:
        low, high = start.get(item, 0), end.get(item, 0)
        if not low <= score <= high:
            errors.append(
                f"query {query_id}: item {item} scored {score} outside [{low}, {high}]"
            )
    items = {item for item, _ in returned}
    floor = end.get(returned[k - 1][0], 0) if len(returned) >= k else 0
    for item, score in start.items():
        if item not in items and score > floor:
            errors.append(
                f"query {query_id}: unreturned item {item} scores {score} at the start, "
                f"above the k-th result's {floor} at the end"
            )
            break
    return errors


def first_errors(errors: List[str], more: List[str]) -> List[str]:
    """Append ``more`` to ``errors`` up to :data:`MAX_REPORTED` entries."""
    errors.extend(more[: max(0, MAX_REPORTED - len(errors))])
    return errors

