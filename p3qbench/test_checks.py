"""The correctness checks accept real results and reject corrupted ones.

Small real runs of the program (N=60) supply correct results; each test
then corrupts one of them the way a bug would -- a score off by one, a
returned item swapped for an unreturned one, a stored replica missing an
action -- and expects the check to report it.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from p3qbench import checks  # noqa: E402
from p3qbench.common import brute_scores, raw_actions  # noqa: E402
from p3qbench.workloads import network_snapshot  # noqa: E402

NUM_USERS = 60
SIZE = 10


@pytest.fixture(scope="module")
def lazy_run():
    from repro.data import SyntheticConfig, generate_dataset
    from repro.p3q import P3QConfig, P3QSimulation

    data = SyntheticConfig(num_users=NUM_USERS, seed=3)
    sim = P3QSimulation(generate_dataset(data), P3QConfig(network_size=SIZE, storage=3, seed=3))
    sim.bootstrap_random_views()
    sim.run_lazy(8)
    return raw_actions(data), network_snapshot(sim)


@pytest.fixture(scope="module")
def query_run():
    from repro.data import QueryWorkloadGenerator, SyntheticConfig, generate_dataset
    from repro.p3q import P3QConfig, P3QSimulation

    data = SyntheticConfig(num_users=NUM_USERS, seed=5)
    dataset = generate_dataset(data)
    sim = P3QSimulation(dataset, P3QConfig(network_size=SIZE, storage=2, k=5, seed=5))
    sim.warm_start()
    queries = QueryWorkloadGenerator(dataset, seed=5).generate(list(range(8)))
    sim.issue_queries(queries)
    sim.run_eager(40)
    raw = raw_actions(data)
    results = []
    for query in queries:
        session = sim.sessions()[query.query_id]
        assert session.closed
        scores = brute_scores(raw, session.expected_profiles, query.tags)
        results.append((query.query_id, list(session.current_top_k()), scores))
    return results


def _corrupt_member_score(networks):
    owner, (members, replicas) = next((o, n) for o, n in sorted(networks.items()) if n[0])
    member, score = members[0]
    corrupted = dict(networks)
    corrupted[owner] = ([(member, score + 1)] + list(members[1:]), replicas)
    return corrupted


def test_network_check_accepts_the_real_run(lazy_run):
    raw, networks = lazy_run
    assert checks.check_networks(networks, raw, SIZE) == []


def test_network_check_rejects_a_score_off_by_one(lazy_run):
    raw, networks = lazy_run
    errors = checks.check_networks(_corrupt_member_score(networks), raw, SIZE)
    assert len(errors) == 1 and "brute force" in errors[0]


def test_network_check_rejects_a_replica_missing_an_action(lazy_run):
    raw, networks = lazy_run
    owner, (members, replicas) = next((o, n) for o, n in sorted(networks.items()) if n[1])
    member = min(replicas)
    corrupted = dict(networks)
    corrupted[owner] = (members, {**replicas, member: frozenset(sorted(replicas[member])[1:])})
    errors = checks.check_networks(corrupted, raw, SIZE)
    assert len(errors) == 1 and "replica" in errors[0]


def test_network_check_rejects_the_owner_and_oversized_networks(lazy_run):
    raw, networks = lazy_run
    owner, (members, replicas) = next((o, n) for o, n in sorted(networks.items()) if n[0])
    own = len(raw[owner])
    corrupted = {owner: ([(owner, own)] + list(members), replicas)}
    errors = checks.check_networks(corrupted, raw, len(members))
    assert any("contains its owner" in e for e in errors)
    assert any("members >" in e for e in errors)


def test_exact_check_accepts_the_real_queries(query_run):
    for query_id, returned, scores in query_run:
        assert checks.check_exact_topk(query_id, returned, 5, scores) == []
        assert checks.check_bounded_topk(query_id, returned, 5, scores, scores) == []


def test_query_checks_reject_a_score_off_by_one(query_run):
    query_id, returned, scores = query_run[0]
    item, score = returned[-1]
    corrupted = returned[:-1] + [(item, score + 1)]
    assert checks.check_exact_topk(query_id, corrupted, 5, scores)
    assert checks.check_bounded_topk(query_id, corrupted, 5, scores, scores)


def test_query_checks_reject_a_swapped_item(query_run):
    for query_id, returned, scores in query_run:
        kept = {item for item, _ in returned}
        best = max((s for i, s in scores.items() if i not in kept), default=0)
        if len(returned) == 5 and best:
            # The best unreturned item takes the place of the top result.
            swapped = max((i for i in scores if i not in kept), key=lambda i: (scores[i], -i))
            corrupted = [(swapped, returned[0][1])] + returned[1:]
            assert checks.check_exact_topk(query_id, corrupted, 5, scores)
            assert checks.check_bounded_topk(query_id, corrupted, 5, scores, scores)
            return
    pytest.fail("no query with an unreturned positive-score item")


def test_bounded_check_allows_scores_between_start_and_end():
    start = {1: 3, 2: 2, 3: 1}
    end = {1: 4, 2: 2, 3: 2, 4: 1}
    assert checks.check_bounded_topk(0, [(1, 4.0), (2, 2.0)], 2, start, end) == []
    # Item 3 reached 2 only by the end; returning it at 3 is out of bounds.
    assert checks.check_bounded_topk(0, [(1, 4.0), (3, 3.0)], 2, start, end)
    # Scores must not increase down the list.
    assert checks.check_bounded_topk(0, [(2, 2.0), (1, 3.0)], 2, start, end)
