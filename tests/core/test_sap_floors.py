"""The two floors of an SAP slide, at score ties.

A slide admits an arrival into the pending top-k only when it scores at
least the k-th kept score (the pending floor), and lets a pending object
answer only when it scores at least the k-th candidate (the answer floor).
The newer object wins a score tie, so both floors admit ties.  Integer
scores make ties the rule: every answer is checked against brute force
under each meaningful-set policy, with the S-AVL on and off.
"""

import random

import pytest

from repro.core.framework import MEANINGFUL_POLICIES, SAPTopK
from repro.core.query import TopKQuery
from repro.core.window import slides_for_query
from repro.partitioning.dynamic import DynamicPartitioner
from repro.partitioning.enhanced import EnhancedDynamicPartitioner
from repro.partitioning.equal import EqualPartitioner
from repro.registry import create_algorithm

from ..conftest import make_objects

CONFIGURATIONS = [
    (policy, use_savl) for policy in MEANINGFUL_POLICIES for use_savl in (True, False)
]
PARTITIONERS = {
    "equal": EqualPartitioner,
    "dynamic": DynamicPartitioner,
    "enhanced": EnhancedDynamicPartitioner,
}


def _identities(results):
    return [(r.slide_index, r.window_end, r.identity()) for r in results]


def _one_partition_core(policy, use_savl):
    """k = 2 over a window of 12 sealed as one partition (equal, m = 1),
    so the objects after the first window stay pending."""
    query = TopKQuery(n=12, k=2, s=1)
    algorithm = SAPTopK(
        query, partitioner=EqualPartitioner(m=1), meaningful_policy=policy, use_savl=use_savl
    )
    return query, algorithm


def _answers(algorithm, query, objects):
    answers = []
    for event in slides_for_query(objects, query):
        answers.append(algorithm.process_slide(event))
        algorithm.check_invariants()
    return answers


@pytest.mark.parametrize("policy,use_savl", CONFIGURATIONS)
def test_arrival_tying_the_pending_kth_enters(policy, use_savl):
    # Twelve zeros seal; then 5 and 3 fill the pending top-2 and a newer 3
    # ties its k-th score.
    objects = make_objects([0] * 12 + [5, 3, 3])
    query, algorithm = _one_partition_core(policy, use_savl)
    answers = _answers(algorithm, query, objects)
    assert algorithm.partition_count == 1
    newest = objects[-1]
    assert any(obj is newest for obj in algorithm._pending_topk)
    assert answers[-1].identity() == ((5.0, 12), (3.0, 14))
    assert _identities(answers) == _identities(
        create_algorithm("brute-force", query).run(objects)
    )


@pytest.mark.parametrize("policy,use_savl", CONFIGURATIONS)
def test_pending_object_tying_the_kth_candidate_answers(policy, use_savl):
    # The sealed window's top-2 is 9 (t=10) and 7 (t=11); a pending 7 at
    # t=12 ties the k-th candidate and, being newer, outranks it.
    objects = make_objects([0] * 10 + [9, 7, 7])
    query, algorithm = _one_partition_core(policy, use_savl)
    answers = _answers(algorithm, query, objects)
    assert len(algorithm._candidates) >= query.k
    assert answers[-1].identity() == ((9.0, 10), (7.0, 12))
    assert _identities(answers) == _identities(
        create_algorithm("brute-force", query).run(objects)
    )


@pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
@pytest.mark.parametrize("policy,use_savl", CONFIGURATIONS)
@pytest.mark.parametrize("seed", range(4))
def test_integer_streams_match_brute_force(partitioner, policy, use_savl, seed):
    rng = random.Random(seed)
    objects = make_objects([rng.randrange(6) for _ in range(600)])
    n = rng.choice((20, 45, 80))
    query = TopKQuery(n=n, k=rng.choice((1, 3, 7)), s=rng.choice((1, 4, 9)))
    algorithm = SAPTopK(
        query,
        partitioner=PARTITIONERS[partitioner](),
        meaningful_policy=policy,
        use_savl=use_savl,
    )
    assert _identities(_answers(algorithm, query, objects)) == _identities(
        create_algorithm("brute-force", query).run(objects)
    )
