"""Integration tests: every algorithm returns identical answers.

These tests replay the same streams through the SAP framework (all three
partitioners, both meaningful-set policies, with and without the S-AVL) and
all competitor algorithms, asserting window-by-window agreement with the
brute-force oracle across datasets and query parameters.
"""

import pytest

from repro import (
    BruteForceTopK,
    KSkybandTopK,
    MinTopK,
    SAPTopK,
    SMATopK,
    TopKQuery,
)
from repro.partitioning import (
    DynamicPartitioner,
    EnhancedDynamicPartitioner,
    EqualPartitioner,
)
from repro.streams import make_dataset

from ..conftest import assert_all_agree

SAP_VARIANTS = [
    lambda q: SAPTopK(q, partitioner=EqualPartitioner()),
    lambda q: SAPTopK(q, partitioner=DynamicPartitioner()),
    lambda q: SAPTopK(q, partitioner=EnhancedDynamicPartitioner()),
    lambda q: SAPTopK(q, meaningful_policy="eager"),
    lambda q: SAPTopK(q, meaningful_policy="amortized"),
    lambda q: SAPTopK(q, use_savl=False),
]

ALL_COUNT_BASED = [BruteForceTopK] + SAP_VARIANTS + [MinTopK, KSkybandTopK, SMATopK]


@pytest.mark.parametrize("dataset", ["STOCK", "TRIP", "PLANET", "TIMEU", "TIMER"])
def test_all_algorithms_agree_on_default_parameters(dataset):
    objects = make_dataset(dataset).take(1500)
    query = TopKQuery(n=300, k=10, s=30)
    assert_all_agree(ALL_COUNT_BASED, objects, query)


@pytest.mark.parametrize(
    "n,k,s",
    [
        (100, 5, 1),     # per-object sliding
        (100, 5, 50),    # s >> k
        (100, 50, 5),    # k >> s
        (200, 1, 20),    # k = 1
        (120, 10, 120),  # tumbling window (s = n)
        (96, 7, 8),      # s does not divide n
    ],
)
def test_all_algorithms_agree_across_query_parameters(n, k, s):
    objects = make_dataset("TIMEU").take(1200)
    query = TopKQuery(n=n, k=k, s=s)
    assert_all_agree(ALL_COUNT_BASED, objects, query)


@pytest.mark.parametrize("dataset", ["TIMER", "STOCK"])
def test_adversarial_distributions_small_slide(dataset):
    objects = make_dataset(dataset).take(1000)
    query = TopKQuery(n=250, k=20, s=5)
    assert_all_agree(ALL_COUNT_BASED, objects, query)


def test_time_based_windows_agree():
    import random

    from repro.core.object import StreamObject

    rng = random.Random(13)
    objects = []
    timestamp = 0
    for t in range(2500):
        if rng.random() < 0.5:
            timestamp += rng.randint(1, 4)
        objects.append(StreamObject(score=rng.uniform(0, 100), t=t, timestamp=timestamp))

    query = TopKQuery(n=200, k=8, s=25, time_based=True)
    assert_all_agree([BruteForceTopK] + SAP_VARIANTS + [KSkybandTopK, SMATopK], objects, query)


def test_candidate_ordering_matches_paper_expectation():
    """Candidate-set sizes follow the paper's ordering (Table 6): SAP keeps
    the fewest candidates, and in the paper's default regime (s < k) the
    plain k-skyband baseline does not beat MinTopK."""
    objects = make_dataset("TIMEU").take(3000)
    query = TopKQuery(n=600, k=20, s=10)
    _, sap, mintopk, skyband = (
        run.metrics.average_candidates
        for run in assert_all_agree(
            [BruteForceTopK, SAPTopK, MinTopK, KSkybandTopK], objects, query
        )
    )
    assert sap < mintopk
    assert sap < skyband


def test_memory_ordering_matches_paper_expectation():
    """Memory follows the same ordering as candidate counts (Table 8)."""
    objects = make_dataset("TIMER").take(3000)
    query = TopKQuery(n=600, k=20, s=30)
    _, sap, _, skyband = (
        run.metrics.average_memory_kb
        for run in assert_all_agree(
            [BruteForceTopK, SAPTopK, MinTopK, KSkybandTopK], objects, query
        )
    )
    assert skyband > sap
