"""Pinned partition boundaries of the dynamic partitioners on Table 3's query.

The dynamic partitioners size their partitions from the reference-interval
length ``ηk`` (:func:`repro.stats.solvers.eta_k`) and the rank-sum test.  A
change to either moves partition boundaries without changing any answer —
SAP is exact for every partitioning — so these tests pin the boundaries
themselves: every sealed partition's size, the final ``seal_stats()``, and
the per-slide candidate counts, on fixed STOCK and DRIFT streams with the
paper's Table 3 query (n=1000, k=20, s=10).
"""

import pytest

from repro.core.query import TopKQuery
from repro.core.window import slides_for_query
from repro.registry import create_algorithm
from repro.streams import make_dataset

QUERY = TopKQuery(n=1000, k=20, s=10)
EVENTS = 8000


def _runs(*pairs):
    """Expand ``(size, repeat)`` run-length pairs into a size list."""
    return [size for size, repeat in pairs for _ in range(repeat)]


#: dataset -> (sealed sizes, candidate-count sum/max/last, seal_stats minus name)
PINNED = {
    "STOCK": (
        _runs((260, 30)),
        (46459, 79, 73),
        {
            "average_partition_size": 260.0,
            "forced_seals": 0,
            "framework": {
                "fronts_prepared": 27,
                "meaningful_formed": 0,
                "meaningful_skipped": 27,
                "partitions_sealed": 30,
                "promotions": 0,
                "refine_removals": 311,
            },
            "last_partition_size": 260,
            "objects_sealed": 7800,
            "partitions_live": 4,
            "partitions_sealed": 30,
            "pending": 200,
        },
    ),
    "DRIFT": (
        _runs((260, 8), (130, 15), (260, 8), (130, 13)),
        (38763, 141, 40),
        {
            "average_partition_size": 7800 / 44,
            "forced_seals": 0,
            "framework": {
                "fronts_prepared": 38,
                "meaningful_formed": 1,
                "meaningful_skipped": 37,
                "partitions_sealed": 44,
                "promotions": 20,
                "refine_removals": 723,
            },
            "last_partition_size": 130,
            "objects_sealed": 7800,
            "partitions_live": 7,
            "partitions_sealed": 44,
            "pending": 200,
        },
    ),
}


@pytest.mark.parametrize(
    "algorithm, partitioner_name",
    [("SAP-dynamic", "dynamic"), ("SAP", "enhanced-dynamic")],
)
@pytest.mark.parametrize("dataset", sorted(PINNED))
def test_sealed_partitions_and_counters_are_pinned(dataset, algorithm, partitioner_name):
    sizes_expected, candidates_expected, stats_expected = PINNED[dataset]
    sap = create_algorithm(algorithm, QUERY)
    sealed_sizes = []
    candidates = []
    sealed = 0
    for event in slides_for_query(make_dataset(dataset).take(EVENTS), QUERY):
        sap.process_slide(event)
        new = sap.stats.partitions_sealed - sealed
        if new:
            # Sealed partitions join the back of the live sequence.
            sealed_sizes.extend(sap.partition_sizes()[-new:])
            sealed = sap.stats.partitions_sealed
        candidates.append(sap.candidate_count())

    assert sealed_sizes == sizes_expected
    assert (sum(candidates), max(candidates), candidates[-1]) == candidates_expected
    assert sap.seal_stats() == dict(stats_expected, name=partitioner_name)
