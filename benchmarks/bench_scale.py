"""Subscription scale — clustered preference plans vs per-user exact plans.

The subscription-scale benchmark of preference clustering ("millions of
users"); the table is written under ``benchmarks/results/``.

The workload is many users with *distinct but similar* preference
vectors (drawn around a few shared "tastes") watching one attribute
stream through the same window shape.  The clustered engine answers a
whole cluster from one padded-k shared plan plus a vectorized per-member
re-rank; the baseline gives every user a private exact plan, which is
what clustering replaces.  The baseline's cost is linear in users by
construction, so it is measured on a subsample and extrapolated; the
recorded ``baseline.measured_users`` says how much was measured versus
scaled.

Tiers: the smoke scale runs 1k users (the CI leg), quick adds 10k, and
the full scale adds 100k.  The acceptance bar — clustered >= 5x the
per-user baseline's events/s at 10k users — applies from the 10k tier
up; exactness (sampled members byte-identical to single-user engines)
is asserted at every tier unconditionally.
"""

import random
import time
from typing import Dict, List, Tuple

from repro.core.object import StreamObject
from repro.core.query import TopKQuery
from repro.core.result import results_agree
from repro.engine import QuerySpec, StreamEngine

from conftest import run_sweep
from harness import format_table, write_results

#: Users per tier, keyed by benchmark scale.
TIERS = {
    "smoke": (1_000,),
    "quick": (1_000, 10_000),
    "full": (1_000, 10_000, 100_000),
}

#: Acceptance bar: clustered must beat per-user exact plans by this
#: factor at 10k users and above.
SPEEDUP_BAR = 5.0

#: The 10k-and-up tiers the bar applies to.
BAR_FROM_USERS = 10_000


def _preference_vectors(users: int, dim: int, centers: int, seed: int) -> List[Tuple[float, ...]]:
    """Deterministic user vectors drawn around ``centers`` shared tastes.

    Mirrors the "millions of users, thousands of tastes" premise of the
    clustering plane: each user's vector is a small multiplicative
    perturbation of one of a few center vectors, so greedy cosine
    clustering recovers roughly one cluster per center.
    """
    rng = random.Random(seed)
    anchor = [
        tuple(rng.uniform(0.2, 1.0) for _ in range(dim)) for _ in range(centers)
    ]
    vectors = []
    for index in range(users):
        center = anchor[index % centers]
        vectors.append(
            tuple(max(0.0, w * (1.0 + rng.uniform(-0.05, 0.05))) for w in center)
        )
    return vectors


def _attribute_objects(length: int, dim: int, seed: int):
    """A stream of attribute-carrying objects (scores live in the vectors)."""
    rng = random.Random(seed)
    return [
        StreamObject(
            score=0.0,
            t=t,
            payload={"attributes": [rng.uniform(0.0, 100.0) for _ in range(dim)]},
        )
        for t in range(length)
    ]


def measure_preference_scale(
    users: int,
    query: TopKQuery,
    stream_length: int,
    *,
    dim: int = 4,
    centers: int = 16,
    baseline_users: int = 500,
    exactness_sample: int = 8,
    inner: str = "SAP",
    seed: int = 97,
) -> Dict[str, object]:
    """One tier of the subscription-scale experiment.

    Three legs, all over the same deterministic attribute stream:

    * **clustered** — ``users`` preference subscriptions on one engine,
      answered through padded-k cluster plans.  Wall time and summed
      per-subscription memory are measured directly.
    * **baseline** — per-user exact plans (every subscription pinned to
      its own cluster id, so no plan forms and each user runs a private
      inner core).  Running every user this way at 10k+ is exactly the
      quadratic blow-up the clustering plane removes, so the baseline is
      *measured* on ``baseline_users`` subscriptions and extrapolated
      linearly; ``baseline_measured_users`` records the honest sample
      size.
    * **exactness** — ``exactness_sample`` members are re-run on fresh
      single-user engines (trivially exact) and compared byte-for-byte
      against the answers the shared plans produced for them.
    """
    vectors = _preference_vectors(users, dim, centers, seed)
    objects = _attribute_objects(stream_length, dim, seed + 1)
    sample_step = max(1, users // max(1, exactness_sample))
    sampled = list(range(0, users, sample_step))[:exactness_sample]
    sampled_set = set(sampled)

    def preference_spec(vector, cluster_id=None) -> QuerySpec:
        spec = QuerySpec(n=query.n, k=query.k, s=query.s, time_based=query.time_based)
        return spec.using(inner).preferring(vector, cluster_id=cluster_id)

    # Clustered leg: one engine, shared plans per preference cluster.
    engine = StreamEngine(keep_results=False)
    for index, vector in enumerate(vectors):
        engine.subscribe(
            f"user-{index}",
            preference_spec(vector),
            keep_results=index in sampled_set,
            collect_metrics=False,
        )
    started = time.perf_counter()
    engine.push_many(objects, chunk_size=max(1, query.s))
    clustered_seconds = time.perf_counter() - started
    clustered_memory = sum(
        engine.subscription(name).snapshot()["memory_bytes"]
        for name in engine.subscriptions()
    )
    reranks = fallbacks = clusters = 0
    for group in engine.groups():
        for plan in group.get("plans", ()):
            if plan.get("kind") == "cluster":
                clusters += 1
                reranks += plan.get("reranks", 0)
                fallbacks += plan.get("fallbacks", 0)
    sampled_results = {index: engine.results(f"user-{index}") for index in sampled}
    engine.close()

    # Exactness leg: each sampled member alone on a fresh engine is a
    # lone cluster member, i.e. a private exact plan.
    exact = True
    for index in sampled:
        solo = StreamEngine(keep_results=True)
        solo.subscribe(f"user-{index}", preference_spec(vectors[index]))
        solo.push_many(objects, chunk_size=max(1, query.s))
        if not results_agree(solo.results(f"user-{index}"), sampled_results[index]):
            exact = False
        solo.close()

    # Baseline leg: per-user exact plans, measured on a subsample and
    # extrapolated linearly (each user carries a full private core, so
    # cost per user is constant in the user count).
    measured_users = min(users, baseline_users)
    baseline = StreamEngine(keep_results=False)
    for index in range(measured_users):
        baseline.subscribe(
            f"user-{index}",
            # Unique cluster id: a bucket of one, so no shared plan forms.
            preference_spec(vectors[index], cluster_id=index),
            keep_results=False,
            collect_metrics=False,
        )
    started = time.perf_counter()
    baseline.push_many(objects, chunk_size=max(1, query.s))
    baseline_measured_seconds = time.perf_counter() - started
    baseline_measured_memory = sum(
        baseline.subscription(name).snapshot()["memory_bytes"]
        for name in baseline.subscriptions()
    )
    baseline.close()

    scale_factor = users / measured_users
    baseline_seconds = baseline_measured_seconds * scale_factor
    baseline_memory = baseline_measured_memory * scale_factor
    return {
        "users": users,
        "clusters": clusters,
        "inner": inner,
        "stream_length": stream_length,
        "clustered": {
            "seconds": round(clustered_seconds, 4),
            "events_per_second": round(stream_length / clustered_seconds, 1),
            "memory_bytes": int(clustered_memory),
        },
        "baseline": {
            "seconds": round(baseline_seconds, 4),
            "events_per_second": round(stream_length / baseline_seconds, 1),
            "memory_bytes": int(baseline_memory),
            "measured_users": measured_users,
            "measured_seconds": round(baseline_measured_seconds, 4),
        },
        "speedup": round(baseline_seconds / clustered_seconds, 3),
        "memory_ratio": round(clustered_memory / max(1.0, baseline_memory), 4),
        "reranks": reranks,
        "fallbacks": fallbacks,
        "exact": exact,
        "exactness_sample": len(sampled),
    }


def scale_query(scale):
    """One window shape for every user, sized so a tier runs in bounded
    slides (~150 per stream) regardless of the configured scale."""
    s = max(1, scale.stream_length // 150)
    n = max(scale.default_n, 4 * s)
    return TopKQuery(n=n, k=min(10, n), s=s)


def scale_sweep(scale):
    query = scale_query(scale)
    return [
        measure_preference_scale(
            users,
            query,
            scale.stream_length,
            baseline_users=min(500, users),
            exactness_sample=8 if scale.name != "full" else 4,
        )
        for users in TIERS[scale.name]
    ]


def test_scale(benchmark, scale):
    rows = run_sweep(benchmark, scale_sweep, scale)
    assert rows
    table = format_table(
        f"Subscription scale ({scale.name}): clustered plans vs per-user "
        f"exact plans, {rows[0]['stream_length']} events",
        [
            "users",
            "clusters",
            "clustered s",
            "clustered ev/s",
            "baseline s",
            "speedup",
            "mem ratio",
            "fallbacks",
            "exact",
        ],
        [
            [
                row["users"],
                row["clusters"],
                row["clustered"]["seconds"],
                row["clustered"]["events_per_second"],
                row["baseline"]["seconds"],
                row["speedup"],
                row["memory_ratio"],
                row["fallbacks"],
                str(row["exact"]),
            ]
            for row in rows
        ],
    )
    print("\n" + table)
    write_results("scale", table, raw={"rows": rows})

    # Exactness holds at every tier on any hardware: sampled members of
    # the clustered engine must be byte-identical to single-user engines.
    for row in rows:
        assert row["exact"], (
            f"clustered answers diverged from single-user engines at "
            f"{row['users']} users"
        )

    # The throughput bar applies where the tentpole claims it: 10k+.
    for row in rows:
        if row["users"] >= BAR_FROM_USERS and scale.name != "smoke":
            assert row["speedup"] >= SPEEDUP_BAR, (
                f"clustered plans only {row['speedup']:.2f}x faster than "
                f"per-user exact plans at {row['users']} users"
            )
