"""Subscription scale — clustered preference plans vs per-user exact plans.

The subscription-scale benchmark of preference clustering ("millions of
users"); the table is written under ``benchmarks/results/``.

The workload is many users with *distinct but similar* preference
vectors (drawn around a few shared "tastes") watching one attribute
stream through the same window shape.  The clustered engine answers a
whole cluster from one padded-k shared plan plus a vectorized per-member
re-rank; the baseline gives every user a private exact plan — the status
quo this PR removes.  The baseline's cost is linear in users by
construction, so it is measured on a subsample and extrapolated; the
recorded ``baseline.measured_users`` says how much was measured versus
scaled.

Tiers: the smoke scale runs 1k users (the CI leg), quick adds 10k, and
the full scale adds 100k.  The acceptance bar — clustered >= 5x the
per-user baseline's events/s at 10k users — applies from the 10k tier
up; exactness (sampled members byte-identical to single-user engines)
is asserted at every tier unconditionally.
"""

from repro.bench.experiments import measure_preference_scale
from repro.bench.reporting import format_table, write_results
from repro.core.query import TopKQuery

from conftest import run_sweep

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
