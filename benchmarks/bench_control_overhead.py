"""Adaptive control plane — overhead when idle, payoff under drift.

Trajectory benchmark (like ``bench_multiquery_sharing``): the headline
numbers are recorded in ``BENCH_control.json`` at the repository root to
track the control plane across PRs.  Two questions are answered:

* **Overhead** — what does attaching an :class:`AdaptiveController` cost
  when its policy never fires?  The monitor samples every slide and all
  three analyzers run at every boundary, so this is the worst-case idle
  tax.  The acceptance bar is < 5% against a bare engine.
* **Payoff** — on a regime-switching stream (the DRIFT dataset), does the
  default policy's mid-run partitioner swap beat staying on the static
  starting configuration, while producing byte-identical answers?

The module doubles as the CI smoke guard for the control subsystem: the
``smoke`` scale (``REPRO_BENCH_SCALE=smoke``) runs a tiny stream so a CI
job can execute the full monitor→analyze→plan→execute path in seconds.
"""

import json
import os

from repro.bench.experiments import measure_control_overhead, measure_drift_adaptation
from repro.bench.reporting import format_table, write_results
from repro.core.query import TopKQuery

from conftest import run_sweep

#: Trajectory file recorded at the repository root.
TRAJECTORY_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_control.json")

#: Bound for the headline (component-measured) overhead: the <5% target
#: itself, since the per-slide measurement is robust to scheduler noise.
OVERHEAD_TARGET = 0.05
#: Loose backstop for the wall-clock A/B corroboration, which on shared
#: runners carries several percent of scheduler noise either way.
WALLCLOCK_BACKSTOP = 0.25


def control_shape(scale):
    """The control bench's window: the demo shape of ``repro control``.

    A wide monitoring window with a 5% slide gives the drift analyzer a
    clean per-slide top-score series and leaves dozens of slide
    boundaries per DRIFT phase for tactics to fire on.
    """
    n = min(scale.default_n, scale.stream_length // 4)
    return n, max(1, n // 20)


def overhead_sweep(scale):
    n, s = control_shape(scale)
    query = TopKQuery(n=n, k=scale.default_k, s=s)
    # Twice the standard stream: more slides sharpen the per-slide cost
    # the component overhead measurement divides by.
    stream_length = 2 * scale.stream_length
    rows = []
    for algorithm in ("SAP", "SAP-equal", "MinTopK"):
        rows.append(
            measure_control_overhead(
                dataset="STOCK",
                query=query,
                algorithm=algorithm,
                stream_length=stream_length,
                repeats=5,
            )
        )
    return rows


def drift_row(scale):
    n, s = control_shape(scale)
    query = TopKQuery(n=n, k=min(10, scale.default_k), s=s)
    return measure_drift_adaptation(
        dataset="DRIFT", query=query, stream_length=scale.stream_length
    )


def write_trajectory(overhead_rows, drift, scale) -> None:
    payload = {
        "benchmark": "control_overhead",
        "scale": scale.name,
        "overhead_target": 0.05,
        "rows": overhead_rows,
        "drift": drift,
        "headline": {
            "max_overhead_fraction": round(
                max(row["overhead_fraction"] for row in overhead_rows), 4
            ),
            "drift_speedup_vs_static": round(drift["speedup_vs_static"], 3),
            "drift_tactics_applied": len(drift["tactics_applied"]),
            "drift_exact_match": drift["exact_match"],
        },
    }
    try:
        with open(TRAJECTORY_PATH, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError:
        pass  # read-only checkout; the results dir copy still exists


def test_control_overhead_and_drift(benchmark, scale):
    overhead_rows, drift = run_sweep(
        benchmark, lambda: (overhead_sweep(scale), drift_row(scale))
    )
    table = format_table(
        f"Adaptive control plane ({scale.name} scale): idle overhead and drift payoff",
        ["algorithm", "bare s", "controlled s", "overhead", "wallclock", "bare ev/s"],
        [
            [
                row["algorithm"],
                row["bare_seconds"],
                row["controlled_seconds"],
                row["overhead_fraction"],
                row["wallclock_overhead_fraction"],
                row["bare_events_per_second"],
            ]
            for row in overhead_rows
        ],
    )
    drift_note = (
        f"drift payoff: static-enhanced {drift['static_enhanced_seconds']:.3f}s vs "
        f"adaptive {drift['adaptive_seconds']:.3f}s "
        f"({drift['speedup_vs_static']:.2f}x), "
        f"{len(drift['tactics_applied'])} tactics, "
        f"exact={drift['exact_match']}"
    )
    print("\n" + table + "\n" + drift_note)
    write_results(
        "control_overhead", table + "\n" + drift_note,
        raw={"rows": overhead_rows, "drift": drift},
    )
    write_trajectory(overhead_rows, drift, scale)

    # The subsystem's acceptance bars.  The drifting demo must apply at
    # least one tactic automatically and stay byte-identical to an
    # uncontrolled run; the idle controller must stay cheap.
    assert drift["exact_match"], "adaptive run diverged from the uncontrolled answers"
    assert drift["tactics_applied"], "the planner never adapted on the drifting stream"
    for row in overhead_rows:
        assert row["overhead_fraction"] < OVERHEAD_TARGET, (
            f"{row['algorithm']}: controller overhead "
            f"{row['overhead_fraction']:.1%} exceeds the {OVERHEAD_TARGET:.0%} target"
        )
        assert row["wallclock_overhead_fraction"] < WALLCLOCK_BACKSTOP, (
            f"{row['algorithm']}: wall-clock overhead "
            f"{row['wallclock_overhead_fraction']:.1%} exceeds the backstop"
        )
