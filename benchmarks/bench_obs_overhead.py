"""Observability plane — what the instruments cost the hot path.

Trajectory benchmark: the headline numbers land in ``BENCH_obs.json`` at
the repository root so the instrumentation tax is tracked across PRs.  Two questions are answered:

* **Enabled cost** — an engine with the default (enabled) metrics
  registry against one whose registry is disabled, same stream, same
  query.  Instruments are cached at construction time, so this measures
  the steady-state increment/observe traffic.  The acceptance bar is
  < 5%.
* **Disabled cost** — a disabled registry hands every call site the
  shared NOOP instrument, so the residual tax is one do-nothing method
  call per would-be sample.  Measured directly per operation; the bar is
  that a NOOP op stays under a microsecond (in practice tens of
  nanoseconds — "~0%" of any per-slide budget).

Tracing (spans on) is measured and reported alongside, ungated: it is an
opt-in diagnostic mode, not an always-on path.

The ``smoke`` scale (``REPRO_BENCH_SCALE=smoke``) keeps CI runs to a few
seconds while still driving every instrumented layer.
"""

import json
import os
import time
from timeit import timeit

from repro.core.query import TopKQuery
from repro.engine import StreamEngine
from repro.bench.reporting import format_table, write_results
from repro.obs.registry import MetricsRegistry, set_registry
from repro.obs.tracing import Tracer, set_tracer
from repro.streams import make_dataset

from conftest import run_sweep

#: Trajectory file recorded at the repository root.
TRAJECTORY_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_obs.json")

#: Acceptance bar for the enabled-registry A/B on the engine hot path.
OVERHEAD_TARGET = 0.05

#: Acceptance bar for one disabled-registry (NOOP) instrument operation.
NOOP_BUDGET_SECONDS = 1e-6

#: A/B repeats per mode; the minimum is reported (scheduler noise only
#: ever adds time, so min-of-N is the honest estimate of the code's cost).
REPEATS = 7


def run_engine(stream, query, algorithm, enabled, traced=False):
    """One full engine run under a fresh registry/tracer; returns seconds."""
    previous_registry = set_registry(MetricsRegistry(enabled=enabled))
    tracer = Tracer()
    if traced:
        tracer.enable()
    previous_tracer = set_tracer(tracer)
    try:
        engine = StreamEngine(keep_results=False, return_results=False)
        engine.subscribe("bench", query, algorithm=algorithm)
        started = time.perf_counter()
        engine.push_many(stream)
        engine.flush()
        return time.perf_counter() - started
    finally:
        set_registry(previous_registry)
        set_tracer(previous_tracer)


def overhead_row(scale, algorithm):
    """Interleaved A/B/A': disabled, enabled, and enabled+traced runs."""
    # Three times the standard stream, floored at 24k events: the A/B compares
    # per-slide costs, and a stream short enough to finish in a few
    # milliseconds would put scheduler noise on the same order as the
    # effect being gated.  Smoke scale therefore measures the same
    # workload shape as quick; only the repeats stay cheap.
    stream_length = max(3 * scale.stream_length, 24_000)
    n = min(1_000, stream_length // 4)
    query = TopKQuery(n=n, k=scale.default_k, s=max(1, n // 20))
    stream = list(make_dataset("STOCK").take(stream_length))
    best = {"disabled": float("inf"), "enabled": float("inf"), "traced": float("inf")}
    for _ in range(REPEATS):
        # Interleaving keeps thermal/frequency drift from biasing a mode.
        best["disabled"] = min(
            best["disabled"], run_engine(stream, query, algorithm, enabled=False)
        )
        best["enabled"] = min(
            best["enabled"], run_engine(stream, query, algorithm, enabled=True)
        )
        best["traced"] = min(
            best["traced"],
            run_engine(stream, query, algorithm, enabled=True, traced=True),
        )
    events = len(stream)
    return {
        "algorithm": algorithm,
        "events": events,
        "disabled_seconds": best["disabled"],
        "enabled_seconds": best["enabled"],
        "traced_seconds": best["traced"],
        "overhead_fraction": best["enabled"] / best["disabled"] - 1.0,
        "traced_overhead_fraction": best["traced"] / best["disabled"] - 1.0,
        "disabled_events_per_second": events / best["disabled"],
    }


def instrument_costs():
    """Per-operation cost of the three instrument kinds, enabled and NOOP."""
    enabled = MetricsRegistry(enabled=True)
    disabled = MetricsRegistry(enabled=False)
    counter = enabled.counter("bench_total")
    histogram = enabled.histogram("bench_seconds")
    noop = disabled.counter("bench_total")
    loops = 200_000
    return {
        "counter_inc_ns": timeit(counter.inc, number=loops) / loops * 1e9,
        "histogram_observe_ns": timeit(
            lambda: histogram.observe(0.003), number=loops
        )
        / loops
        * 1e9,
        "noop_op_ns": timeit(noop.inc, number=loops) / loops * 1e9,
    }


def write_trajectory(rows, ops, scale) -> None:
    payload = {
        "benchmark": "obs_overhead",
        "scale": scale.name,
        "overhead_target": OVERHEAD_TARGET,
        "rows": rows,
        "instrument_ops": {key: round(value, 1) for key, value in ops.items()},
        "headline": {
            "max_overhead_fraction": round(
                max(row["overhead_fraction"] for row in rows), 4
            ),
            "max_traced_overhead_fraction": round(
                max(row["traced_overhead_fraction"] for row in rows), 4
            ),
            "noop_op_ns": round(ops["noop_op_ns"], 1),
        },
    }
    try:
        with open(TRAJECTORY_PATH, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError:
        pass  # read-only checkout; the results dir copy still exists


def test_obs_overhead(benchmark, scale):
    rows, ops = run_sweep(
        benchmark,
        lambda: (
            [overhead_row(scale, algorithm) for algorithm in ("SAP", "MinTopK")],
            instrument_costs(),
        ),
    )
    table = format_table(
        f"Observability overhead ({scale.name} scale): metrics A/B per algorithm",
        ["algorithm", "disabled s", "enabled s", "overhead", "traced", "ev/s off"],
        [
            [
                row["algorithm"],
                row["disabled_seconds"],
                row["enabled_seconds"],
                row["overhead_fraction"],
                row["traced_overhead_fraction"],
                row["disabled_events_per_second"],
            ]
            for row in rows
        ],
    )
    ops_note = (
        f"per-op: counter.inc {ops['counter_inc_ns']:.0f}ns, "
        f"histogram.observe {ops['histogram_observe_ns']:.0f}ns, "
        f"noop {ops['noop_op_ns']:.0f}ns"
    )
    print("\n" + table + "\n" + ops_note)
    write_results("obs_overhead", table + "\n" + ops_note, raw={"rows": rows, "ops": ops})
    write_trajectory(rows, ops, scale)

    for row in rows:
        assert row["overhead_fraction"] < OVERHEAD_TARGET, (
            f"{row['algorithm']}: enabled-metrics overhead "
            f"{row['overhead_fraction']:.1%} exceeds the {OVERHEAD_TARGET:.0%} target"
        )
    assert ops["noop_op_ns"] < NOOP_BUDGET_SECONDS * 1e9, (
        f"a disabled-registry op costs {ops['noop_op_ns']:.0f}ns — "
        "the NOOP path is no longer free"
    )
