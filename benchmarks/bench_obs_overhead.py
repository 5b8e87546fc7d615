"""Observability plane — what the instruments cost the hot path.

The instrumentation tax on the engine hot path.  Two questions are
answered, each gated by an assert below:

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

Each algorithm's stream is lengthened until one of its legs runs at
least half a second: a leg of a few tens of milliseconds puts scheduler
noise on a shared machine on the order of the 5% being gated.  The
``smoke`` scale (``REPRO_BENCH_SCALE=smoke``) still keeps the whole A/B to
about half a minute.
"""

import math
import time
from timeit import timeit

from repro.core.query import TopKQuery
from repro.engine import StreamEngine
from repro.bench.reporting import format_table, write_results
from repro.obs.registry import MetricsRegistry, set_registry
from repro.streams import make_dataset

from conftest import run_sweep

#: Acceptance bar for the enabled-registry A/B on the engine hot path.
OVERHEAD_TARGET = 0.05

#: Acceptance bar for one disabled-registry (NOOP) instrument operation.
NOOP_BUDGET_SECONDS = 1e-6

#: A/B repeats per mode; the minimum is reported (scheduler noise only
#: ever adds time, so min-of-N is the honest estimate of the code's cost).
REPEATS = 7

#: Shortest run of one leg (one mode, one algorithm) the A/B accepts.
MIN_LEG_SECONDS = 0.5


def run_engine(stream, query, algorithm, enabled):
    """One full engine run under a fresh registry; returns seconds."""
    previous_registry = set_registry(MetricsRegistry(enabled=enabled))
    try:
        engine = StreamEngine(keep_results=False, return_results=False)
        engine.subscribe("bench", query, algorithm=algorithm)
        started = time.perf_counter()
        engine.push_many(stream)
        engine.flush()
        return time.perf_counter() - started
    finally:
        set_registry(previous_registry)


def overhead_row(scale, algorithm):
    """Interleaved A/B: disabled and enabled runs."""
    # The query shape comes from three times the standard stream, floored
    # at 24k events, so smoke scale measures the same shape as quick.
    base_length = max(3 * scale.stream_length, 24_000)
    n = min(1_000, base_length // 4)
    query = TopKQuery(n=n, k=scale.default_k, s=max(1, n // 20))
    stream = list(make_dataset("STOCK").take(base_length))
    # Then the stream grows until a leg runs MIN_LEG_SECONDS, with a
    # margin for a probe that noise slowed down.
    probe = min(run_engine(stream, query, algorithm, enabled=False) for _ in range(2))
    if probe < MIN_LEG_SECONDS:
        length = math.ceil(1.5 * base_length * MIN_LEG_SECONDS / probe)
        stream = list(make_dataset("STOCK").take(length))
    best = {"disabled": float("inf"), "enabled": float("inf")}
    for _ in range(REPEATS):
        # Interleaving keeps thermal/frequency drift from biasing a mode.
        best["disabled"] = min(
            best["disabled"], run_engine(stream, query, algorithm, enabled=False)
        )
        best["enabled"] = min(
            best["enabled"], run_engine(stream, query, algorithm, enabled=True)
        )
    events = len(stream)
    return {
        "algorithm": algorithm,
        "events": events,
        "disabled_seconds": best["disabled"],
        "enabled_seconds": best["enabled"],
        "overhead_fraction": best["enabled"] / best["disabled"] - 1.0,
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
        ["algorithm", "disabled s", "enabled s", "overhead", "ev/s off"],
        [
            [
                row["algorithm"],
                row["disabled_seconds"],
                row["enabled_seconds"],
                row["overhead_fraction"],
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

    for row in rows:
        assert row["overhead_fraction"] < OVERHEAD_TARGET, (
            f"{row['algorithm']}: enabled-metrics overhead "
            f"{row['overhead_fraction']:.1%} exceeds the {OVERHEAD_TARGET:.0%} target"
        )
    assert ops["noop_op_ns"] < NOOP_BUDGET_SECONDS * 1e9, (
        f"a disabled-registry op costs {ops['noop_op_ns']:.0f}ns — "
        "the NOOP path is no longer free"
    )
