"""Durability plane — what crash-exactness costs, and how fast it recovers.

Three questions, each gated by an assert below:

* **Steady-state overhead** — how much of a durable engine's ingest
  time is spent in the durability plane (WAL encode+append, periodic
  checkpoint commits), measured *inside* one run by timing the
  manager's hooks and dividing by the engine work in the same run.
  The acceptance bar is < 5%: durability must be cheap enough to
  leave on.  (A wall-clock A/B against a plain engine is reported for
  context but not gated: the effect is a few percent, well inside the
  run-to-run variance of a shared CI box, whereas the in-run fraction
  puts noise in numerator and denominator alike.)
* **Recovery at scale** — 1,000 subscriptions over shared window
  shapes, crashed mid-stream (the engine is abandoned, exactly what
  SIGKILL leaves on disk), then ``StreamEngine.recover``: how many
  seconds to the first answer-capable engine, and how many WAL slides
  the tail replay covered.
* **Exactness** — the recovered engine's remaining answer stream is
  compared slide-for-slide, object-for-object against an uncrashed
  twin; the headline records ``exact`` only if every answer matches.

``REPRO_BENCH_SCALE=smoke`` keeps CI to a few seconds while driving the
same code paths (journal, checkpoint, truncate, restore, replay).
"""

import shutil
import tempfile
import time

from repro.engine import QuerySpec, StreamEngine
from repro.streams import make_dataset

from conftest import run_sweep
from harness import format_table, write_results

#: Acceptance bar for the durable-vs-plain A/B on the engine hot path.
OVERHEAD_TARGET = 0.05

#: Recovery is measured at this many live subscriptions.
RECOVERY_SUBSCRIPTIONS = 1_000

#: Repeats per mode (min-of-N: noise only ever adds time).
REPEATS = 3

#: The steady-state serving fleet for the overhead A/B: mixed window
#: shapes and algorithms, as a multi-tenant server runs them.  The
#: stream is journaled ONCE per chunk no matter how many queries consume
#: it, so this — not a single minimal query — is the denominator the
#: "leave durability on" decision is made against.
OVERHEAD_FLEET = tuple(
    (
        300 + 100 * (i % 4),                     # n
        10 + 5 * (i % 3),                        # k
        (20, 25, 50, 100)[i % 4],                # s
        ("SAP", "MinTopK", "k-skyband")[i % 3],  # algorithm
    )
    for i in range(12)
)

#: WAL chunk size: one record per 100 objects.
OVERHEAD_CHUNK = 100


def _subscribe_overhead_fleet(engine):
    for i, (n, k, s, algorithm) in enumerate(OVERHEAD_FLEET):
        engine.subscribe(f"q{i}", QuerySpec(n=n, k=k, s=s).using(algorithm))


def _run_plain(stream):
    engine = StreamEngine(keep_results=False, return_results=False)
    _subscribe_overhead_fleet(engine)
    started = time.perf_counter()
    engine.push_many(stream, chunk_size=OVERHEAD_CHUNK)
    elapsed = time.perf_counter() - started
    engine.close()
    return elapsed


def _instrument(manager):
    """Wrap the manager's hot-path hooks to accumulate their wall time.

    Returns the accumulator; ``accumulator[0]`` afterwards is the total
    seconds the ingest loop spent journaling and checkpointing.
    """
    spent = [0.0]

    def timed(method):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - started

        return wrapper

    manager.log_objects = timed(manager.log_objects)
    manager.log_op = timed(manager.log_op)
    manager.checkpoint = timed(manager.checkpoint)
    return spent


def _run_durable(stream, interval):
    """One durable ingest; returns (total_seconds, durability_seconds)."""
    directory = tempfile.mkdtemp(prefix="repro-bench-dur-")
    try:
        engine = StreamEngine.recover(
            directory,
            checkpoint_interval=interval,
            keep_results=False,
            return_results=False,
        )
        spent = _instrument(engine._durability)
        _subscribe_overhead_fleet(engine)
        spent[0] = 0.0  # the gate covers steady state, not subscribe ops
        started = time.perf_counter()
        engine.push_many(stream, chunk_size=OVERHEAD_CHUNK)
        elapsed = time.perf_counter() - started
        engine.close()
        return elapsed, spent[0]
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def overhead_row(scale):
    """The durability fraction of one ingest, plus a context A/B."""
    stream_length = max(3 * scale.stream_length, 24_000)
    stream = list(make_dataset("STOCK").take(stream_length))
    # untimed warmup: first-touch costs (page cache, fs metadata,
    # instrument construction) belong to neither measurement
    _run_plain(stream[: stream_length // 4])
    _run_durable(stream[: stream_length // 4], interval=64)
    plain = float("inf")
    fraction = float("inf")
    durable = float("inf")
    for _ in range(REPEATS):
        plain = min(plain, _run_plain(stream))
        total, spent = _run_durable(stream, interval=64)
        durable = min(durable, total)
        # durability seconds over *engine* seconds of the same run: box
        # noise inflates both, so the ratio stays put
        fraction = min(fraction, spent / (total - spent))
    return {
        "fleet": len(OVERHEAD_FLEET),
        "events": len(stream),
        "plain_seconds": plain,
        "durable_seconds": durable,
        "ab_fraction": durable / plain - 1.0,
        "overhead_fraction": fraction,
        "plain_events_per_second": len(stream) / plain,
    }


def _signature(drained):
    return {
        name: [
            (
                result.slide_index,
                result.window_end,
                tuple((obj.score, obj.t) for obj in result.objects),
            )
            for result in results
        ]
        for name, results in sorted(drained.items())
    }


def _subscribe_fleet(engine, count):
    # a handful of window shapes, so subscriptions share query groups the
    # way a real tenant fleet does
    shapes = [(200, 10, 50), (200, 5, 50), (400, 10, 100), (100, 5, 25)]
    for i in range(count):
        n, k, s = shapes[i % len(shapes)]
        engine.subscribe(f"q{i:04d}", QuerySpec(n=n, k=k, s=s))


def recovery_run(scale):
    """Crash a 1k-subscription durable engine mid-stream; time recovery
    and verify the continuation against an uncrashed twin."""
    stream_length = max(scale.stream_length // 2, 2_000)
    stream = list(make_dataset("STOCK").take(stream_length))
    crash_at = (stream_length // 2) // 100 * 100  # a chunk boundary
    directory = tempfile.mkdtemp(prefix="repro-bench-rec-")
    try:
        crashed = StreamEngine.recover(
            directory, checkpoint_interval=8, keep_results=True,
            return_results=False,
        )
        _subscribe_fleet(crashed, RECOVERY_SUBSCRIPTIONS)
        crashed.push_many(stream[:crash_at], chunk_size=100)
        # abandon without close(): what SIGKILL leaves behind
        started = time.perf_counter()
        recovered = StreamEngine.recover(
            directory, checkpoint_interval=8, keep_results=True,
            return_results=False,
        )
        recovery_seconds = time.perf_counter() - started
        report = recovered.recovery_report
        recovered.push_many(stream[crash_at:], chunk_size=100)

        twin = StreamEngine(keep_results=True, return_results=False)
        _subscribe_fleet(twin, RECOVERY_SUBSCRIPTIONS)
        twin.push_many(stream, chunk_size=100)
        exact = _signature(recovered.drain_results()) == _signature(
            twin.drain_results()
        )
        recovered.close()
        twin.close()
        return {
            "subscriptions": RECOVERY_SUBSCRIPTIONS,
            "events_before_crash": crash_at,
            "events_total": stream_length,
            "recovery_seconds": recovery_seconds,
            "checkpoint_seq": report.checkpoint_seq,
            "restored_subscriptions": report.restored_subscriptions,
            "restored_groups": report.restored_groups,
            "replayed_ops": report.replayed_ops,
            "replayed_slides": report.replayed_chunks,
            "replayed_objects": report.replayed_objects,
            "exact": exact,
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def test_durability(benchmark, scale):
    rows, recovery = run_sweep(
        benchmark,
        lambda: ([overhead_row(scale)], recovery_run(scale)),
    )
    table = format_table(
        f"Durability ({scale.name} scale): WAL+checkpoint cost and recovery",
        ["fleet", "plain s", "durable s", "A/B", "dur fraction", "ev/s plain"],
        [
            [
                row["fleet"],
                row["plain_seconds"],
                row["durable_seconds"],
                row["ab_fraction"],
                row["overhead_fraction"],
                row["plain_events_per_second"],
            ]
            for row in rows
        ],
    )
    note = (
        f"recovery: {recovery['subscriptions']} subscriptions in "
        f"{recovery['recovery_seconds']:.3f}s (checkpoint {recovery['checkpoint_seq']}, "
        f"{recovery['replayed_slides']} WAL slides / "
        f"{recovery['replayed_objects']} objects replayed), "
        f"exact={recovery['exact']}"
    )
    print("\n" + table + "\n" + note)
    write_results(
        "durability", table + "\n" + note, raw={"rows": rows, "recovery": recovery}
    )

    assert recovery["exact"], (
        "recovered answer stream diverged from the uncrashed twin"
    )
    for row in rows:
        assert row["overhead_fraction"] < OVERHEAD_TARGET, (
            f"durability overhead {row['overhead_fraction']:.1%} exceeds "
            f"the {OVERHEAD_TARGET:.0%} target"
        )
