"""Kill an engine mid-stream, recover it, and prove nothing was lost.

A durable :class:`repro.StreamEngine` journals every accepted chunk
into a write-ahead log and periodically checkpoints every subscription's
state (windows, candidate structures, slide clocks, retained answers).
This example crashes one the hard way — the process state is simply
abandoned, exactly what ``SIGKILL`` leaves behind — then calls
:meth:`repro.StreamEngine.recover` on the same directory and continues
the stream.  An uncrashed twin ingests the identical sequence in one
life; the recovered engine's answers must match the twin's exactly,
slide for slide, object for object.  That is the determinism argument of
the paper turned into a durability guarantee: answers are a pure
function of subscriptions + object sequence, so checkpoint + WAL-tail
replay reproduces the pre-crash answer stream byte-identically.

Run with::

    python examples/crash_recovery.py [durability-dir]

The same recovery path powers ``repro serve --durability-dir`` (whole
processes) and ``ShardRouter.resurrect`` (single shard workers).
"""

import shutil
import sys
import tempfile

from repro import QuerySpec, StreamEngine
from repro.streams import StockStream

CRASH_AT = 6_000
TOTAL = 12_000
CHUNK = 100


def subscribe(engine) -> None:
    engine.subscribe("minute-top10", QuerySpec(n=1000, k=10, s=50))
    engine.subscribe(
        "fast-top5", QuerySpec(n=500, k=5, s=25).using("MinTopK")
    )


def signature(drained):
    """A comparable form of an answer stream."""
    return {
        name: [
            (r.slide_index, r.window_end, tuple((o.score, o.t) for o in r.objects))
            for r in results
        ]
        for name, results in sorted(drained.items())
    }


def main() -> None:
    directory = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="repro-crash-demo-"
    )
    stream = list(StockStream(stocks=200, seed=5).take(TOTAL))

    # Life 1: a durable engine ingests half the stream, then "crashes".
    engine = StreamEngine.recover(directory, checkpoint_interval=16)
    subscribe(engine)
    engine.push_many(stream[:CRASH_AT], chunk_size=CHUNK)
    print(f"life 1 : ingested {CRASH_AT} objects, then SIGKILL (abandoned)")
    del engine  # no close(), no flush — the journal is all that survives

    # Life 2: recover from the directory and finish the stream.
    recovered = StreamEngine.recover(directory, checkpoint_interval=16)
    report = recovered.recovery_report
    print(
        f"life 2 : recovered {report.restored_subscriptions} subscriptions "
        f"in {report.restored_groups} query groups "
        f"from checkpoint {report.checkpoint_seq}, replayed "
        f"{report.replayed_chunks} WAL slides ({report.replayed_objects} "
        f"objects) in {report.seconds:.3f}s"
    )
    recovered.push_many(stream[CRASH_AT:], chunk_size=CHUNK)

    # The oracle: a twin that never crashed.
    twin = StreamEngine()
    subscribe(twin)
    twin.push_many(stream, chunk_size=CHUNK)

    recovered_answers = signature(recovered.drain_results())
    twin_answers = signature(twin.drain_results())
    for name in twin_answers:
        count = len(twin_answers[name])
        matches = recovered_answers[name] == twin_answers[name]
        print(f"{name:13s}: {count} answers, identical to twin: {matches}")
        assert matches, f"{name}: recovered stream diverged"

    recovered.close()
    twin.close()
    if len(sys.argv) <= 1:
        shutil.rmtree(directory, ignore_errors=True)
    print("crash-exact recovery verified")


if __name__ == "__main__":
    main()
