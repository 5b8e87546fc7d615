"""A mixed-window query fleet spread over worker processes.

Eight users watch one market feed with four different window shapes.  A
single :class:`repro.StreamEngine` would run all of them on one core (the
GIL); the :class:`repro.cluster.ShardedStreamEngine` below places each
query on one of four worker processes instead — queries sharing a window
shape land on the same shard (hash-window placement), so they keep the
``k_max`` shared execution plans of the multi-query plane — and fans the
feed out in chunks.

Halfway through, one query is *rebalanced* to another shard while the
stream is live: its state (configuration, window contents, slide clock,
retained answers, metrics) crosses the process boundary through the
serialization layer (:mod:`repro.core.state`), and its answers continue
exactly as if it had never moved.

Run with::

    python examples/sharded_engine.py
"""

from repro import QuerySpec
from repro.cluster import ShardedStreamEngine
from repro.streams import StockStream


def main() -> None:
    shapes = [
        QuerySpec(n=1000, k=10, s=50),   # last "minute", fine slide
        QuerySpec(n=1000, k=50, s=50),   # same shape, bigger k: same shard
        QuerySpec(n=500, k=5, s=25),     # half-size window
        QuerySpec(n=2000, k=20, s=100),  # long window
    ]
    with ShardedStreamEngine(shards=4, placement="hash-window") as engine:
        for index in range(8):
            engine.subscribe(
                f"user-{index}",
                shapes[index % len(shapes)],
                algorithm="SAP",
                result_buffer=4,
            )

        feed = StockStream(stocks=200, seed=5)
        objects = list(feed.take(30_000))

        engine.push_many(objects[:15_000])
        engine.synchronize()

        # Move one query to the least busy shard, mid-stream and live.
        loads = {record["shard"]: record["load"] for record in engine.describe_shards()}
        target = min(loads, key=loads.get)
        moved = engine.rebalance("user-1", to_shard=target)
        print(f"rebalanced {moved.name} to shard {moved.shard} (live)\n")

        engine.push_many(objects[15_000:])
        engine.synchronize()

        print("placement after rebalance:")
        for record in engine.describe_shards():
            members = ", ".join(record["members"]) or "-"
            print(f"  shard {record['shard']} (load {record['load']}): {members}")
        print()

        merged = engine.aggregate_stats()
        print(
            "cluster latency (merged from per-slide samples): "
            f"p50={merged['p50_latency'] * 1e6:.0f}us "
            f"p95={merged['p95_latency'] * 1e6:.0f}us "
            f"p99={merged['p99_latency'] * 1e6:.0f}us"
        )
        for name in engine.subscriptions():
            latest = engine.subscription(name).latest()
            top = f"{latest.scores[0]:.4f}" if latest and latest.scores else "-"
            print(f"  {name:<8} shard={engine.shard_of(name)}  best={top}")


if __name__ == "__main__":
    main()
