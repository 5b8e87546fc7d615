"""Several continuous top-k queries sharing one pass over the stream.

A monitoring dashboard rarely shows a single view: a trader may watch the
top-5 transactions of the last minute, the top-20 of the last hour, and a
tumbling per-day leaderboard at the same time.  The
:class:`repro.StreamEngine` feeds every stream object exactly once and
buckets the views into query groups by window shape: views that share a
shape (the three last-minute views below) also share one slide batcher and
one SAP core at the group's largest ``k`` — adding another
user to an already-watched shape is nearly free.

Run with::

    python examples/multi_query_dashboard.py
"""

from repro import QuerySpec, StreamEngine
from repro.streams import StockStream


def main() -> None:
    engine = StreamEngine()
    views = {
        # Three users watching the same last-minute shape: one query
        # group, one shared SAP plan at k_max=20.
        "last-minute top-3": QuerySpec(n=500, k=3, s=100),
        "last-minute top-10": QuerySpec(n=500, k=10, s=100),
        "last-minute top-20": QuerySpec(n=500, k=20, s=100),
        # Different shapes get their own groups.
        "last-hour top-20": QuerySpec(n=5000, k=20, s=500),
        "per-day leaderboard": QuerySpec(n=2000, k=10, s=2000),
    }
    for name, spec in views.items():
        engine.subscribe(name, spec, algorithm="SAP", result_buffer=1)

    # One pass over the feed serves every view; nothing is materialised.
    StockStream(stocks=200, seed=5).feed(engine, 12_000)

    print("dashboard views fed by a single pass over the stream\n")
    for group in engine.groups():
        plans = ", ".join(
            f"{plan['kind']} plan at k_max={plan['k_max']}" for plan in group["plans"]
        )
        print(f"group n={group['n']} s={group['s']}: {len(group['members'])} view(s)"
              + (f", sharing one {plans}" if plans else ""))
    print()

    for name in engine.subscriptions():
        view = engine.subscription(name)
        final = view.latest()
        best = final.objects[0]
        print(f"{name:<22} ({view.query.describe()})")
        print(f"  refreshed {view.results_delivered} times; "
              f"current best trade value {best.score:,.0f} "
              f"(stock {best.payload.stock_id})")
        # A shared view reports its plan's core, so every view of a
        # shape shows the same candidate bookkeeping.
        print(f"  SAP kept {view.snapshot()['candidate_count']} candidates "
              f"(average {view.stats()['average_candidates']:.1f} per slide)\n")

    engine.close()


if __name__ == "__main__":
    main()
