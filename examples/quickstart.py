"""Quickstart: monitor the top-k of a sliding window with SAP.

Run with::

    python examples/quickstart.py

The example builds a continuous top-k query ``⟨n=1000, k=5, s=50⟩`` with
the :class:`QuerySpec` builder, subscribes it on the push-based
:class:`StreamEngine`, and streams 5,000 uniformly random objects through
it — one at a time, the way an unbounded feed would arrive.  The answers
equal those of the reference driver ``SAPTopK(query).run(objects)``; see
the commented block at the end.
"""

from repro import QuerySpec, StreamEngine
from repro.streams import UncorrelatedStream


def main() -> None:
    # A continuous top-5 query over the last 1,000 objects, re-evaluated
    # every 50 arrivals.
    spec = QuerySpec().window(1000).top(5).slide(50)

    engine = StreamEngine()
    watch = engine.subscribe("watch", spec, algorithm="SAP")

    # Push the synthetic "time-unrelated" stream from the paper's
    # evaluation.  feed() never materialises the stream; engine memory
    # stays O(window) however long it runs.
    UncorrelatedStream(seed=7).feed(engine, 5000)

    stats = watch.stats()
    print(f"query     : {watch.query.describe()}")
    print(f"algorithm : {watch.algorithm.name}")
    print(f"slides    : {stats['slides']:.0f}")
    print(f"candidates: {stats['average_candidates']:.1f} on average "
          f"(window holds {watch.query.n} objects)")
    print(f"latency   : p50 {stats['median_latency'] * 1e6:.0f} µs, "
          f"p95 {stats['p95_latency'] * 1e6:.0f} µs per slide")
    print()

    results = watch.results()
    for result in results[:: max(1, len(results) // 5)]:
        scores = ", ".join(f"{score:.3f}" for score in result.scores)
        print(f"window #{result.slide_index:>3} (newest arrival t={result.window_end}): "
              f"top-5 scores = [{scores}]")

    engine.close()

    # The engine's answers equal those of the algorithm's own reference
    # driver, which the tests compare it against:
    #
    #     from repro import SAPTopK, TopKQuery, results_agree
    #     reference = SAPTopK(TopKQuery(n=1000, k=5, s=50)).run(
    #         UncorrelatedStream(seed=7).take(5000)
    #     )
    #     assert results_agree(results, reference)

if __name__ == "__main__":
    main()
