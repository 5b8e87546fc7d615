"""Stock-market monitoring: the paper's motivating example.

"In stock market, a continuous top-k query can be used to monitor real-time
transactions and hence retrieve the 10 most significant transactions within
the last 30 minutes."  This example reproduces that scenario on the
synthetic STOCK stream (transaction significance = price × volume), runs
SAP and MinTopK side by side, and prints both the answers and the
efficiency comparison.

Run with::

    python examples/stock_monitoring.py
"""

from repro import StreamEngine, TopKQuery, results_agree
from repro.streams import StockStream


def main() -> None:
    # Top-10 transactions over the most recent 2,000 trades, refreshed
    # every 100 trades (the count-based analogue of "last 30 minutes").
    query = TopKQuery(n=2000, k=10, s=100)
    stream = StockStream(stocks=250, seed=42).take(10_000)

    engine = StreamEngine()
    sap = engine.subscribe("sap", query, algorithm="SAP")
    mintopk = engine.subscribe("mintopk", query, algorithm="MinTopK")
    engine.push_many(stream)
    engine.close()
    assert results_agree(sap.results(), mintopk.results()), "exact algorithms must agree"

    print("Top-10 most significant transactions in the final window:")
    for rank, obj in enumerate(sap.latest(), start=1):
        trade = obj.payload
        print(
            f"  #{rank:<2} stock {trade.stock_id:<4} "
            f"price {trade.price:10.2f}  volume {trade.volume:12.1f}  "
            f"value {obj.score:16.2f}"
        )

    print()
    print("Efficiency comparison over the whole stream:")
    for run in (sap, mintopk):
        metrics = run.metrics
        print(
            f"  {run.algorithm.name:<22} {metrics.latency_total:7.3f} s, "
            f"{metrics.average_candidates:7.1f} candidates on average, "
            f"{metrics.average_memory_kb:7.1f} KB"
        )

if __name__ == "__main__":
    main()
