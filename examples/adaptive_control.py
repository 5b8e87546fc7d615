"""Adaptive control plane walkthrough: a MAPE-K loop over a live engine.

A monitoring query runs over a regime-switching stream (the DRIFT
dataset).  Static configurations leave performance on the table: the
paper's enhanced dynamic partitioner is the right choice on stationary
score distributions, but under regime switching its Mann-Whitney sealing
tests keep paying statistical cost without candidate savings.  The
controller notices the drift (using the very same rank-sum test, applied
to the per-slide best scores) and swaps the partitioner mid-run — the
engine is drained at a slide boundary and rebuilt from live window state,
so the answers are byte-identical to an uncontrolled run.

Run with::

    PYTHONPATH=src python examples/adaptive_control.py
"""

from repro import AdaptiveController, Policy, QuerySpec, StreamEngine
from repro.streams import DriftingStream

STREAM_LENGTH = 12_000


def run(controlled: bool):
    engine = StreamEngine(return_results=False)
    watch = engine.subscribe(
        "watch",
        QuerySpec().window(1000).top(10).slide(50),
        algorithm="SAP",  # the paper's default: enhanced dynamic partitioner
    )
    controller = None
    if controlled:
        # Policies are declarative and JSON-loadable; Policy.from_file(
        # "examples/control_policy.json") works the same way.  The default
        # reacts to score drift and candidate blowup with exact tactics.
        controller = AdaptiveController(Policy.default())
        engine.attach_controller(controller)
    engine.push_many(DriftingStream(seed=19).objects(STREAM_LENGTH))
    engine.flush()
    answers = [(r.slide_index, tuple(r.scores)) for r in watch.results()]
    return answers, watch.stats(), controller


def main() -> None:
    static_answers, static_stats, _ = run(controlled=False)
    adaptive_answers, adaptive_stats, controller = run(controlled=True)

    print(f"stream        : DRIFT, {STREAM_LENGTH} objects, regime switch every 2000")
    print(f"slides        : {int(adaptive_stats['slides'])}")
    print(f"answers equal : {static_answers == adaptive_answers}")
    print(
        "latency (adaptive) : "
        f"p50={adaptive_stats['p50_latency']:.6f}s "
        f"p95={adaptive_stats['p95_latency']:.6f}s "
        f"p99={adaptive_stats['p99_latency']:.6f}s"
    )
    print("adaptation log:")
    for event in controller.events():
        status = "applied" if event.applied else "declined"
        print(
            f"  slide {event.slide_index:>4}  {event.subscription:<8} "
            f"{event.tactic:<18} <- {event.trigger} ({status})"
        )
    applied = [event.tactic for event in controller.knowledge.applied_events()]
    print(f"applied       : {len(applied)} tactics ({', '.join(sorted(set(applied)))})")


if __name__ == "__main__":
    main()
