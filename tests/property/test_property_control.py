"""Property test: a controlled engine is exact.

The acceptance property of the control plane: for any stream and any
policy, an engine run under the controller produces *byte-identical*
answers to an uncontrolled engine on the same stream — no matter which
tactics fire, because every tactic rebuilds a SAP partitioner by
replaying the live window at a slide boundary.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import AdaptiveController, Policy
from repro.core.query import TopKQuery
from repro.engine import StreamEngine
from repro.streams import DriftingStream

#: An aggressive policy: tiny windows, no cooldown, so that
#: tactics actually fire inside hypothesis-sized streams.
AGGRESSIVE = {
    "cooldown_slides": 0,
    "analysis_interval_slides": 1,
    "analyzers": {
        "candidates": {"factor": 1.5, "window": 10, "min_samples": 20},
        "drift": {"alpha": 0.05, "window": 10},
    },
    "rules": [
        {"when": "score-drift", "tactic": "swap-partitioner", "to": "equal"},
        {"when": "candidate-blowup", "tactic": "retune-eta", "scale": 2.0},
    ],
}


def answers(engine, subscription):
    return [r.identity() for r in subscription.results()]


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    phase=st.integers(min_value=120, max_value=400),
    n=st.sampled_from([120, 200, 300]),
    k=st.integers(min_value=2, max_value=12),
    algorithm=st.sampled_from(["SAP", "SAP-equal", "SAP-dynamic"]),
)
def test_controlled_engine_is_exact_without_shedding(seed, phase, n, k, algorithm):
    query = TopKQuery(n=n, k=k, s=20)
    stream = DriftingStream(phase=phase, seed=seed).take(6 * phase + n)

    def run(controlled):
        engine = StreamEngine(return_results=False)
        subscription = engine.subscribe("q", query, algorithm=algorithm)
        if controlled:
            engine.attach_controller(AdaptiveController(Policy.from_dict(AGGRESSIVE)))
        engine.push_many(stream)
        engine.flush()
        return answers(engine, subscription)

    assert run(True) == run(False)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_multi_query_group_stays_exact_under_control(seed):
    """Shared-plan groups: tactics rebuild every plan member exactly."""
    stream = DriftingStream(phase=200, seed=seed).take(1_600)

    def run(controlled):
        engine = StreamEngine(return_results=False)
        subs = [
            engine.subscribe(f"q{k}", TopKQuery(n=200, k=k, s=20), algorithm="SAP")
            for k in (3, 6, 12)
        ]
        if controlled:
            engine.attach_controller(AdaptiveController(Policy.from_dict(AGGRESSIVE)))
        engine.push_many(stream)
        engine.flush()
        return {s.name: answers(engine, s) for s in subs}

    assert run(True) == run(False)
