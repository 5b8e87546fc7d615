"""A durable engine checkpoints every ``checkpoint_interval`` chunks.

Checkpoints capture every query group after any accepted chunk, so no
window shape can hold one back: not slides that do not divide the chunk
size, not coprime slides whose boundaries almost never meet, not a
time-based window.  Each shape mix below takes 60,000 events in
256-object chunks with ``checkpoint_interval=2`` and must commit one
checkpoint per two chunks; the engine recovered from the last of them
(plus the log tail) must equal an uncrashed twin in answers, groups and
captured windows.
"""

import pytest

from repro.core.object import StreamObject
from repro.core.query import TopKQuery
from repro.engine import StreamEngine

from ..conftest import random_scores

EVENTS = 60_000
CHUNK = 256
INTERVAL = 2

MIXES = {
    "divisible-and-coprime": [TopKQuery(n=1000, k=5, s=50), TopKQuery(n=970, k=3, s=97)],
    "divisible": [TopKQuery(n=1000, k=5, s=50)],
    "time-based": [TopKQuery(n=1000, k=5, s=50, time_based=True)],
}


def _subscribe(engine, queries):
    for index, query in enumerate(queries):
        engine.subscribe(f"q{index}", query, algorithm="SAP", result_buffer=64)


def _state(engine):
    answers = {
        name: [(r.slide_index, r.window_end, r.identity()) for r in engine.results(name)]
        for name in engine.subscriptions()
    }
    windows = [
        (state.window, state.slide_index, state.pending, state.report_time)
        for state in engine.capture_groups()
    ]
    return answers, engine.groups(), windows


@pytest.mark.parametrize("mix", sorted(MIXES))
def test_checkpoints_are_not_held_back_by_window_shapes(tmp_path, mix):
    queries = MIXES[mix]
    scores = random_scores(EVENTS, seed=17)
    stream = [StreamObject(score=score, t=t) for t, score in enumerate(scores)]
    crash = EVENTS - 999  # mid-chunk of the last interval: a tail to replay

    durable = StreamEngine.durable(
        str(tmp_path), checkpoint_interval=INTERVAL, return_results=False
    )
    twin = StreamEngine(return_results=False)
    _subscribe(durable, queries)
    _subscribe(twin, queries)
    durable.push_many(stream[:crash], chunk_size=CHUNK)
    twin.push_many(stream[:crash], chunk_size=CHUNK)
    chunks = -(-crash // CHUNK)
    assert durable.durability.store.next_seq == chunks // INTERVAL
    durable.durability.close()  # crash: abandon the engine without close()

    recovered = StreamEngine.recover(
        str(tmp_path), checkpoint_interval=INTERVAL, return_results=False
    )
    assert recovered.recovery_report.replayed_chunks == chunks % INTERVAL
    assert _state(recovered) == _state(twin)
    recovered.push_many(stream[crash:], chunk_size=CHUNK)
    twin.push_many(stream[crash:], chunk_size=CHUNK)
    recovered.flush()
    twin.flush()
    assert _state(recovered) == _state(twin)
    recovered.close()
