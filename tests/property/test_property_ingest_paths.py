"""Property: every engine entry point is the same ingest path.

``push`` (one object), ``push_many`` (lazily drained chunks) and
``push_block`` (a column block) all hand their chunks to one engine edge
and one query-group method.  Fed the same stream — count-based or
time-based, SAP / MinTopK / k-skyband, with a query subscribed mid-stream
so at least two groups run — the three must produce byte-identical
answers and the same group layout.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QuerySpec, StreamEngine
from repro.core.columnar import SlideBlock

from ..conftest import make_objects

ALGORITHMS = ("SAP", "MinTopK", "k-skyband")
MODES = ("push", "push_many", "push_block")

query_strategy = st.tuples(st.sampled_from(ALGORITHMS), st.integers(min_value=1, max_value=6))


def _spec(n, s, time_based, algorithm, k):
    if time_based and algorithm == "MinTopK":
        algorithm = "k-skyband"  # MinTopK needs a count-based window
    spec = QuerySpec(n=n, k=min(k, n), s=s).using(algorithm)
    return spec.over_time() if time_based else spec


def _slices(objects, sizes):
    position, index = 0, 0
    while position < len(objects):
        size = sizes[index % len(sizes)]
        yield objects[position : position + size]
        position += size
        index += 1


def _feed(engine, mode, objects, sizes):
    if mode == "push":
        for obj in objects:
            engine.push(obj)
    elif mode == "push_many":
        for piece in _slices(objects, sizes):
            engine.push_many(iter(piece), chunk_size=len(piece))
    else:
        for piece in _slices(objects, sizes):
            engine.push_block(SlideBlock.from_objects(piece))


def _run(mode, objects, cut, sizes, shape, first, late):
    n, s, time_based = shape
    engine = StreamEngine(keep_results=True, return_results=False)
    for index, (algorithm, k) in enumerate(first):
        engine.subscribe(f"q{index}", _spec(n, s, time_based, algorithm, k))
    _feed(engine, mode, objects[:cut], sizes)
    # The first group has started: the late query opens a second one.
    engine.subscribe("late", _spec(n, s, time_based, *late))
    _feed(engine, mode, objects[cut:], sizes)
    groups = engine.groups()
    engine.close()
    answers = {
        name: [(r.slide_index, r.window_end, r.identity()) for r in results]
        for name, results in engine.drain_results().items()
    }
    return groups, answers


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    scores=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=20, max_size=150
    ),
    shape=st.tuples(
        st.integers(min_value=4, max_value=30),
        st.integers(min_value=1, max_value=8),
        st.booleans(),
    ),
    first=st.lists(query_strategy, min_size=1, max_size=3),
    late=query_strategy,
    cut=st.integers(min_value=1, max_value=60),
    sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8),
)
def test_entry_points_produce_identical_answers_and_groups(
    scores, shape, first, late, cut, sizes
):
    n, s, time_based = shape
    shape = (n, min(s, n), time_based)
    objects = make_objects(scores)
    cut = min(cut, len(objects) - 1)
    runs = [_run(mode, objects, cut, sizes, shape, first, late) for mode in MODES]
    groups, answers = runs[0]
    assert len(groups) == 2
    for mode, (other_groups, other_answers) in zip(MODES[1:], runs[1:]):
        assert other_groups == groups, mode
        assert other_answers == answers, mode
