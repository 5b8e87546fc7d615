"""One group-placement rule, across restores, WAL replay and rebalance.

A subscription joins the query group with its window shape and its
window position, wherever it comes from: a fresh ``subscribe``, a
``restore_groups`` of captured records, the replay of a journaled
``restore`` op after a crash, or a move between shards.  The local
property drives random sequences of subscribes, whole-slide pushes,
``capture_groups`` → ``restore_groups`` moves into a durable engine, and
crashes, and checks the recovered engine against an uncrashed twin —
``groups()`` with members and plan layouts, and the drained answers.
The sharded property moves whole groups between shards and checks that
the cluster never ends up with more groups than before the move.

``REPRO_PLACEMENT_EXAMPLES`` raises the example count (CI runs it high).
"""

import os
import shutil
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedStreamEngine
from repro.core.query import TopKQuery
from repro.core.state import dumps, loads
from repro.engine import QuerySpec, StreamEngine

from ..conftest import make_objects, random_scores

EXAMPLES = int(os.environ.get("REPRO_PLACEMENT_EXAMPLES", "30"))
ALGORITHMS = ["SAP", "MinTopK", "k-skyband", "SMA"]
#: Window shapes ``(n, s)``: every slide divides CHUNK and every window
#: fits in one, so after any push every started group sits at a slide
#: boundary and can be captured.
SHAPES = [(12, 6), (12, 4), (8, 4)]
CHUNK = 12

#: One op subscribes 1-3 queries of one shape, so groups and plans often
#: have several members.
subscription = st.tuples(
    st.sampled_from(["local", "source", "both"]),
    st.integers(min_value=0, max_value=len(SHAPES) - 1),
    st.lists(
        st.tuples(st.sampled_from(ALGORITHMS), st.integers(min_value=1, max_value=4)),
        min_size=1,
        max_size=3,
    ),
)
operation = st.one_of(
    st.tuples(st.just("sub"), subscription),
    st.tuples(st.just("push"), st.integers(min_value=1, max_value=2)),
    st.tuples(st.just("move")),
    st.tuples(st.just("crash")),
)


def _signature(drained):
    return {
        name: [(r.slide_index, r.window_end, r.identity()) for r in results]
        for name, results in sorted(drained.items())
    }


def _positions(engine):
    """``(n, s, position)`` of every group, in engine order."""
    return [(state.n, state.s, state.position) for state in engine.capture_groups()]


class _Run:
    """A durable engine, its uncrashed twin, and a source engine whose
    groups move into both — all fed the same stream."""

    def __init__(self, directory, interval, seed):
        self.directory = directory
        self.interval = interval
        self.stream = make_objects(random_scores(CHUNK * 40, seed=seed))
        self.pushed = 0
        self.durable = self._recover()
        self.twin = StreamEngine(keep_results=True, return_results=False)
        self.source = StreamEngine(keep_results=True, return_results=False)
        self.serial = 0

    def _recover(self):
        return StreamEngine.recover(
            self.directory, checkpoint_interval=self.interval,
            keep_results=True, return_results=False,
        )

    def subscribe(self, where, shape, queries):
        """Subscribe ``queries`` on the local pair, the source, or
        ("both") on each, so a later move has a live group to join."""
        n, s = SHAPES[shape]
        for algorithm, k in queries:
            spec = QuerySpec(n=n, k=k, s=s).using(algorithm)
            if where != "local":
                self.source.subscribe(f"s{self.serial}", spec)
            if where != "source":
                self.durable.subscribe(f"l{self.serial}", spec)
                self.twin.subscribe(f"l{self.serial}", spec)
            self.serial += 1

    def push(self, chunks):
        if self.pushed + chunks * CHUNK > len(self.stream):
            return
        chunk = self.stream[self.pushed : self.pushed + chunks * CHUNK]
        self.pushed += len(chunk)
        for engine in (self.durable, self.twin, self.source):
            if len(engine):
                engine.push_many(chunk, chunk_size=CHUNK)

    def move(self):
        payload = dumps(self.source.capture_groups())
        for name in self.source.subscriptions():
            self.source.unsubscribe(name)
        for engine in (self.durable, self.twin):
            engine.restore_groups(loads(payload))
        # A record joins the group at its shape and position, so no two
        # groups ever share both.
        positions = _positions(self.twin)
        assert len(set(positions)) == len(positions)

    def crash(self):
        # SIGKILL-equivalent: abandon the durable engine without close().
        self.durable = self._recover()
        self.check_structure()

    def check_structure(self):
        assert self.durable.groups() == self.twin.groups()
        assert self.durable.subscriptions() == self.twin.subscriptions()


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    interval=st.integers(min_value=1, max_value=5),
    operations=st.lists(operation, min_size=1, max_size=14),
)
def test_recovered_groups_match_the_uncrashed_twin(seed, interval, operations):
    directory = tempfile.mkdtemp(prefix="repro-placement-")
    try:
        run = _Run(directory, interval, seed)
        for op in operations:
            if op[0] == "sub":
                run.subscribe(*op[1])
            elif op[0] == "push":
                run.push(op[1])
            elif op[0] == "move":
                run.move()
            else:
                run.crash()
        run.crash()
        if len(run.twin):
            run.push(1)
        run.check_structure()
        assert _signature(run.durable.drain_results()) == _signature(
            run.twin.drain_results()
        )
        run.durable.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


cluster_subscription = st.tuples(
    st.integers(min_value=0, max_value=len(SHAPES) - 1),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=1),
)


@settings(
    max_examples=max(3, EXAMPLES // 4),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    early=st.lists(cluster_subscription, min_size=2, max_size=5),
    late=st.lists(cluster_subscription, max_size=3),
)
def test_moving_a_group_never_adds_groups(seed, early, late):
    stream = make_objects(random_scores(CHUNK * 8, seed=seed))
    twin = StreamEngine()
    with ShardedStreamEngine(2) as cluster:

        def subscribe(batch, prefix):
            for index, (shape, k, shard) in enumerate(batch):
                n, s = SHAPES[shape]
                query = TopKQuery(n=n, k=k, s=s)
                cluster.subscribe(f"{prefix}{index}", query, "SAP", shard=shard)
                twin.subscribe(f"{prefix}{index}", query, "SAP")

        def push(objects):
            cluster.push_many(objects)
            twin.push_many(objects)

        subscribe(early, "e")
        push(stream[: 2 * CHUNK])
        subscribe(late, "l")
        push(stream[2 * CHUNK : 4 * CHUNK])
        groups = cluster.groups()
        moved = max(groups, key=lambda group: len(group["members"]))
        for name in moved["members"]:
            cluster.rebalance(name, 1 - moved["shard"])
        assert len(cluster.groups()) <= len(groups)
        push(stream[4 * CHUNK :])
        cluster.synchronize()
        got = {name: cluster.results(name) for name in cluster.subscriptions()}
    assert _signature(got) == _signature(
        {name: twin.results(name) for name in twin.subscriptions()}
    )
