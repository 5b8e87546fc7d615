"""Group-granular checkpoints: each query group is captured and restored whole.

A checkpoint holds one record per query group — the window and slide
clock once, each member's configuration, metrics and retained answers,
and the group's shared-plan layout.  Recovery rebuilds the groups
whole, so the recovered engine must match an uncrashed twin in
structure (``engine.groups()``: members and plans, ``k_max`` included)
as well as in answers, through mid-stream subscribe/unsubscribe churn.
"""

import io
import itertools
import json
import os
import pickle
import shutil
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import state as state_module
from repro.core.framework import SAPTopK
from repro.core.metrics import MetricsCollector
from repro.core.object import StreamObject
from repro.core.query import TopKQuery
from repro.core.state import (
    PICKLE_PROTOCOL,
    STATE_FORMAT_VERSION,
    EngineCheckpoint,
    GroupState,
    StateVersionError,
    SubscriptionState,
)
from repro.durability import KIND_OP, DurabilityError, DurabilityManager, WriteAheadLog
from repro.durability.checkpoint import CheckpointStore
from repro.engine import QuerySpec, StreamEngine

from ..conftest import make_objects, random_scores

ALGORITHMS = ["SAP", "MinTopK", "k-skyband", "SMA"]
#: Window shapes ``(n, s)``; the last one's slide does not divide CHUNK
#: nor its window, so most checkpoints catch it mid-slide.
SHAPES = [(24, 6), (18, 6), (20, 4), (21, 5)]
CHUNK = 12
CHUNKS = 10


def _signature(drained):
    """A comparable, byte-stable form of a drained answer stream."""
    return {
        name: [
            (
                result.slide_index,
                result.window_end,
                tuple((obj.score, obj.t) for obj in result.objects),
            )
            for result in results
        ]
        for name, results in sorted(drained.items())
    }


def _durable(directory, interval=2):
    return StreamEngine.recover(
        directory, checkpoint_interval=interval, keep_results=True,
        return_results=False,
    )


def _schedule(initial, churn):
    """Ops to apply before each chunk, keyed by chunk index.

    Chunk 0 opens a SAP plan over ``lo``/``top``/``mid`` on the first
    shape; ``top`` (its ``k_max`` member) leaves before chunk 1, ahead of
    the first checkpoint.  ``lo`` and ``mid`` never leave, so the engine
    is never empty.  Churn unsubscribes pick among the other live names.
    """
    ops = {0: [("sub", "lo", SHAPES[0], "SAP", 2),
               ("sub", "top", SHAPES[0], "SAP", 5),
               ("sub", "mid", SHAPES[0], "SAP", 3)]}
    for index, (shape, algorithm, k) in enumerate(initial):
        ops[0].append(("sub", f"i{index}", SHAPES[shape], algorithm, k))
    ops[1] = [("unsub", "top")]
    live = [f"i{index}" for index in range(len(initial))]
    for index, (chunk, op) in enumerate(sorted(churn, key=lambda item: item[0])):
        if isinstance(op, int):
            if live:
                ops.setdefault(chunk, []).append(("unsub", live.pop(op % len(live))))
        else:
            shape, algorithm, k = op
            name = f"c{index}"
            ops.setdefault(chunk, []).append(("sub", name, SHAPES[shape], algorithm, k))
            live.append(name)
    return ops


def _apply(engine, op):
    if op[0] == "sub":
        _, name, (n, s), algorithm, k = op
        engine.subscribe(name, QuerySpec(n=n, k=k, s=s).using(algorithm))
    else:
        engine.unsubscribe(op[1])


def _drive(engine, ops, chunks, first, last):
    for index in range(first, last):
        for op in ops.get(index, ()):
            _apply(engine, op)
        engine.push_many(chunks[index])


subscription = st.tuples(
    st.integers(min_value=0, max_value=len(SHAPES) - 1),
    st.sampled_from(ALGORITHMS),
    st.integers(min_value=1, max_value=4),
)


class TestGroupLayoutSurvivesCrash:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        initial=st.lists(subscription, max_size=4),
        churn=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=CHUNKS - 1),
                st.one_of(subscription, st.integers(min_value=0, max_value=7)),
            ),
            max_size=5,
        ),
        crash_after=st.integers(min_value=1, max_value=CHUNKS - 1),
    )
    def test_recovered_groups_and_answers_match_uncrashed_twin(
        self, seed, initial, churn, crash_after
    ):
        stream = make_objects(random_scores(CHUNK * CHUNKS, seed=seed))
        chunks = [stream[i : i + CHUNK] for i in range(0, len(stream), CHUNK)]
        ops = _schedule(initial, churn)
        directory = tempfile.mkdtemp(prefix="repro-groups-")
        try:
            crashed = _durable(directory)
            _drive(crashed, ops, chunks, 0, crash_after)
            # SIGKILL-equivalent: abandon without close().
            recovered = _durable(directory)

            twin = StreamEngine(keep_results=True, return_results=False)
            _drive(twin, ops, chunks, 0, crash_after)
            assert recovered.groups() == twin.groups()
            assert recovered.subscriptions() == twin.subscriptions()

            _drive(recovered, ops, chunks, crash_after, CHUNKS)
            _drive(twin, ops, chunks, crash_after, CHUNKS)
            assert recovered.groups() == twin.groups()
            assert _signature(recovered.drain_results()) == _signature(
                twin.drain_results()
            )
            recovered.close()
            twin.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def test_plan_keeps_k_max_of_a_member_that_left_before_the_checkpoint(
        self, tmp_path
    ):
        stream = make_objects(random_scores(CHUNK * 6, seed=3))
        chunks = [stream[i : i + CHUNK] for i in range(0, len(stream), CHUNK)]
        ops = _schedule([], [])
        crashed = _durable(str(tmp_path))
        _drive(crashed, ops, chunks, 0, 6)
        recovered = _durable(str(tmp_path))
        report = recovered.recovery_report
        assert report.checkpoint_seq is not None
        (group,) = recovered.groups()
        (plan,) = group["plans"]
        assert plan["members"] == ["lo", "mid"]
        assert plan["k_max"] == 5  # "top" set it and left before chunk 1
        recovered.close()


class TestCheckpointRecords:
    def _engine(self, directory):
        engine = _durable(directory, interval=1000)
        for name, k in (("a", 2), ("b", 4), ("c", 3)):
            engine.subscribe(name, QuerySpec(n=24, k=k, s=6))
        engine.subscribe("d", QuerySpec(n=18, k=2, s=6).using("MinTopK"))
        engine.push_many(make_objects(random_scores(48)))
        engine.subscribe("late", QuerySpec(n=24, k=2, s=6))  # opens its own group
        engine.push_many(make_objects(random_scores(24, seed=1), start_t=48))
        return engine

    def test_checkpoint_pickles_each_started_group_window_once(
        self, tmp_path, monkeypatch
    ):
        windows = []

        class WindowCounter(pickle.Pickler):
            def persistent_id(self, obj):
                # Called for every reference the pickler visits, memoized
                # or not: full-window tuples (answers hold k < n objects).
                if (
                    type(obj) is tuple
                    and len(obj) in (18, 24)
                    and isinstance(obj[0], StreamObject)
                ):
                    windows.append(obj)
                return None

        def counting_dumps(value):
            buffer = io.BytesIO()
            WindowCounter(buffer, protocol=PICKLE_PROTOCOL).dump(value)
            return buffer.getvalue()

        engine = self._engine(str(tmp_path))
        monkeypatch.setattr(state_module, "dumps", counting_dumps)
        assert engine.durability.checkpoint(engine)
        assert len(windows) == len(engine.groups()) == 3
        _, checkpoint = engine.durability.store.latest()
        for group in checkpoint.groups:
            assert len(group.window) == group.n
            assert not any(hasattr(member, "window") for member in group.members)
        engine.close()

    def test_manifest_and_report_count_members_and_groups(self, tmp_path):
        engine = self._engine(str(tmp_path))
        assert engine.durability.checkpoint(engine)
        engine.close()
        store = CheckpointStore(str(tmp_path))
        seq, checkpoint = store.latest()
        manifest_path = os.path.join(
            store.directory, f"checkpoint-{seq:08d}", "MANIFEST.json"
        )
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["subscriptions"] == 5
        assert manifest["groups"] == 3
        assert checkpoint.subscriptions == ("a", "b", "c", "d", "late")

        recovered = _durable(str(tmp_path))
        report = recovered.recovery_report
        assert report.restored_subscriptions == 5
        assert report.restored_groups == 3
        assert recovered.subscriptions() == ["a", "b", "c", "d", "late"]
        assert [group["members"] for group in recovered.groups()] == [
            ["a", "b", "c"], ["d"], ["late"],
        ]
        recovered.close()

    def test_capture_group_mid_slide_and_time_based_restores(self):
        objects = make_objects(random_scores(60))
        for query in (TopKQuery(n=12, k=2, s=6), TopKQuery(n=10, k=2, s=5, time_based=True)):
            engine, twin = StreamEngine(), StreamEngine()
            engine.subscribe("q", query)
            twin.subscribe("q", query)
            group = engine.subscription("q").group
            assert engine.capture_group(group).position is None  # not started
            engine.push_many(objects[:15])  # a partial slide
            twin.push_many(objects)
            state = engine.capture_group(group)
            assert state.pending
            resumed = StreamEngine()
            resumed.restore_groups((state,))
            resumed.push_many(objects[15:])
            for done in (resumed, twin):
                done.flush()
            assert _signature(resumed.drain_results()) == _signature(twin.drain_results())

    def test_captured_metrics_do_not_follow_the_live_collector(self):
        engine = StreamEngine()
        engine.subscribe("q", QuerySpec(n=12, k=2, s=6))
        engine.push_many(make_objects(random_scores(24)))
        state = engine.capture_subscription("q")
        metrics = state.members[0].metrics
        slides, buckets = metrics.slides, dict(metrics.latency_buckets)
        engine.push_many(make_objects(random_scores(24, seed=2), start_t=24))
        assert engine.subscription("q").metrics.latency_count > slides
        assert metrics.slides == slides
        assert metrics.latency_buckets == buckets
        restored = StreamEngine().restore_subscription(state)
        restored.metrics.record(1, 1, 1.0)
        assert metrics.latency_buckets == buckets


class TestCheckpointAge:
    """A checkpoint's size depends on the subscriptions, not on their age."""

    @staticmethod
    def _checkpoint_bytes(engine, directory):
        assert engine.durability.checkpoint(engine)
        store = CheckpointStore(directory)
        seq, _ = store.latest()
        manifest_path = os.path.join(
            store.directory, f"checkpoint-{seq:08d}", "MANIFEST.json"
        )
        with open(manifest_path) as handle:
            return json.load(handle)["bytes"]

    def test_checkpoint_bytes_do_not_grow_with_subscription_age(
        self, tmp_path, monkeypatch
    ):
        # A fixed clock (1 us per reading) gives every slide the same
        # latencies at any age, so the two checkpoints differ only in how
        # long the subscriptions have run.  With real timing a sketch also
        # opens a bucket for each new outlier, bounded by the range of the
        # latencies (tests/core/test_metrics.py), not by their number.
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks) * 1e-6)
        engine = _durable(str(tmp_path), interval=10**9)
        for index in range(20):
            engine.subscribe(
                f"q{index}", QuerySpec(n=40, k=1 + index % 5, s=2),
                keep_results=False,
            )
        scores = random_scores(40 + 2 * 4999, seed=7)
        early_end = 40 + 2 * 99  # the 100th slide
        engine.push_many(make_objects(scores[:early_end]))
        early = self._checkpoint_bytes(engine, str(tmp_path))
        engine.push_many(make_objects(scores[early_end:], start_t=early_end))
        assert engine.subscription("q0").metrics.slides == 5000
        late = self._checkpoint_bytes(engine, str(tmp_path))
        engine.close()
        assert late <= 1.2 * early


class TestUnusableCheckpoints:
    def _truncated(self, directory):
        """A durable engine whose WAL prefix was truncated by checkpoints."""
        manager = DurabilityManager(directory, checkpoint_interval=2, segment_bytes=2048)
        engine = StreamEngine(keep_results=True, return_results=False)
        manager.recover(engine)
        engine.attach_durability(manager)
        engine.subscribe("q", QuerySpec(n=12, k=3, s=6))
        for i in range(40):
            engine.push_many(make_objects(random_scores(6, seed=i), start_t=i * 6))
        engine.close()
        first = WriteAheadLog(directory).first_seq()
        assert first > 0
        return first

    def test_truncated_wal_without_a_usable_checkpoint_is_refused(self, tmp_path):
        first = self._truncated(str(tmp_path))
        checkpoints = tmp_path / "checkpoints"
        for name in os.listdir(checkpoints):
            os.remove(checkpoints / name / "MANIFEST.json")
        with pytest.raises(DurabilityError, match=f"starts at record {first}"):
            _durable(str(tmp_path))

    def test_checkpoint_of_another_format_version_is_not_skipped(self, tmp_path):
        self._truncated(str(tmp_path))
        store = CheckpointStore(str(tmp_path))
        _, current = store.latest()
        old = EngineCheckpoint(
            version=STATE_FORMAT_VERSION - 1,
            wal_records=current.wal_records,
            ingested=current.ingested,
            last_t=current.last_t,
            groups=current.groups,
            chunks=current.chunks,
        )
        store.write(old)
        with pytest.raises(StateVersionError):
            store.latest()
        with pytest.raises(StateVersionError):
            _durable(str(tmp_path))


def _legacy(cls, **fields):
    """A record of ``cls`` carrying exactly ``fields`` — how a payload
    pickled by an older library version unpickles today."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


def _version_2_member(name):
    """A version-2 member record: it carried the group window itself."""
    query = TopKQuery(n=12, k=2, s=6)
    return _legacy(
        SubscriptionState, version=2, name=name, algorithm=SAPTopK(query),
        window=tuple(make_objects(random_scores(12))), slide_index=0,
        keep_results=True, result_buffer=None, collect_metrics=True,
        results=(), results_delivered=0, metrics=MetricsCollector(),
    )


class TestVersion2Records:
    """Journals and checkpoints of state format 2 are refused by kind."""

    def test_journaled_version_2_restore_op_is_refused(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        op = ("restore", _version_2_member("old"))
        wal.append(KIND_OP, pickle.dumps(op, protocol=PICKLE_PROTOCOL))
        wal.close()
        with pytest.raises(StateVersionError, match="SubscriptionState format version 2"):
            _durable(str(tmp_path))

    def test_version_2_checkpoint_is_refused(self, tmp_path):
        member = _version_2_member("old")
        group = _legacy(
            GroupState, version=2, n=12, s=6, window=member.window,
            slide_index=0, members=(member,), plans=(),
        )
        checkpoint = _legacy(
            EngineCheckpoint, version=2, wal_records=0, ingested=12, last_t=11,
            groups=(group,), chunks=1, subscriptions=("old",),
        )
        CheckpointStore(str(tmp_path)).write(checkpoint)
        with pytest.raises(StateVersionError, match="EngineCheckpoint format version 2"):
            CheckpointStore(str(tmp_path)).latest()
        with pytest.raises(StateVersionError, match="EngineCheckpoint format version 2"):
            _durable(str(tmp_path))


def _version_3_group(name):
    """A version-3 group record: its member's collector kept a list of
    per-slide latencies (decimated past a cap) instead of a sketch."""
    query = TopKQuery(n=12, k=2, s=6)
    metrics = _legacy(
        MetricsCollector, slides=1, candidate_total=2.0, candidate_max=2,
        memory_total=64.0, memory_max=64, latency_total=1e-4, latency_max=1e-4,
        latencies=[1e-4], last_candidates=2, last_memory_bytes=64,
        last_latency=1e-4, _latency_seen=1, _latency_stride=1,
    )
    member = _legacy(
        SubscriptionState, version=3, name=name, algorithm=SAPTopK(query),
        keep_results=True, result_buffer=None, collect_metrics=True,
        results=(), results_delivered=1, metrics=metrics,
    )
    return _legacy(
        GroupState, version=3, n=12, s=6,
        window=tuple(make_objects(random_scores(12))), slide_index=0,
        members=(member,), plans=(((0,), 2),),
    )


class TestVersion3Records:
    """Journals and checkpoints of state format 3 (latency lists) are
    refused by kind, not restored with a collector missing its sketch."""

    def test_journaled_version_3_restore_op_is_refused(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        op = ("restore", _version_3_group("old"))
        wal.append(KIND_OP, pickle.dumps(op, protocol=PICKLE_PROTOCOL))
        wal.close()
        with pytest.raises(StateVersionError, match="GroupState format version 3"):
            _durable(str(tmp_path))

    def test_version_3_checkpoint_is_refused(self, tmp_path):
        checkpoint = _legacy(
            EngineCheckpoint, version=3, wal_records=0, ingested=12, last_t=11,
            groups=(_version_3_group("old"),), chunks=1, subscriptions=("old",),
        )
        CheckpointStore(str(tmp_path)).write(checkpoint)
        with pytest.raises(StateVersionError, match="EngineCheckpoint format version 3"):
            CheckpointStore(str(tmp_path)).latest()
        with pytest.raises(StateVersionError, match="EngineCheckpoint format version 3"):
            _durable(str(tmp_path))
