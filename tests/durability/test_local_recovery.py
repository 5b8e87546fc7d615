"""Crash-exact recovery of a local durable engine.

The property under test is the paper's determinism argument turned into
an oracle: answers are a pure function of subscriptions + the object
sequence, so restoring the latest checkpoint and replaying the WAL tail
must reproduce the crashed engine's answer stream *byte-identically* —
checked against an uncrashed twin that ingested the same stream in one
life.  "Crash" here is abandonment: the durable engine is dropped
without ``close()``, exactly what SIGKILL leaves on disk.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import encode_chunk
from repro.core.exceptions import InvalidQueryError
from repro.core.object import StreamObject
from repro.durability.wal import KIND_CHUNK, WriteAheadLog
from repro.engine import QuerySpec, StreamEngine

from ..conftest import make_objects, random_scores

ALGORITHMS = ["SAP", "MinTopK", "k-skyband", "SMA"]


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


def _durable(directory, interval=3):
    return StreamEngine.recover(
        directory, checkpoint_interval=interval, keep_results=True,
        return_results=False,
    )


def _payload_objects(count, seed=7):
    scores = random_scores(count, seed=seed)
    return [
        StreamObject(score=s, t=i, payload=(s / 10.0, float(i % 13)))
        for i, s in enumerate(scores)
    ]


class TestCrashExactProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        algorithm=st.sampled_from(ALGORITHMS),
        seed=st.integers(min_value=0, max_value=2**16),
        crash_after=st.integers(min_value=1, max_value=11),
    )
    def test_recovered_stream_matches_uncrashed_twin(
        self, algorithm, seed, crash_after
    ):
        stream = make_objects(random_scores(120, seed=seed))
        chunks = [stream[i : i + 10] for i in range(0, 120, 10)]
        spec = QuerySpec(n=24, k=4, s=6).using(algorithm)
        directory = tempfile.mkdtemp(prefix="repro-dur-")
        try:
            crashed = _durable(directory)
            crashed.subscribe("q", spec)
            for chunk in chunks[:crash_after]:
                crashed.push_many(chunk)
            # SIGKILL-equivalent: abandon without close(); whatever the
            # WAL/checkpoints already hold is all recovery gets.
            recovered = _durable(directory)
            assert recovered.recovery_report.restored_subscriptions + \
                recovered.recovery_report.replayed_ops >= 1
            for chunk in chunks[crash_after:]:
                recovered.push_many(chunk)
            twin = StreamEngine(keep_results=True, return_results=False)
            twin.subscribe("q", spec)
            for chunk in chunks:
                twin.push_many(chunk)
            assert _signature(recovered.drain_results()) == _signature(
                twin.drain_results()
            )
            recovered.close()
            twin.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)


class TestRecoveryMechanics:
    def test_empty_directory_recovers_to_empty_engine(self, tmp_path):
        engine = _durable(str(tmp_path))
        report = engine.recovery_report
        assert report.restored_subscriptions == 0
        assert report.replayed_chunks == 0
        engine.subscribe("q", QuerySpec(n=10, k=2, s=5))
        engine.push_many(make_objects(random_scores(20)))
        engine.close()

    def test_checkpoint_truncates_wal_and_bounds_replay(self, tmp_path):
        engine = _durable(str(tmp_path), interval=2)
        engine.subscribe("q", QuerySpec(n=12, k=3, s=6))
        for i in range(10):
            engine.push_many(make_objects(random_scores(6, seed=i), start_t=i * 6))
        # 10 chunks at interval 2 → several checkpoints; the WAL prefix
        # each one covers must be gone.
        assert os.listdir(tmp_path / "checkpoints")
        recovered = _durable(str(tmp_path), interval=2)
        report = recovered.recovery_report
        assert report.checkpoint_seq is not None
        assert report.replayed_chunks < 10
        assert report.ingested_total == 60
        assert report.last_t == 59
        assert report.next_t == 60
        recovered.close()

    def test_ops_replay_unsubscribe_and_preference_update(self, tmp_path):
        stream = _payload_objects(72)
        chunks = [stream[i : i + 8] for i in range(0, 72, 8)]

        def drive(engine, chunk_list):
            engine.subscribe("plain", QuerySpec(n=16, k=3, s=4))
            engine.subscribe("gone", QuerySpec(n=16, k=2, s=4))
            engine.subscribe(
                "pref", QuerySpec(n=16, k=3, s=4).preferring((1.0, 0.5))
            )
            for chunk in chunk_list[:3]:
                engine.push_many(chunk)
            engine.unsubscribe("gone")
            engine.update_preference("pref", (0.25, 2.0))
            for chunk in chunk_list[3:5]:
                engine.push_many(chunk)

        crashed = _durable(str(tmp_path), interval=100)  # WAL-only recovery
        drive(crashed, chunks)
        recovered = _durable(str(tmp_path), interval=100)
        assert sorted(recovered.subscriptions()) == ["plain", "pref"]
        assert recovered.recovery_report.replayed_ops >= 5
        for chunk in chunks[5:]:
            recovered.push_many(chunk)

        twin = StreamEngine(keep_results=True, return_results=False)
        drive(twin, chunks)
        for chunk in chunks[5:]:
            twin.push_many(chunk)
        assert _signature(recovered.drain_results()) == _signature(
            twin.drain_results()
        )
        recovered.close()
        twin.close()


class TestPoisonChunks:
    """Out-of-order input must neither poison the WAL nor kill replay."""

    def test_rejected_chunk_is_not_journaled(self, tmp_path):
        engine = _durable(str(tmp_path))
        engine.subscribe("q", QuerySpec(n=10, k=2, s=5))
        engine.push_many(make_objects(random_scores(10)))  # t = 0..9
        with pytest.raises(InvalidQueryError):
            engine.push_many(make_objects(random_scores(5), start_t=3))
        # the same rejection the engine gives, but *before* journaling:
        # recovery must not see the bad chunk at all
        recovered = _durable(str(tmp_path))
        assert recovered.recovery_report.skipped_chunks == 0
        assert recovered.recovery_report.last_t == 9
        recovered.push_many(make_objects(random_scores(5), start_t=10))
        recovered.close()

    def test_replay_skips_a_journaled_poison_chunk(self, tmp_path):
        engine = _durable(str(tmp_path), interval=100)
        engine.subscribe("q", QuerySpec(n=10, k=2, s=5))
        engine.push_many(make_objects(random_scores(10)))  # t = 0..9
        engine.close()
        # a pre-fix journal (or torn write-ahead ordering) can hold a
        # chunk the engine then rejected; replay must tolerate it
        log = WriteAheadLog(str(tmp_path))
        log.append(KIND_CHUNK, encode_chunk(make_objects(random_scores(4), start_t=2)))
        log.close()
        recovered = _durable(str(tmp_path), interval=100)
        report = recovered.recovery_report
        assert report.skipped_chunks == 1
        assert report.last_t == 9
        recovered.push_many(make_objects(random_scores(5), start_t=10))
        recovered.close()


class TestClusterIdsAfterRecovery:
    """A recovered engine assigns the preference-cluster ids, and so the
    shared plans, of its uncrashed twin: the cluster space survives in
    the checkpoint and is rebuilt by replaying the journaled ops."""

    A = (1.0, 0.1, 0.1)
    B = (0.1, 1.0, 0.1)

    def _before_crash(self, engine):
        engine.subscribe("a", QuerySpec(n=20, k=3, s=5).preferring(self.A))
        engine.subscribe("b", QuerySpec(n=20, k=3, s=5).preferring(self.B))
        engine.push_many(
            StreamObject(score=0.0, t=t, payload={"attributes": [
                float((7 * t) % 23), float((5 * t) % 17), float(t % 11)]})
            for t in range(40)
        )

    def _after_crash(self, engine):
        engine.subscribe("b2", QuerySpec(n=20, k=3, s=5).preferring(self.B))
        engine.subscribe("b3", QuerySpec(n=20, k=3, s=5).preferring(self.B))

    @pytest.mark.parametrize("interval", [1, 100], ids=["checkpoint", "wal-only"])
    def test_recovered_engine_assigns_the_twins_cluster_ids(self, tmp_path, interval):
        crashed = _durable(str(tmp_path), interval=interval)
        self._before_crash(crashed)
        # abandoned without close(), as SIGKILL leaves it
        recovered = _durable(str(tmp_path), interval=interval)
        assert (recovered.recovery_report.checkpoint_seq is not None) == (interval == 1)
        self._after_crash(recovered)
        twin = StreamEngine()
        self._before_crash(twin)
        self._after_crash(twin)

        def cluster_ids(engine):
            return {
                name: engine.subscription(name).snapshot()["cluster"]["cluster_id"]
                for name in engine.subscriptions()
            }

        assert cluster_ids(twin) == {"a": 0, "b": 1, "b2": 1, "b3": 1}
        assert cluster_ids(recovered) == cluster_ids(twin)
        assert recovered.groups() == twin.groups()
        recovered.close()
        twin.close()

    def test_refused_subscribe_assigns_no_cluster(self, tmp_path):
        """A preference subscribe the engine refuses takes no cluster id:
        the ids recovery assigns are the ones the live engine did."""
        query = QuerySpec(n=20, k=3, s=5)
        live = _durable(str(tmp_path))
        with pytest.raises(InvalidQueryError, match="pad_factor"):
            live.subscribe("x", query.build(), "clustered", vector=self.A, pad_factor=0.5)
        live.subscribe("b", query.preferring(self.B))
        assert live.subscription("b").snapshot()["cluster"]["cluster_id"] == 0
        live.close()
        recovered = _durable(str(tmp_path))
        recovered.subscribe("c", query.preferring((0.1, 0.1, 1.0)))
        assert {
            name: recovered.subscription(name).snapshot()["cluster"]["cluster_id"]
            for name in recovered.subscriptions()
        } == {"b": 0, "c": 1}
        recovered.close()
