"""Per-shard adaptive control and the aggregated knowledge view."""

import pytest

from repro import TopKQuery
from repro.cluster import ShardedStreamEngine, ShardError
from repro.control import Policy

from ..conftest import make_objects, random_scores


@pytest.fixture(scope="module")
def stream():
    return make_objects(random_scores(1200, seed=37))


class TestPerShardControl:
    def test_attach_detach_and_aggregated_view(self, stream):
        with ShardedStreamEngine(2) as engine:
            engine.subscribe("a", TopKQuery(n=120, k=5, s=10), shard=0)
            engine.subscribe("b", TopKQuery(n=60, k=4, s=10), shard=1)
            engine.attach_controllers(Policy.default())
            engine.push_many(stream)
            view = engine.knowledge()
            assert view.shard_count == 2
            subs = view.subscriptions()
            assert subs["a"]["shard"] == 0 and subs["b"]["shard"] == 1
            assert subs["a"]["samples"] > 0
            assert view.describe()["shards_with_controllers"] == 2
            engine.detach_controllers()
            assert engine.knowledge().shard_count == 0

    def test_double_attach_rejected(self, stream):
        with ShardedStreamEngine(1) as engine:
            engine.subscribe("a", TopKQuery(n=60, k=4, s=10))
            engine.attach_controllers(Policy.default())
            with pytest.raises(ShardError, match="already has a controller"):
                engine.attach_controllers(Policy.default())

    def test_controlled_run_stays_exact(self, stream):
        from repro import StreamEngine

        reference = StreamEngine()
        reference.subscribe("a", TopKQuery(n=120, k=5, s=10), algorithm="SAP-equal")
        reference.push_many(stream)
        expected = [r.scores for r in reference.results("a")]

        with ShardedStreamEngine(2) as engine:
            engine.subscribe("a", TopKQuery(n=120, k=5, s=10), algorithm="SAP-equal")
            engine.attach_controllers(Policy.default())
            engine.push_many(stream)
            assert [r.scores for r in engine.results("a")] == expected
