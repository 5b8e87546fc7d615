"""Push-based facade over every continuous top-k algorithm in the library.

:class:`StreamEngine` is the single-process execution path of the
reproduction: the CLI, the benchmarks and the tests run and measure every
algorithm through its subscriptions, and the sharded execution plane
(:mod:`repro.cluster`) runs one of these per worker process.  Callers describe queries with
:class:`~repro.engine.spec.QuerySpec` (or a plain
:class:`~repro.core.query.TopKQuery`), attach any algorithm registered in
:mod:`repro.registry` by name, and push stream objects one at a time::

    engine = StreamEngine()
    fire = engine.subscribe("fire", QuerySpec(n=5000, k=10, s=100), algorithm="SAP")
    for obj in sensor_feed:           # unbounded — never materialised
        engine.push(obj)
        for result in fire.drain():
            alert(result)
    engine.close()

All of the subscription/group bookkeeping and ingestion mechanics live in
:class:`~repro.engine.core.EngineCore`, whose one ingest edge every push
goes through; this class adds durable construction
(:meth:`StreamEngine.recover`).

Internally the engine buckets subscriptions into
:class:`~repro.engine.group.QueryGroup` objects, one per window shape
``(n, s, window type)``: each group batches slides, fills and expires its
window exactly once, and — for algorithms that support it — shares one
partition-sealing / candidate-core pipeline at the group's largest ``k``
across all member queries (see :mod:`repro.core.shared`).  Queries that
share a window shape therefore cost far less than independent engines,
which is the whole point of fanning one stream out to many users.

Memory stays O(window) per window *shape* plus whatever answers the caller
asked to retain.  ``push_many`` consumes any iterable lazily in
slide-sized chunks, so a generator of millions of objects flows through in
constant space.
"""

from __future__ import annotations

from typing import Optional

from .core import PUSH_MANY_CHUNK, AlgorithmLike, EngineCore

__all__ = ["StreamEngine", "AlgorithmLike", "PUSH_MANY_CHUNK"]


class StreamEngine(EngineCore):
    """Shared, push-based execution of any number of continuous queries.

    Extends :class:`~repro.engine.core.EngineCore` with durable
    construction: :meth:`durable` and :meth:`recover` build an engine that
    journals into a directory and recovers from it.
    """

    def __init__(self, *, keep_results: bool = True, return_results: bool = True) -> None:
        super().__init__(keep_results=keep_results, return_results=return_results)
        #: Set by :meth:`recover` — what the durability plane replayed.
        self.recovery_report = None

    # ------------------------------------------------------------------
    # Durable construction (crash-exact recovery)
    # ------------------------------------------------------------------
    @classmethod
    def durable(cls, directory: str, *, checkpoint_interval: Optional[int] = None,
                **engine_kwargs) -> "StreamEngine":
        """A fresh engine persisting into ``directory``.

        Equivalent to :meth:`recover` on an empty directory; on a
        directory with prior state it *also* recovers first, so callers
        can use one constructor for both cold and crashed starts.
        """
        return cls.recover(directory, checkpoint_interval=checkpoint_interval,
                           **engine_kwargs)

    @classmethod
    def recover(cls, directory: str, *, checkpoint_interval: Optional[int] = None,
                **engine_kwargs) -> "StreamEngine":
        """Rebuild the engine persisted in ``directory`` and keep persisting.

        Restores the latest checkpoint, replays the write-ahead-log tail
        (producing the exact pre-crash subscriptions, windows, and
        retained answers), then attaches the durability manager so the
        recovered engine continues journaling.  The replay summary is
        left on ``engine.recovery_report``.  An empty directory recovers
        to an empty engine — i.e. this is also how a durable engine is
        *first* created.
        """
        from ..durability import DurabilityManager

        kwargs = {}
        if checkpoint_interval is not None:
            kwargs["checkpoint_interval"] = checkpoint_interval
        engine = cls(**engine_kwargs)
        manager = DurabilityManager(directory, **kwargs)
        engine.recovery_report = manager.recover(engine)
        engine.attach_durability(manager)
        return engine

    def close(self):
        try:
            return super().close()
        finally:
            if self._durability is not None:
                self._durability.close()

    # ------------------------------------------------------------------
    def __enter__(self) -> "StreamEngine":
        return self
