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
goes through; this class layers the adaptive control plane on top —
controller attachment and slide-aligned chunking — through the core's two
ingest hooks: the chunk size, and the per-chunk note that ticks the
controller.

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

from ..core.exceptions import AlgorithmStateError
from .core import PUSH_MANY_CHUNK, AlgorithmLike, EngineCore
from .group import QueryGroup

__all__ = ["StreamEngine", "AlgorithmLike", "PUSH_MANY_CHUNK"]


class StreamEngine(EngineCore):
    """Shared, push-based execution of any number of continuous queries.

    Extends :class:`~repro.engine.core.EngineCore` with the adaptive
    control plane: an attached :class:`repro.control.AdaptiveController`
    receives per-slide telemetry, runs its MAPE loop after every ingested
    chunk and flush, and may rebuild SAP partitioners at slide boundaries.
    """

    def __init__(self, *, keep_results: bool = True, return_results: bool = True) -> None:
        super().__init__(keep_results=keep_results, return_results=return_results)
        self._controller = None
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
    # Adaptive control plane
    # ------------------------------------------------------------------
    @property
    def controller(self):
        """The attached :class:`repro.control.AdaptiveController`, if any."""
        return self._controller

    def attach_controller(self, controller) -> None:
        """Put this engine under adaptive control (see :mod:`repro.control`).

        The controller's monitor starts receiving per-slide telemetry from
        every query group (existing and future), and the controller runs
        its MAPE loop after every ingest call, applying tactics at slide
        boundaries.  Only one controller may be attached at a time.
        """
        self._ensure_open()
        if self._controller is not None:
            raise AlgorithmStateError(
                "a controller is already attached; detach it first"
            )
        self._controller = controller
        controller._bind_engine(self)
        for group in self._groups:
            controller._adopt_group(group)

    def detach_controller(self):
        """Detach the controller; telemetry stops, tactics no longer fire.

        Returns the detached controller (its knowledge store, including the
        adaptation event log, stays readable)."""
        controller = self._controller
        if controller is None:
            return None
        self._controller = None
        for group in self._groups:
            group.telemetry = None
        controller._unbind_engine(self)
        return controller

    def unsubscribe(self, name: str) -> None:
        """Close and remove one query; an attached controller forgets it."""
        super().unsubscribe(name)
        if self._controller is not None:
            self._controller.forget(name)

    # ------------------------------------------------------------------
    # EngineCore hooks: wire the controller into the ingest path
    # ------------------------------------------------------------------
    def _register_group(self, group: QueryGroup) -> None:
        super()._register_group(group)
        if self._controller is not None:
            self._controller._adopt_group(group)

    def _unregister_group(self, group: QueryGroup) -> None:
        super()._unregister_group(group)
        if self._controller is not None:
            self._controller._discard_group(group)

    def _chunk_size_for(self, requested: int) -> int:
        # Slide-aligned chunks make chunk ends coincide with slide
        # boundaries, the only points where tactics may be applied.
        if self._controller is not None:
            return self._controller.aligned_chunk(requested)
        return requested

    def _note_chunk(self, count: int) -> None:
        if self._controller is not None:
            self._controller.tick()

    # ------------------------------------------------------------------
    def __enter__(self) -> "StreamEngine":
        return self
