"""The durability loop: WAL every mutation, checkpoint every N chunks.

:class:`DurabilityManager` sits between a live engine and the two
stores of this package.  Attached via
:meth:`repro.engine.StreamEngine.attach_durability`, it

* appends every ingested chunk to the
  :class:`~repro.durability.wal.WriteAheadLog` *before* the engine
  applies it (in the columnar wire format, so the log is also a
  replayable copy of the exact post-dedupe object sequence), and every
  subscription lifecycle op once it applied — serialized before it
  applied, so an op the log cannot hold is refused and every live
  subscription can be rebuilt from the log;
* every ``checkpoint_interval`` chunks captures every query group
  whole — its window, partial slide and slide clock once,
  each member's configuration, metrics and retained answers, and its
  shared-plan layout — plus the engine's preference-cluster space into
  one atomic :class:`~repro.core.state.EngineCheckpoint` and truncates
  the WAL prefix the checkpoint covers.

:meth:`recover` is the inverse: restore the latest checkpoint's groups
and cluster space into a fresh engine (the same groups, plans and
cluster ids the checkpointed engine had), then replay the WAL tail
through :meth:`~repro.engine.StreamEngine.apply_op`, the engine's one
parser of subscription ops.  A journaled ``restore`` op holds one
captured :class:`~repro.core.state.GroupState` and replays through the
same :meth:`~repro.engine.StreamEngine.restore_groups` placement, so the
tail rebuilds the groups the live engine had too.  A WAL whose truncated prefix no
readable checkpoint covers is refused with :class:`DurabilityError`
rather than replayed from the middle.  Determinism of the
engine (answers are a pure function of subscriptions + object sequence)
makes the recovered answer stream byte-identical to the crashed one's
continuation — the property the crash-injection suite in
``tests/durability/`` checks against an uncrashed twin.

Shard workers run the same manager with ``logs_engine_chunks=False``:
they log the already-encoded transport payload on receipt
(:meth:`log_encoded`) instead of re-encoding inside the engine hook.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..core import state as state_module
from ..core.columnar import decode_chunk, encode_chunk
from ..core.exceptions import InvalidQueryError, ReproError
from ..core.object import StreamObject
from ..core.state import STATE_FORMAT_VERSION, EngineCheckpoint
from ..obs.registry import get_registry
from .checkpoint import CheckpointStore
from .wal import DEFAULT_SEGMENT_BYTES, KIND_CHUNK, KIND_OP, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.core import EngineCore

#: Commit a checkpoint once this many chunks accumulated since the last one.
DEFAULT_CHECKPOINT_INTERVAL = 64


class DurabilityError(ReproError):
    """The durability directory cannot be used (corrupt, incompatible,
    or recovery was attempted into a non-empty engine)."""


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`DurabilityManager.recover` call reconstructed."""

    checkpoint_seq: Optional[int]
    #: Members of every group restored from the checkpoint.
    restored_subscriptions: int
    replayed_ops: int
    replayed_chunks: int
    replayed_objects: int
    ingested_total: int
    chunks_total: int
    last_t: int
    seconds: float
    #: WAL chunks the engine deterministically rejected during replay
    #: (they were journaled ahead of an application that then failed, so
    #: the pre-crash state never contained them either).
    skipped_chunks: int = 0
    #: Query groups restored from the checkpoint (the recovered layout).
    restored_groups: int = 0

    @property
    def next_t(self) -> int:
        """The arrival order the serving layer's clock continues from."""
        return self.last_t + 1


class DurabilityManager:
    """Checkpoints + WAL for one engine over one directory."""

    def __init__(
        self,
        directory: str,
        *,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        logs_engine_chunks: bool = True,
    ) -> None:
        if checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be positive, got {checkpoint_interval}"
            )
        self.directory = directory
        self.checkpoint_interval = checkpoint_interval
        #: True for local engines (the engine hook encodes + logs each
        #: chunk); False on shard workers, which log the transport
        #: payload themselves via :meth:`log_encoded` before decoding.
        self.logs_engine_chunks = logs_engine_chunks
        self.wal = WriteAheadLog(directory, segment_bytes=segment_bytes)
        self.store = CheckpointStore(directory)
        #: Lifetime counters, restored by :meth:`recover`.
        self.ingested = 0
        self.chunks_logged = 0
        self.last_t = -1
        self.last_recovery: Optional[RecoveryReport] = None
        self._chunks_since_checkpoint = 0
        registry = get_registry()
        self._obs_checkpoints = registry.counter(
            "repro_checkpoints_total", "Engine checkpoints committed."
        )
        self._obs_records = registry.counter(
            "repro_wal_records_total", "Records appended to the write-ahead log."
        )
        self._obs_bytes = registry.counter(
            "repro_wal_bytes_total", "Payload bytes appended to the write-ahead log."
        )
        self._obs_checkpoint_seconds = registry.histogram(
            "repro_checkpoint_seconds", "Wall time of one checkpoint commit."
        )
        self._obs_replayed = registry.counter(
            "repro_replayed_chunks_total", "WAL chunks replayed during recovery."
        )

    # ------------------------------------------------------------------
    # Logging (called by the engine hooks / worker receive path)
    # ------------------------------------------------------------------
    def log_objects(self, chunk: Sequence[StreamObject]) -> None:
        """WAL one non-empty chunk of objects about to enter the engine.

        Journaling happens before application (write-ahead), so the
        engine's ingest edge checks the chunk's order before it gets
        here: a rejected chunk never poisons the log.
        """
        payload = encode_chunk(chunk)
        self.wal.append(KIND_CHUNK, payload)
        self._obs_records.inc()
        self._obs_bytes.inc(len(payload))
        self.last_t = chunk[-1].t

    def log_encoded(self, payload: bytes) -> None:
        """WAL one already-encoded chunk payload (worker receive path)."""
        self.wal.append(KIND_CHUNK, payload)
        self._obs_records.inc()
        self._obs_bytes.inc(len(payload))

    def log_op(self, payload: bytes) -> None:
        """WAL one subscription lifecycle op, as :func:`repro.core.state.dumps`
        wrote it.  The engine serializes each op before applying it, so an
        op that cannot be pickled raises there and never applies."""
        self.wal.append(KIND_OP, payload)
        self._obs_records.inc()
        self._obs_bytes.inc(len(payload))

    def after_chunk(self, engine: "EngineCore", count: int) -> None:
        """A chunk of ``count`` objects finished moving through ``engine``;
        checkpoint when due."""
        # Shard workers journal encoded payloads (:meth:`log_encoded`), so
        # the engine's admitted t is what keeps checkpoints' ``last_t``
        # current there.
        self.last_t = max(self.last_t, engine.last_t)
        self.ingested += count
        self.chunks_logged += 1
        self._chunks_since_checkpoint += 1
        if self._chunks_since_checkpoint >= self.checkpoint_interval:
            self.checkpoint(engine)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, engine: "EngineCore") -> EngineCheckpoint:
        """Capture every query group, commit one checkpoint and return it."""
        started = time.perf_counter()
        checkpoint = EngineCheckpoint(
            version=STATE_FORMAT_VERSION,
            wal_records=self.wal.next_seq,
            ingested=self.ingested,
            last_t=self.last_t,
            groups=engine.capture_groups(),
            chunks=self.chunks_logged,
            subscriptions=tuple(engine.subscriptions()),
            clusters=engine.cluster_space().snapshot(),
        )
        self.wal.sync()
        self.store.write(checkpoint)
        self.wal.truncate(checkpoint.wal_records)
        self._chunks_since_checkpoint = 0
        self._obs_checkpoints.inc()
        self._obs_checkpoint_seconds.observe(time.perf_counter() - started)
        return checkpoint

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self, engine: "EngineCore") -> RecoveryReport:
        """Restore the latest checkpoint into ``engine``, replay the tail.

        ``engine`` must be fresh (no subscriptions, nothing pushed) and
        must not have this manager attached yet — the replayed records
        are already in the log, so replay must not re-log them.

        Raises :class:`DurabilityError` when WAL truncation removed
        records no readable checkpoint covers or a journaled op names what
        neither the checkpoint nor the log holds, and
        :class:`~repro.core.state.StateVersionError` when the newest
        intact checkpoint, or a journaled record, was written by another
        state format version.
        """
        if len(engine):
            raise DurabilityError(
                "recovery needs a fresh engine; this one already has "
                f"{len(engine)} subscription(s)"
            )
        started = time.perf_counter()
        latest = self.store.latest()
        after_seq = 0 if latest is None else latest[1].wal_records
        first_seq = self.wal.first_seq()
        if first_seq > after_seq:
            raise DurabilityError(
                f"the write-ahead log in {self.directory!r} starts at record "
                f"{first_seq}, but no readable checkpoint covers records "
                f"before it (the newest usable one ends at record {after_seq})"
            )
        checkpoint_seq: Optional[int] = None
        restored = restored_groups = 0
        if latest is not None:
            checkpoint_seq, checkpoint = latest
            self.ingested = checkpoint.ingested
            self.chunks_logged = checkpoint.chunks
            self.last_t = checkpoint.last_t
            engine.restore_groups(checkpoint.groups, checkpoint.subscriptions)
            if checkpoint.clusters is not None:
                engine.cluster_space().load(checkpoint.clusters)
            restored = checkpoint.member_count
            restored_groups = len(checkpoint.groups)
        replayed_ops = replayed_chunks = replayed_objects = skipped = 0
        for seq, (kind, payload) in enumerate(self.wal.replay(after_seq), after_seq):
            if kind == KIND_OP:
                op = state_module.loads(payload)
                try:
                    engine.apply_op(op)
                except KeyError as exc:
                    # The live engine applied this op, so the name it
                    # misses was journaled nowhere: refuse to guess.
                    raise DurabilityError(
                        f"write-ahead log record {seq} in {self.directory!r}, a "
                        f"{op[0]!r} op, cannot be replayed: {exc.args[0]}"
                    ) from None
                replayed_ops += 1
            else:
                try:
                    replayed_objects += self._apply_chunk(engine, payload)
                except InvalidQueryError:
                    # Deterministic rejection: the live engine refused
                    # this very chunk after it was journaled (write-ahead
                    # order), so the pre-crash state never held it and
                    # skipping it reproduces that state exactly.
                    skipped += 1
                replayed_chunks += 1
                self.chunks_logged += 1
                self._obs_replayed.inc()
        self.ingested += replayed_objects
        report = RecoveryReport(
            checkpoint_seq=checkpoint_seq,
            restored_subscriptions=restored,
            replayed_ops=replayed_ops,
            replayed_chunks=replayed_chunks,
            replayed_objects=replayed_objects,
            ingested_total=self.ingested,
            chunks_total=self.chunks_logged,
            last_t=self.last_t,
            seconds=time.perf_counter() - started,
            skipped_chunks=skipped,
            restored_groups=restored_groups,
        )
        self.last_recovery = report
        return report

    def _apply_chunk(self, engine: "EngineCore", payload: bytes) -> int:
        block = decode_chunk(payload)
        count = engine.push_block(block)
        top = int(block.ts[-1]) if count else -1
        # The engine admitted the chunk, so its last t is its newest.
        if top > self.last_t:
            self.last_t = top
        return count

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.wal.close()
