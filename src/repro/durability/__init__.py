"""Durability plane: checkpoints + a chunk-granular write-ahead log.

The engine's answer streams are deterministic functions of the
subscription set and the ingested object sequence, and every query
group is byte-identically restorable after any accepted chunk
(:mod:`repro.core.state`).  Durability is therefore two
small, decoupled pieces:

* a **write-ahead log** (:class:`~repro.durability.wal.WriteAheadLog`)
  of everything that mutates the answer streams — ingested chunks in
  the columnar wire format of :mod:`repro.core.columnar`, and
  subscription lifecycle ops — appended *before* the engine applies it;
* periodic **checkpoints** (:class:`~repro.durability.checkpoint.CheckpointStore`)
  of every query group's :class:`~repro.core.state.GroupState` (the
  window once, plus each member's configuration and history), written
  atomically with a CRC'd manifest, after which the WAL prefix they
  cover is truncated.

:class:`DurabilityManager` ties both to a live engine:
``StreamEngine.recover(directory)`` (or ``repro serve
--durability-dir``) restores the latest checkpoint and replays the WAL
tail, producing the exact pre-crash answer stream.
"""

from .checkpoint import CheckpointStore
from .manager import DurabilityError, DurabilityManager, RecoveryReport
from .wal import KIND_CHUNK, KIND_OP, WalCorruptionError, WriteAheadLog

__all__ = [
    "CheckpointStore",
    "DurabilityError",
    "DurabilityManager",
    "KIND_CHUNK",
    "KIND_OP",
    "RecoveryReport",
    "WalCorruptionError",
    "WriteAheadLog",
]
