"""Atomic, CRC-verified engine checkpoints.

A checkpoint is a directory ``checkpoints/checkpoint-<seq>`` holding

* ``state.bin`` — :func:`repro.core.state.dumps` of an
  :class:`~repro.core.state.EngineCheckpoint`;
* ``MANIFEST.json`` — ``{seq, wal_records, groups, subscriptions,
  bytes, crc32}`` where ``crc32`` covers ``state.bin`` and
  ``subscriptions`` counts the members of every group.

Writes are crash-atomic: the payload and manifest land in a ``.tmp``
sibling that is fsynced and then :func:`os.replace`'d into place, so a
reader either sees a complete checkpoint or none at all.  The manifest
is written *after* ``state.bin`` inside the tmp dir, making its
presence the commit point even on filesystems that reorder directory
operations.  :meth:`CheckpointStore.latest` walks checkpoints newest
first and skips any whose manifest or CRC fails, so a torn or
bit-rotted newest checkpoint degrades to the previous one instead of
failing recovery (the WAL tail covers the difference).  An intact
checkpoint of another state format version is not damage: reading it
raises :class:`~repro.core.state.StateVersionError`.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from typing import List, Optional, Tuple

from ..core import state as state_module
from ..core.state import EngineCheckpoint, StateVersionError

_DIR_PREFIX = "checkpoint-"
_MANIFEST = "MANIFEST.json"
_STATE = "state.bin"

#: How many committed checkpoints to retain.  Two, so the newest being
#: torn by a crash mid-prune still leaves a verified fallback.
DEFAULT_KEEP = 2


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class CheckpointStore:
    """Numbered engine checkpoints under ``<directory>/checkpoints``."""

    def __init__(self, directory: str, *, keep: int = DEFAULT_KEEP) -> None:
        self.directory = os.path.join(directory, "checkpoints")
        self.keep = max(1, keep)
        os.makedirs(self.directory, exist_ok=True)
        self.next_seq = max((seq for seq, _ in self._entries()), default=-1) + 1

    def _entries(self) -> List[Tuple[int, str]]:
        """``(seq, path)`` for every checkpoint dir (committed or not)."""
        entries = []
        for name in os.listdir(self.directory):
            if name.startswith(_DIR_PREFIX) and not name.endswith(".tmp"):
                try:
                    seq = int(name[len(_DIR_PREFIX) :])
                except ValueError:
                    continue
                entries.append((seq, os.path.join(self.directory, name)))
        entries.sort()
        return entries

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write(self, checkpoint: EngineCheckpoint) -> int:
        """Persist a checkpoint atomically; returns its sequence number."""
        seq = self.next_seq
        payload = state_module.dumps(checkpoint)
        final = os.path.join(self.directory, f"{_DIR_PREFIX}{seq:08d}")
        tmp = final + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        state_path = os.path.join(tmp, _STATE)
        with open(state_path, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        manifest = {
            "seq": seq,
            "wal_records": checkpoint.wal_records,
            "groups": len(checkpoint.groups),
            "subscriptions": checkpoint.member_count,
            "bytes": len(payload),
            "crc32": zlib.crc32(payload),
        }
        manifest_path = os.path.join(tmp, _MANIFEST)
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
            handle.flush()
            os.fsync(handle.fileno())
        _fsync_dir(tmp)
        os.replace(tmp, final)
        _fsync_dir(self.directory)
        self.next_seq = seq + 1
        self._prune()
        return seq

    def _prune(self) -> None:
        entries = self._entries()
        for _, path in entries[: -self.keep]:
            shutil.rmtree(path, ignore_errors=True)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def latest(self) -> Optional[Tuple[int, EngineCheckpoint]]:
        """The newest checkpoint that passes manifest + CRC verification.

        Returns ``(seq, checkpoint)`` or ``None`` when no verifiable
        checkpoint exists (fresh directory, or every candidate is
        damaged — recovery then replays the WAL from record 0).  Raises
        :class:`~repro.core.state.StateVersionError` on reaching an intact
        checkpoint of another format version.
        """
        for seq, path in reversed(self._entries()):
            checkpoint = self._load(path, seq)
            if checkpoint is not None:
                return seq, checkpoint
        return None

    def _load(self, path: str, seq: int) -> Optional[EngineCheckpoint]:
        manifest_path = os.path.join(path, _MANIFEST)
        state_path = os.path.join(path, _STATE)
        try:
            with open(manifest_path) as handle:
                manifest = json.load(handle)
            with open(state_path, "rb") as handle:
                payload = handle.read()
        except (OSError, ValueError):
            return None
        if (
            manifest.get("seq") != seq
            or manifest.get("bytes") != len(payload)
            or manifest.get("crc32") != zlib.crc32(payload)
        ):
            return None
        try:
            checkpoint = state_module.loads(payload)
        except StateVersionError:
            # Intact but written by another format version: not damage.
            # Skipping it would replay a WAL whose prefix it truncated.
            raise
        except Exception:
            return None
        if not isinstance(checkpoint, EngineCheckpoint):
            return None
        return checkpoint
