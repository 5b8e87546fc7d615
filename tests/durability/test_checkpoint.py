"""Unit tests of the atomic checkpoint store.

A reader must only ever see a complete checkpoint: the manifest is the
commit point, the CRC guards the payload, and a damaged newest
checkpoint degrades to the previous one instead of failing recovery.
"""

import os

from repro.core.state import STATE_FORMAT_VERSION, EngineCheckpoint
from repro.durability.checkpoint import CheckpointStore


def _checkpoint(seq_hint=0, **overrides):
    fields = dict(
        version=STATE_FORMAT_VERSION,
        wal_records=seq_hint * 10,
        ingested=seq_hint * 100,
        last_t=seq_hint * 100 - 1,
        groups=(),
        chunks=seq_hint,
    )
    fields.update(overrides)
    return EngineCheckpoint(**fields)


def _dirs(store):
    return sorted(
        name for name in os.listdir(store.directory)
        if name.startswith("checkpoint-")
    )


class TestRoundtrip:
    def test_fresh_store_has_no_latest(self, tmp_path):
        assert CheckpointStore(str(tmp_path)).latest() is None

    def test_write_then_latest_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.write(_checkpoint(3))
        seq, restored = store.latest()
        assert seq == 0
        assert restored == _checkpoint(3)

    def test_latest_prefers_newest(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.write(_checkpoint(1))
        store.write(_checkpoint(2))
        seq, restored = store.latest()
        assert seq == 1
        assert restored.ingested == 200

    def test_numbering_continues_across_reopen(self, tmp_path):
        CheckpointStore(str(tmp_path)).write(_checkpoint(1))
        reopened = CheckpointStore(str(tmp_path))
        reopened.write(_checkpoint(2))
        assert reopened.latest()[0] == 1


class TestPruning:
    def test_keeps_only_last_keep_checkpoints(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep=2)
        for i in range(4):
            store.write(_checkpoint(i))
        assert _dirs(store) == ["checkpoint-00000002", "checkpoint-00000003"]
        assert store.latest()[0] == 3


class TestDamageTolerance:
    def test_corrupt_newest_state_falls_back_to_previous(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.write(_checkpoint(1))
        store.write(_checkpoint(2))
        newest = os.path.join(store.directory, _dirs(store)[-1], "state.bin")
        data = bytearray(open(newest, "rb").read())
        data[len(data) // 2] ^= 0xFF
        with open(newest, "wb") as handle:
            handle.write(bytes(data))
        seq, restored = store.latest()
        assert seq == 0
        assert restored == _checkpoint(1)

    def test_missing_manifest_means_uncommitted(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.write(_checkpoint(1))
        store.write(_checkpoint(2))
        os.remove(os.path.join(store.directory, _dirs(store)[-1], "MANIFEST.json"))
        assert store.latest()[1] == _checkpoint(1)

    def test_all_checkpoints_damaged_yields_none(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep=1)
        store.write(_checkpoint(1))
        os.remove(os.path.join(store.directory, _dirs(store)[0], "MANIFEST.json"))
        assert store.latest() is None
