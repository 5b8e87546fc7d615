"""Tests for the ingestion pipeline: dedupe window, event parsing, and
slide-aligned batching (:mod:`repro.serve.ingest`)."""

import pytest

from repro.core.query import TopKQuery
from repro.core.window import MAX_ALIGNED_CHUNK
from repro.serve.ingest import (
    DEFAULT_DEDUPE_WINDOW,
    DedupeWindow,
    IngestBatcher,
    parse_event,
)


def slides(*sizes):
    """Count-based queries with the given slide sizes."""
    return [TopKQuery(n=s, k=1, s=s) for s in sizes]


class TestDedupeWindow:
    def test_duplicates_are_ignored(self):
        window = DedupeWindow(capacity=8)
        assert window.admit("a")
        assert window.admit("b")
        assert not window.admit("a")  # exact redelivery
        assert not window.admit("a")  # and again
        stats = window.stats()
        assert stats["admitted"] == 2
        assert stats["duplicates"] == 2
        assert stats["tracked_ids"] == 2

    def test_eviction_past_capacity_readmits(self):
        window = DedupeWindow(capacity=3)
        for event_id in ("a", "b", "c"):
            assert window.admit(event_id)
        assert window.admit("d")  # evicts "a", the oldest
        assert window.stats()["evictions"] == 1
        # "a" fell out of the window: a redelivery is admitted again.
        assert window.admit("a")
        # ...which in turn evicted "b".
        assert window.admit("b")
        assert window.stats()["evictions"] == 3
        assert window.stats()["tracked_ids"] == 3

    def test_duplicate_refreshes_recency(self):
        window = DedupeWindow(capacity=3)
        for event_id in ("a", "b", "c"):
            window.admit(event_id)
        assert not window.admit("a")  # touch "a": now "b" is the oldest
        window.admit("d")
        assert not window.admit("a")  # still tracked
        assert window.admit("b")  # "b" was the eviction victim

    def test_counts_accumulate_across_evictions(self):
        window = DedupeWindow(capacity=2)
        for i in range(10):
            window.admit(f"id-{i}")
        stats = window.stats()
        assert stats["admitted"] == 10
        assert stats["evictions"] == 8
        assert stats["tracked_ids"] == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DedupeWindow(capacity=0)
        assert DedupeWindow().stats()["capacity"] == DEFAULT_DEDUPE_WINDOW


class TestParseEvent:
    def test_minimal_event(self):
        event_id, score, payload = parse_event({"score": 3})
        assert event_id is None  # no id: bypasses dedupe
        assert score == 3.0 and isinstance(score, float)
        assert payload is None

    def test_full_event(self):
        event_id, score, payload = parse_event(
            {"id": "e-1", "score": 2.5, "payload": {"sym": "ACME"}}
        )
        assert (event_id, score, payload) == ("e-1", 2.5, {"sym": "ACME"})

    @pytest.mark.parametrize(
        "raw",
        [
            "not a dict",
            {},  # missing score
            {"score": "high"},  # non-numeric
            {"score": True},  # bool is not a score
            {"score": 1.0, "id": 7},  # non-string id
            {"id": "a", "score": float("nan")},  # outside the (score, t) order
            {"score": float("inf")},
            {"score": float("-inf")},
            {"score": 10**400},  # an int past float64
            {"score": 2**53 + 1},  # an int float64 would round
        ],
    )
    def test_invalid_events_rejected(self, raw):
        with pytest.raises(ValueError):
            parse_event(raw)

    def test_exact_large_int_accepted(self):
        assert parse_event({"score": 2**53})[1] == 2.0**53


class TestIngestBatcher:
    def test_server_assigns_strictly_increasing_t(self):
        batcher = IngestBatcher()
        for score in (5.0, 1.0, 3.0):
            batcher.append(score, None)
        batch = batcher.take_all()
        assert [o.t for o in batch] == [0, 1, 2]
        assert [o.score for o in batch] == [5.0, 1.0, 3.0]
        # t keeps counting across batches — redelivered events were already
        # deduped upstream, so arrival order is the identity.
        batcher.append(9.0, None)
        assert batcher.take_all()[0].t == 3

    def test_alignment_is_lcm_of_slides(self):
        batcher = IngestBatcher()
        batcher.set_alignment(slides(4, 6))
        assert batcher.alignment == 12
        batcher.set_alignment(slides(5))
        assert batcher.alignment == 5
        batcher.set_alignment(slides())  # no count-based subscriptions
        assert batcher.alignment == 1

    def test_alignment_clamped_when_lcm_explodes(self):
        batcher = IngestBatcher()
        batcher.set_alignment(slides(7919, 7927))  # coprime: lcm ~62.8M
        assert batcher.alignment == 1
        assert batcher.alignment <= MAX_ALIGNED_CHUNK

    def test_take_aligned_keeps_the_tail(self):
        batcher = IngestBatcher()
        batcher.set_alignment(slides(5))
        for i in range(13):
            batcher.append(float(i), None)
        aligned = batcher.take_aligned()
        assert len(aligned) == 10  # largest multiple of 5
        assert batcher.stats()["pending"] == 3
        tail = batcher.take_all()
        assert [o.t for o in tail] == [10, 11, 12]

    def test_take_aligned_below_one_slide_is_empty(self):
        batcher = IngestBatcher()
        batcher.set_alignment(slides(10))
        batcher.append(1.0, None)
        assert batcher.take_aligned() == []
        assert batcher.stats()["pending"] == 1

    def test_stats_track_totals(self):
        batcher = IngestBatcher()
        batcher.set_alignment(slides(2))
        for i in range(5):
            batcher.append(float(i), None)
        batcher.take_aligned()
        stats = batcher.stats()
        assert stats == {"ingested": 5, "pending": 1, "alignment": 2}
