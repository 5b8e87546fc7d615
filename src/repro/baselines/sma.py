"""SMA — the multi-pass, grid-indexed baseline (reference [17] of the paper).

SMA maintains a candidate list holding the top-``k_max`` objects of the
window (``k_max = 2k`` by default) and keeps it up to date as the window
slides.  Dominance counters remove candidates that can never become results
(non-k-skyband objects).  When expirations shrink the candidate list below
``k``, the window is re-scanned to rebuild the list; the grid index limits
the re-scan to the highest-score cells.  Re-scans are the algorithm's
weakness — on streams whose scores trend downwards they happen every few
slides, which is the behaviour Figure 1(a) of the SAP paper illustrates.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.interface import (
    OBJECT_FOOTPRINT_BYTES,
    POINTER_FOOTPRINT_BYTES,
    ContinuousTopKAlgorithm,
)
from ..core.object import StreamObject
from ..core.query import TopKQuery
from ..core.result import TopKResult
from ..core.window import SlideEvent
from ..structures.avl import AVLTree
from .grid import ScoreGrid

RankKey = Tuple[float, int]


class _CandidateRecord:
    __slots__ = ("obj", "dominators")

    def __init__(self, obj: StreamObject) -> None:
        self.obj = obj
        self.dominators = 0


class SMATopK(ContinuousTopKAlgorithm):
    """Grid-assisted top-``k_max`` candidate maintenance with re-scans."""

    name = "SMA"

    def __init__(self, query: TopKQuery, kmax_factor: int = 2, grid_cells: int = 64) -> None:
        super().__init__(query)
        if kmax_factor < 1:
            raise ValueError("kmax_factor must be at least 1")
        self._kmax = kmax_factor * query.k
        self._grid_cells = grid_cells
        self._grid = ScoreGrid()
        self._candidates = AVLTree()
        self._rescans = 0
        self._calibrated = False

    # ------------------------------------------------------------------
    def spawn(self, query: TopKQuery) -> "SMATopK":
        """A fresh instance preserving the construction-time configuration
        (``kmax_factor``, ``grid_cells``) — the default query-only spawn
        would silently reset them, breaking serialized-state round-trips."""
        return SMATopK(
            query,
            kmax_factor=self._kmax // self.query.k,
            grid_cells=self._grid_cells,
        )

    # ------------------------------------------------------------------
    def process_slide(self, event: SlideEvent) -> TopKResult:
        for obj in event.expirations:
            self._grid.remove(obj)
            self._candidates.remove(obj.rank_key)

        # Multi-pass behaviour: expirations that empty the candidate list
        # below k trigger an immediate window re-scan, before the new
        # arrivals are considered — otherwise the candidate list could be
        # refilled with recent low-score objects and lose exactness.
        if len(self._grid) and len(self._candidates) < self.query.k:
            self._rescan()

        if not self._calibrated and event.arrivals:
            self._grid.calibrate([obj.score for obj in event.arrivals], self._grid_cells)
            self._calibrated = True
        for obj in event.arrivals:
            self._grid.insert(obj)
            self._consider(obj)

        if len(self._candidates) < self.query.k:
            self._rescan()

        best = [record.obj for _, record in self._candidates.items_descending()][: self.query.k]
        return TopKResult.from_objects(event.index, event.window_end, best)

    # ------------------------------------------------------------------
    def _consider(self, obj: StreamObject) -> None:
        """Admit a new arrival to the candidate list when it beats its
        minimum; update dominance counters of weaker candidates."""
        if len(self._candidates):
            min_key, _ = self._candidates.min_item()
            admit = obj.rank_key > min_key
        else:
            admit = True
        doomed: List[RankKey] = []
        for key, record in self._candidates.items():
            if key >= obj.rank_key:
                break
            record.dominators += 1
            if record.dominators >= self.query.k:
                doomed.append(key)
        for key in doomed:
            self._candidates.remove(key)
        if not admit:
            return
        self._candidates.insert(obj.rank_key, _CandidateRecord(obj))
        while len(self._candidates) > self._kmax:
            min_key, _ = self._candidates.min_item()
            self._candidates.remove(min_key)

    def _rescan(self) -> None:
        """Rebuild the candidate list with the window's top-``k_max``."""
        self._rescans += 1
        self._candidates.clear()
        for obj in self._grid.collect_top(self._kmax)[: self._kmax]:
            self._candidates.insert(obj.rank_key, _CandidateRecord(obj))

    # ------------------------------------------------------------------
    @property
    def rescan_count(self) -> int:
        """Number of window re-scans performed so far."""
        return self._rescans

    def candidate_count(self) -> int:
        return len(self._candidates)

    def memory_bytes(self) -> int:
        # SMA's grid indexes the whole window; the paper notes this as the
        # reason its memory/candidate numbers are not directly comparable
        # (Appendix E skips SMA for the candidate metric).
        return (
            len(self._candidates) * OBJECT_FOOTPRINT_BYTES
            + len(self._grid) * POINTER_FOOTPRINT_BYTES
            + self._grid.cell_count * POINTER_FOOTPRINT_BYTES
        )
