"""Score-domain grid index used by the SMA baseline.

SMA (reference [17] of the paper) indexes the window objects in a grid so
that a window re-scan only needs to visit the highest-score cells until it
has gathered enough objects to rebuild its candidate set.  The original
algorithm grids the attribute space and uses the preference-function
coefficients to order cells; because this library computes scores up
front, a one-dimensional grid over the score domain is the equivalent
structure, substituted here for the original attribute-space grid.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..core.object import StreamObject


class ScoreGrid:
    """Sparse one-dimensional grid over the score domain.

    Cells are dictionaries keyed by arrival order, so insertion and removal
    are O(1); a re-scan walks cells from the highest score downwards.
    """

    def __init__(self, cell_width: Optional[float] = None) -> None:
        self._cell_width = cell_width
        self._cells: Dict[int, Dict[int, StreamObject]] = {}
        self._count = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def cell_count(self) -> int:
        return len(self._cells)

    def _cell_index(self, score: float) -> int:
        if not self._cell_width:
            return 0
        return int(score // self._cell_width)

    def calibrate(self, scores: List[float], cells: int = 64) -> None:
        """Pick a cell width from an initial sample of scores."""
        if not scores or self._cell_width:
            return
        low, high = min(scores), max(scores)
        spread = high - low
        if spread <= 0:
            spread = abs(high) if high else 1.0
        self._cell_width = spread / float(cells)

    # ------------------------------------------------------------------
    def insert(self, obj: StreamObject) -> None:
        cell = self._cells.setdefault(self._cell_index(obj.score), {})
        cell[obj.t] = obj
        self._count += 1

    def remove(self, obj: StreamObject) -> bool:
        index = self._cell_index(obj.score)
        cell = self._cells.get(index)
        if cell is None or obj.t not in cell:
            return False
        del cell[obj.t]
        if not cell:
            del self._cells[index]
        self._count -= 1
        return True

    # ------------------------------------------------------------------
    def scan_from_top(self) -> Iterator[List[StreamObject]]:
        """Yield the contents of each cell, highest-score cells first."""
        for index in sorted(self._cells, reverse=True):
            yield list(self._cells[index].values())

    def collect_top(self, count: int) -> List[StreamObject]:
        """At least ``count`` highest-scored objects (fewer if the grid is
        smaller), gathered by visiting cells from the top."""
        gathered: List[StreamObject] = []
        for cell_objects in self.scan_from_top():
            gathered.extend(cell_objects)
            if len(gathered) >= count:
                break
        gathered.sort(key=lambda o: o.rank_key, reverse=True)
        return gathered
