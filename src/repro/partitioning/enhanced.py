"""Enhanced dynamic partitioning (Section 4.3 of the paper).

The enhanced partitioner sizes its partitions exactly like the dynamic
partitioner (Mann-Whitney rank-sum evaluation per completed unit) but
additionally runs TBUI over the arriving objects to classify every unit as
a k-unit or a non-k-unit and to record the per-unit summaries ``L_i``:

* a k-unit's summary holds the unit's true top-k objects ``U_v^k``;
* a non-k-unit's summary holds only its single highest-scored object.

The summaries are attached to every sealed partition, enabling the
segmentation-based S-AVL construction (UBSA, Section 5.2) to bound the size
of ``M_0`` and to skip scanning units that provably contain no k-skyband
object.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.object import StreamObject, top_k
from ..core.partition import UnitSummary
from .dynamic import DynamicPartitioner, _PendingUnit
from .tbui import TBUIState


class EnhancedDynamicPartitioner(DynamicPartitioner):
    """Dynamic partitioning + TBUI unit classification."""

    name = "enhanced-dynamic"

    def __init__(self, alpha: float = 0.05) -> None:
        super().__init__(alpha=alpha)
        self._tbui: Optional[TBUIState] = None
        self._previous_unit: Optional[_PendingUnit] = None

    # ------------------------------------------------------------------
    def _configure(self) -> None:
        super()._configure()
        assert self.query is not None
        self._tbui = TBUIState(self.query.k)
        self._previous_unit = None

    # ------------------------------------------------------------------
    # Hooks into the dynamic partitioner
    # ------------------------------------------------------------------
    def _observe_slice(self, objects: Sequence[StreamObject]) -> None:
        assert self._tbui is not None
        observe = self._tbui.observe
        for obj in objects:
            observe(obj.score)

    def _on_unit_complete(self, unit: _PendingUnit) -> None:
        assert self._tbui is not None
        unit.above_tau = self._tbui.complete_unit()
        previous = self._previous_unit
        if (
            previous is not None
            and unit.above_tau >= self._tbui.k
            and previous.above_tau >= self._tbui.k
        ):
            # Theorem 2: when two adjacent units both contribute at least k
            # objects above the (unchanged) threshold, the earlier one
            # cannot be a k-unit.  Units that triggered a threshold
            # re-initialisation (above_tau < k) keep their k-unit label, as
            # in the paper's downtrend discussion.
            previous.is_k_unit = False
        self._previous_unit = unit

    def _on_partition_start(self, seed_unit: _PendingUnit) -> None:
        # TBUI state is continuous over the stream: the threshold keeps
        # tracking the recent score level across partition boundaries, and
        # the seed unit's label was already decided when it completed.
        self._previous_unit = seed_unit

    # ------------------------------------------------------------------
    def _unit_summaries(self, units: List[_PendingUnit]) -> Optional[List[UnitSummary]]:
        summaries: List[UnitSummary] = []
        offset = 0
        for unit in units:
            end = offset + len(unit.objects)
            if unit.is_k_unit:
                summary = list(unit.topk)
            else:
                # Non-k-units only keep their single best object; the unit's
                # top-k is already computed, and its head is that object.
                summary = [unit.topk[0]] if unit.topk else top_k(unit.objects, 1)
            summaries.append(
                UnitSummary(
                    start=offset,
                    end=end,
                    is_k_unit=unit.is_k_unit,
                    summary=summary,
                )
            )
            offset = end
        return summaries
