"""Dynamic partitioning (Section 4.2 of the paper).

Objects are consumed unit by unit (a unit holds ``l_min = √(n·max(s,k))``
objects, the equal-partition size).  Whenever a unit completes, the
partitioner asks whether the candidate partition extended by the new unit is
still "proper": the top-k scores of the extended partition are compared,
with the Mann-Whitney rank-sum test, against the top-``ηk`` scores of the
reference interval ``I`` (the rest of the current window, approximated by
the current candidate set).  If the partition's top-k tends to be larger
(the evaluation function ``F`` of Equation 2 is positive) the partition is
sealed *without* the new unit; the unit becomes the seed of the next
partition.  A partition is also sealed when it would exceed ``l_max``,
the solution of ``(n − l_max)/l_max = η``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.columnar import topk_objects
from ..core.object import StreamObject
from ..core.partition import PartitionSpec, UnitSummary
from ..stats.mannwhitney import rank_sum_test
from ..stats.solvers import eta_for_k, eta_k
from .base import Partitioner


class _PendingUnit:
    """One completed unit of the partition currently under construction."""

    __slots__ = ("objects", "topk", "above_tau", "is_k_unit")

    def __init__(self, objects: List[StreamObject], topk: List[StreamObject]) -> None:
        self.objects = objects
        self.topk = topk
        #: Number of objects above the TBUI threshold when the unit closed
        #: (only used by the enhanced partitioner subclass).
        self.above_tau = 0
        #: Provisional TBUI label; every unit starts as a k-unit and may be
        #: demoted by the unit that follows it (Theorem 2).
        self.is_k_unit = True


class DynamicPartitioner(Partitioner):
    """WRT-driven partition sizing."""

    name = "dynamic"

    def __init__(self, alpha: float = 0.05) -> None:
        super().__init__()
        self._alpha = alpha
        self._unit_size = 0
        self._l_max = 0
        self._eta_k = 0
        self._units: List[_PendingUnit] = []
        self._current: List[StreamObject] = []

    # ------------------------------------------------------------------
    def _configure(self) -> None:
        assert self.query is not None
        query = self.query
        self._unit_size = query.l_min
        self._eta_k = eta_k(query.k)
        self._l_max = query.l_max(eta_for_k(query.k))
        self._units = []
        self._current = []

    # ------------------------------------------------------------------
    def plan_key(self) -> tuple:
        # Covers EnhancedDynamicPartitioner too: the subclass adds TBUI
        # bookkeeping but no extra configuration.
        return (type(self).__name__, self._alpha)

    def spawn(self) -> "DynamicPartitioner":
        return type(self)(alpha=self._alpha)

    @property
    def unit_size(self) -> int:
        return self._unit_size

    @property
    def l_max(self) -> int:
        return self._l_max

    @property
    def alpha(self) -> float:
        return self._alpha

    # ------------------------------------------------------------------
    def observe(self, batch: Sequence[StreamObject]) -> List[PartitionSpec]:
        specs: List[PartitionSpec] = []
        position, total = 0, len(batch)
        # Consume the batch in slices that end at unit boundaries.
        while position < total:
            end = min(position + self._unit_size - len(self._current), total)
            piece = batch[position:end]
            self._observe_slice(piece)
            self._current.extend(piece)
            position = end
            if len(self._current) >= self._unit_size:
                spec = self._complete_unit()
                if spec is not None:
                    specs.append(spec)
        return specs

    def _observe_slice(self, objects: Sequence[StreamObject]) -> None:
        """Hook for the enhanced partitioner's TBUI bookkeeping over the
        objects joining the current unit."""

    # ------------------------------------------------------------------
    def _complete_unit(self) -> Optional[PartitionSpec]:
        assert self.query is not None
        unit_objects = self._current
        self._current = []
        unit = _PendingUnit(
            objects=unit_objects, topk=topk_objects(unit_objects, self.query.k)
        )
        self._on_unit_complete(unit)

        if not self._units:
            self._units = [unit]
            return None

        if self._partition_is_proper(unit):
            self._units.append(unit)
            return None

        spec = self._seal_units(self._units)
        self._units = [unit]
        self._on_partition_start(unit)
        return spec

    def _partition_is_proper(self, new_unit: _PendingUnit) -> bool:
        """Decide whether the pending partition may absorb the new unit."""
        assert self.query is not None and self.context is not None
        merged_size = sum(len(unit.objects) for unit in self._units) + len(new_unit.objects)
        if merged_size > self._l_max:
            return False

        reference = self.context.top_candidate_scores(self._eta_k)
        if len(reference) < max(self.query.k, 2):
            # Not enough history to compare against: keep growing, the size
            # cap above still bounds the partition.
            return True

        candidate_pool = [obj for unit in self._units for obj in unit.topk]
        candidate_pool.extend(new_unit.topk)
        sample1 = [obj.score for obj in topk_objects(candidate_pool, self.query.k)]
        outcome = rank_sum_test(sample1, reference, alpha=self._alpha)
        return not outcome.first_is_larger

    # ------------------------------------------------------------------
    # Hooks overridden by the enhanced partitioner
    # ------------------------------------------------------------------
    def _on_unit_complete(self, unit: _PendingUnit) -> None:
        """Called every time a unit fills up."""

    def _on_partition_start(self, seed_unit: _PendingUnit) -> None:
        """Called when a new partition is started from ``seed_unit``."""

    def _seal_units(self, units: List[_PendingUnit]) -> PartitionSpec:
        assert self.query is not None
        objects = [obj for unit in units for obj in unit.objects]
        self.seals.record(len(objects))
        # top_k(A ∪ B) == top_k(top_k(A) ∪ top_k(B)): the units' top-k
        # stand in for a scan of the sealed objects.
        topk = topk_objects([obj for unit in units for obj in unit.topk], self.query.k)
        return PartitionSpec(
            objects=objects, units=self._unit_summaries(units), topk=topk
        )

    def _unit_summaries(self, units: List[_PendingUnit]) -> Optional[List[UnitSummary]]:
        """The plain dynamic partitioner attaches no unit metadata."""
        return None

    # ------------------------------------------------------------------
    def pending_objects(self) -> List[StreamObject]:
        pending = [obj for unit in self._units for obj in unit.objects]
        pending.extend(self._current)
        return pending

    def pending_topk(self, k: int) -> List[StreamObject]:
        pool = [obj for unit in self._units for obj in unit.topk]
        pool.extend(self._current)
        return topk_objects(pool, k)

    def _drop_pending(self) -> None:
        self._units = []
        self._current = []
