"""Partitioner interface and the context object handed to partitioners.

A partitioner receives the arrivals of every slide, accumulates them in its
own pending buffer, and decides when to seal a partition.  The decision may
be retroactive — the dynamic partitioner seals the pending buffer *without*
the unit that has just completed — which is why the partitioner owns the
buffer and returns the sealed objects themselves.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Sequence

from ..core.columnar import topk_objects
from ..core.object import StreamObject
from ..core.partition import PartitionSpec
from ..core.query import TopKQuery


class PartitionContext:
    """Read-only view of the framework state partitioners may consult.

    The dynamic partitioner needs the top scores of the current candidate
    set (the reference interval ``I_ηk`` of Equation 2); the framework
    provides them through a callback so the partitioner never touches the
    candidate structures directly.
    """

    def __init__(self, top_candidate_scores: Callable[[int], List[float]]) -> None:
        self._top_candidate_scores = top_candidate_scores

    def top_candidate_scores(self, count: int) -> List[float]:
        """Scores of the best ``count`` candidates currently maintained."""
        return self._top_candidate_scores(count)


class SealStats:
    """Counters describing the sealing behaviour of one partitioner.

    Surfaced through :meth:`Partitioner.seal_stats` so tests and benchmarks
    can observe partition sizing without touching the partitioner's
    internals: how many partitions were sealed, how many
    objects they covered, how many seals were forced by the expiration
    safety valve, and the size of the most recent seal.
    """

    __slots__ = ("partitions_sealed", "objects_sealed", "forced_seals", "last_partition_size")

    def __init__(self) -> None:
        self.partitions_sealed = 0
        self.objects_sealed = 0
        self.forced_seals = 0
        self.last_partition_size = 0

    def record(self, size: int, forced: bool = False) -> None:
        self.partitions_sealed += 1
        self.objects_sealed += size
        self.last_partition_size = size
        if forced:
            self.forced_seals += 1

    @property
    def average_partition_size(self) -> float:
        if not self.partitions_sealed:
            return 0.0
        return self.objects_sealed / self.partitions_sealed

    def as_dict(self) -> dict:
        return {
            "partitions_sealed": self.partitions_sealed,
            "objects_sealed": self.objects_sealed,
            "forced_seals": self.forced_seals,
            "last_partition_size": self.last_partition_size,
            "average_partition_size": self.average_partition_size,
        }


class Partitioner(ABC):
    """Base class of the equal, dynamic, and enhanced dynamic partitioners."""

    name: str = "partitioner"

    def __init__(self) -> None:
        self.query: Optional[TopKQuery] = None
        self.context: Optional[PartitionContext] = None
        self.seals = SealStats()

    # ------------------------------------------------------------------
    def bind(self, query: TopKQuery, context: PartitionContext) -> None:
        """Attach the partitioner to a query; called once by the framework."""
        self.query = query
        self.context = context
        self._configure()

    def _configure(self) -> None:
        """Hook for subclasses to derive per-query constants."""

    # ------------------------------------------------------------------
    # Multi-query sharing
    # ------------------------------------------------------------------
    def plan_key(self) -> tuple:
        """Configuration key deciding which SAP queries may share one core.

        Two SAP instances whose partitioners return equal keys seal
        identical partition runs for the same arrivals (up to the ``k``
        they are bound to), so a query group can run one SAP core for all
        of them.  The key must be derived from the *requested* configuration,
        not from quantities resolved against the bound query — those
        depend on ``k``, which sharing deliberately varies.
        """
        return (type(self).__name__,)

    def spawn(self) -> "Partitioner":
        """A fresh, unbound partitioner with this instance's configuration.

        Used by the shared multi-query plane to build the partitioner of a
        plan's SAP core: the clone is bound to the plan's ``k_max`` query
        instead of any individual member's.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support shared plans"
        )

    # ------------------------------------------------------------------
    @abstractmethod
    def observe(self, batch: Sequence[StreamObject]) -> List[PartitionSpec]:
        """Feed one slide of arrivals; return the partitions sealed by it."""

    @abstractmethod
    def pending_objects(self) -> List[StreamObject]:
        """Objects accumulated but not yet sealed (oldest first)."""

    def pending_count(self) -> int:
        return len(self.pending_objects())

    def pending_topk(self, k: int) -> List[StreamObject]:
        """The ``k`` best pending objects, best first (``k`` is at most the
        bound query's ``k``)."""
        return topk_objects(self.pending_objects(), k)

    def force_seal(self) -> Optional[PartitionSpec]:
        """Seal everything pending immediately.

        Used by the framework as a safety valve when expirations would
        otherwise reach into the unsealed buffer (only possible for extreme
        parameter choices such as a single partition per window).
        """
        pending = self.pending_objects()
        if not pending:
            return None
        spec = PartitionSpec(objects=list(pending))
        self._drop_pending()
        self.seals.record(len(spec.objects), forced=True)
        return spec

    def seal_stats(self) -> dict:
        """Introspection record of this partitioner's sealing behaviour."""
        stats = self.seals.as_dict()
        stats["name"] = self.name
        stats["pending"] = self.pending_count()
        return stats

    @abstractmethod
    def _drop_pending(self) -> None:
        """Clear the pending buffer after a forced seal."""
