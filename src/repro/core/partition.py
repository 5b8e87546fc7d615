"""Partitions (sub-windows) of the SAP framework.

A partition ``P_i`` is a contiguous run of stream objects.  The framework
keeps, for every sealed partition, its full object list (needed to form the
meaningful object set when the partition reaches the front of the window),
its local top-k ``P_i^k``, and — when the partition was produced by the
enhanced dynamic partitioner — the per-unit summaries ``L_i`` used by the
segmentation-based S-AVL construction (UBSA).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

from .columnar import topk_objects
from .object import StreamObject, rank_of

RankKey = Tuple[float, int]

_t_of = attrgetter("t")


@dataclass
class UnitSummary:
    """Summary ``L_i[v]`` of one unit of a partition (Section 4.3).

    ``start`` / ``end`` delimit the unit inside the partition's object list
    (``end`` exclusive).  For a k-unit the summary holds the unit's true
    top-k objects ``U_v^k``; for a non-k-unit it holds only the single
    highest-scored object.
    """

    start: int
    end: int
    is_k_unit: bool
    summary: List[StreamObject]

    @property
    def size(self) -> int:
        return self.end - self.start

    @property
    def max_key(self) -> RankKey:
        return max(obj.rank_key for obj in self.summary)

    @property
    def min_summary_key(self) -> RankKey:
        return min(obj.rank_key for obj in self.summary)


@dataclass
class PartitionSpec:
    """Decision returned by a partitioner: seal these pending objects as a
    new partition, optionally with unit metadata for UBSA."""

    objects: List[StreamObject]
    units: Optional[List[UnitSummary]] = None
    #: The objects' top-k (best first) when the partitioner already has it.
    topk: Optional[List[StreamObject]] = None

    @property
    def size(self) -> int:
        return len(self.objects)


@dataclass
class Partition:
    """A sealed partition ``P_i`` of the query window."""

    partition_id: int
    objects: List[StreamObject]
    k: int
    units: Optional[List[UnitSummary]] = None
    #: How many of ``objects`` (a prefix) have already expired.
    expired_prefix: int = 0
    #: Group dominance number, computed when the partition becomes the front.
    rho: Optional[int] = None
    #: The local top-k ``P_i^k`` (best first), computed at seal time.
    topk: List[StreamObject] = field(default_factory=list)
    #: Lazy cache over ``topk``; rebuilt after seal/insert via
    #: :meth:`invalidate_caches`.
    _topk_keys: Optional[List[RankKey]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.objects:
            raise ValueError("a partition cannot be empty")
        if not self.topk:
            self.topk = topk_objects(self.objects, self.k)
        self.invalidate_caches()

    def invalidate_caches(self) -> None:
        """Drop the derived-key cache (call after replacing ``topk``)."""
        self._topk_keys = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.objects)

    @property
    def live_count(self) -> int:
        return len(self.objects) - self.expired_prefix

    @property
    def fully_expired(self) -> bool:
        return self.expired_prefix >= len(self.objects)

    @property
    def kth_key(self) -> RankKey:
        """Rank key of the k-th best object of the partition (its weakest
        candidate)."""
        return self.topk[-1].rank_key

    def topk_keys(self) -> List[RankKey]:
        if self._topk_keys is None:
            self._topk_keys = list(map(rank_of, self.topk))
        return self._topk_keys

    def expire_batch(self, objs: Sequence[StreamObject]) -> None:
        """Record the expiration of a run of oldest live objects at once.

        Each object is checked against the partition's next live object;
        the first mismatch is reported by its ``t``.  The window expires
        the very objects the partition sealed, so list equality (which
        tries identity first) settles the check; only on a mismatch are
        the arrival orders compared."""
        start = self.expired_prefix
        end = start + len(objs)
        if end > len(self.objects):
            raise ValueError(
                f"expiring {len(objs)} objects but only "
                f"{len(self.objects) - start} remain live"
            )
        expected = self.objects[start:end]
        if expected != list(objs) and list(map(_t_of, expected)) != list(map(_t_of, objs)):
            for have, got in zip(expected, objs):
                if have.t != got.t:
                    raise ValueError(
                        f"expiration order violated: expected t={have.t}, got t={got.t}"
                    )
        self.expired_prefix = end


def build_partition(
    partition_id: int,
    objects: Sequence[StreamObject],
    k: int,
    units: Optional[List[UnitSummary]] = None,
    topk: Optional[List[StreamObject]] = None,
) -> Partition:
    """Create a sealed partition with ``P_i^k`` = ``topk`` (best first), or
    derived by a direct scan when no top-k is supplied.

    Unit summaries are kept for the UBSA construction only.  They cannot
    stand in for the scan: a non-k-unit keeps just its top-1 object, yet it
    can hold many of the partition's top-k objects.
    """
    return Partition(
        partition_id=partition_id,
        objects=list(objects),
        k=k,
        units=units,
        topk=topk or [],
    )
