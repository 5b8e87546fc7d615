"""The SAP candidate set ``C = ∪ P_i^k`` with merge-and-refine maintenance.

Section 3.1 of the paper (Figure 4) describes how the top-k of a freshly
sealed partition is merged into the candidate set: both lists are scanned in
score order, every existing candidate receives a dominance-counter increment
equal to the number of newly merged objects that rank above it (those
objects arrived later, hence dominate it), and candidates whose counter
reaches ``k`` are removed — they can never become results again.

The class below implements exactly that merge, plus the order-statistic
queries the framework needs: the group dominance number ``P_i.ρ`` and the
global pruning threshold ``F_θ`` used by the S-AVL construction.

The set is backed by a sorted key list with a parallel entry list and a
``dict`` index rather than a balanced tree: membership probes (promotion
from ``M_0``, expiry of the front partition's candidates) are O(1) dict
lookups, and the descending merge walk degenerates to a reversed slice
scan over contiguous lists — much cheaper constants than pointer-chasing
an AVL, with identical ordering semantics.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .object import StreamObject, rank_of

RankKey = Tuple[float, int]

_obj_of = attrgetter("obj")


@dataclass
class CandidateEntry:
    """A candidate object together with its refinement bookkeeping."""

    obj: StreamObject
    partition_id: int
    dominance: int = 0

    @property
    def rank_key(self) -> RankKey:
        return self.obj.rank_key


class CandidateSet:
    """Ordered collection of candidate objects keyed by ``(score, t)``."""

    def __init__(self) -> None:
        #: Keys in ascending rank order, with the entries kept in lockstep.
        self._keys: List[RankKey] = []
        self._entries: List[CandidateEntry] = []
        self._index: Dict[RankKey, CandidateEntry] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, rank_key: RankKey) -> bool:
        return rank_key in self._index

    def get(self, rank_key: RankKey) -> Optional[CandidateEntry]:
        return self._index.get(rank_key)

    # ------------------------------------------------------------------
    def add(self, obj: StreamObject, partition_id: int, dominance: int = 0) -> CandidateEntry:
        """Insert a candidate (used for promotions from the S-AVL)."""
        entry = CandidateEntry(obj=obj, partition_id=partition_id, dominance=dominance)
        key = obj.rank_key
        if key in self._index:
            position = bisect_left(self._keys, key)
            self._entries[position] = entry
        else:
            position = bisect_left(self._keys, key)
            self._keys.insert(position, key)
            self._entries.insert(position, entry)
        self._index[key] = entry
        return entry

    def remove(self, rank_key: RankKey) -> Optional[CandidateEntry]:
        """Remove and return the entry with this key, if present."""
        entry = self._index.pop(rank_key, None)
        if entry is None:
            return None
        position = bisect_left(self._keys, rank_key)
        del self._keys[position]
        del self._entries[position]
        return entry

    # ------------------------------------------------------------------
    def merge_partition_topk(
        self, new_objects: Sequence[StreamObject], partition_id: int, k: int
    ) -> List[CandidateEntry]:
        """Merge a sealed partition's ``P_i^k`` into the candidate set.

        ``new_objects`` are the partition's top-k.  Every existing candidate
        receives a dominance increment equal to the number of new objects
        ranking above it; entries reaching ``k`` dominators are removed and
        returned so the framework can update its per-partition accounting.
        Finally the new objects are inserted with a dominance count of zero
        (nothing newer exists yet).
        """
        removed: List[CandidateEntry] = []
        if not new_objects:
            return removed
        keys = self._keys
        entries = self._entries
        index = self._index
        new_keys = sorted(map(rank_of, new_objects))
        count = len(new_keys)
        # Walk existing candidates best-first, starting below the best new
        # key (those above it gain nothing); a candidate gains the count of
        # new keys above it, all of them once it is below the lowest.
        lower = bisect_left(keys, new_keys[0])
        seen = 0
        for position in range(bisect_right(keys, new_keys[-1]) - 1, lower - 1, -1):
            key = keys[position]
            while new_keys[-1 - seen] > key:
                seen += 1
            entry = entries[position]
            entry.dominance += seen
            if entry.dominance >= k:
                removed.append(entry)
        for entry in reversed(entries[:lower]):
            entry.dominance += count
            if entry.dominance >= k:
                removed.append(entry)
        for entry in removed:
            key = rank_of(entry.obj)
            del index[key]
            del keys[bisect_left(keys, key)]
        # Insert the new objects: rank keys are unique, so the keys sort
        # by themselves and the entries are read back through the index.
        for obj in new_objects:
            index[rank_of(obj)] = CandidateEntry(obj, partition_id)
        keys += new_keys
        keys.sort()
        self._entries = list(map(index.__getitem__, keys))
        return removed

    # ------------------------------------------------------------------
    # Queries used by the SAP framework
    # ------------------------------------------------------------------
    def keys_of(self, partition_id: int) -> List[RankKey]:
        """Rank keys of the candidates owned by ``partition_id``, ascending."""
        return [
            key
            for key, entry in zip(self._keys, self._entries)
            if entry.partition_id == partition_id
        ]

    def top_entries(self, count: int) -> List[CandidateEntry]:
        """The ``count`` best candidates, best first."""
        if count <= 0:
            return []
        return self._entries[-count:][::-1]

    def top_objects(self, count: int) -> List[StreamObject]:
        """The objects of the ``count`` best candidates, in ascending rank
        order (the order the answer merge consumes)."""
        if count <= 0:
            return []
        return list(map(_obj_of, self._entries[-count:]))

    def top_scores(self, count: int) -> List[float]:
        """Scores of the best ``count`` candidates (for the WRT evaluation)."""
        return [entry.obj.score for entry in self.top_entries(count)]

    def group_dominance(self, kth_key: RankKey, partition_id: int, k: int) -> int:
        """Group dominance number ``P_i.ρ`` (Definition 1 of the paper).

        Counts candidates ranking above ``kth_key`` that belong to a
        different partition.  The scan stops early once ``k`` dominators are
        found because the framework never needs a larger value.
        """
        return self.group_dominance_excluding(kth_key, {partition_id}, k)

    def group_dominance_excluding(
        self, kth_key: RankKey, exclude_partition_ids: Iterable[int], k: int
    ) -> int:
        """Group dominance number counting only candidates owned by
        partitions outside ``exclude_partition_ids``.

        The amortized proactive formation of the S-AVL needs this variant:
        when ``M_1`` is prepared while ``P_0`` is still expiring, candidates
        of both ``P_0`` and ``P_1`` must be ignored because ``P_0`` leaves
        the window before ``P_1`` does.
        """
        excluded = set(exclude_partition_ids)
        start = bisect_right(self._keys, kth_key)
        count = 0
        for position in range(len(self._entries) - 1, start - 1, -1):
            if self._entries[position].partition_id not in excluded:
                count += 1
                if count >= k:
                    break
        return count

    def global_threshold(self, exclude_partition_id: int, k: int) -> Optional[RankKey]:
        """``F_θ``: rank key of the k-th best candidate outside a partition.

        Returns ``None`` when fewer than ``k`` such candidates exist (no
        global pruning possible).
        """
        return self.global_threshold_excluding({exclude_partition_id}, k)

    def global_threshold_excluding(
        self, exclude_partition_ids: Iterable[int], k: int
    ) -> Optional[RankKey]:
        """``F_θ`` computed while ignoring several partitions (see
        :meth:`group_dominance_excluding` for when this is needed)."""
        excluded = set(exclude_partition_ids)
        count = 0
        for position in range(len(self._entries) - 1, -1, -1):
            if self._entries[position].partition_id in excluded:
                continue
            count += 1
            if count == k:
                return self._keys[position]
        return None
