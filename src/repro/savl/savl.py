"""The baseline S-AVL structure (Section 5.1 of the paper).

S-AVL stores the meaningful objects of a partition in ``k − ρ`` stacks whose
top entries are indexed in rank order:

* objects are scanned in *reverse arrival order*, so every entry of a stack
  arrived no later than the entries below it — within a stack the top entry
  has the highest score and the earliest arrival;
* an object goes on the stack with the largest top below it; one that cannot
  be pushed on any stack is dominated by at least ``k − ρ`` later-arriving
  objects of the same partition, which together with the ``ρ`` global
  dominators makes ``k`` dominators, so it is pruned;
* objects whose rank falls below the global threshold ``F_θ`` (the k-th best
  candidate contributed by later partitions) are pruned outright.

The tops index is an ascending list of rank keys with the stack indices in
lockstep, searched with :mod:`bisect`, for the reason the
:class:`~repro.core.candidates.CandidateSet` docstring gives: contiguous
lists beat pointer-chasing a balanced tree, with the same ordering.  The
chosen top's key is replaced in place — the tops keep their relative order
(Section 5.1) — so a push is one ``O(log k)`` search.  Promotion pops the
list tail and re-inserts the stack's new top by bisection.  Because tops
arrive earliest within their stack, expired entries always surface at stack
tops and can be discarded lazily.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List, Optional, Tuple

from ..core.object import StreamObject
from .meaningful import MeaningfulSet

RankKey = Tuple[float, int]


class SAVL(MeaningfulSet):
    """Stacks + sorted top-key index for the meaningful objects of one partition."""

    def __init__(self, num_stacks: int, global_threshold: Optional[RankKey] = None) -> None:
        if num_stacks <= 0:
            raise ValueError("S-AVL needs at least one stack")
        self._num_stacks = num_stacks
        self._global_threshold = global_threshold
        self._stacks: List[List[StreamObject]] = []
        #: Rank keys of the non-empty stacks' tops in ascending order, with
        #: the owning stack indices kept in lockstep.
        self._keys: List[RankKey] = []
        self._index: List[int] = []
        self._size = 0
        self._pruned = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        objects: Iterable[StreamObject],
        num_stacks: int,
        global_threshold: Optional[RankKey] = None,
        exclude_keys: Optional[set] = None,
    ) -> "SAVL":
        """Build an S-AVL from a partition's objects.

        ``objects`` may be supplied in any order; they are scanned in
        reverse arrival order as the paper requires.  ``exclude_keys``
        (typically the partition's ``P_0^k``) are skipped.
        """
        savl = cls(num_stacks=num_stacks, global_threshold=global_threshold)
        ordered = sorted(objects, key=lambda o: o.t, reverse=True)
        exclude = exclude_keys or set()
        for obj in ordered:
            if obj.rank_key in exclude:
                continue
            savl.push(obj)
        return savl

    @classmethod
    def build_batched(
        cls,
        objects: Iterable[StreamObject],
        batch_size: int,
        num_stacks: int,
        global_threshold: Optional[RankKey] = None,
        exclude_keys: Optional[set] = None,
    ) -> "SAVL":
        """Build an S-AVL exploiting the slide granularity (Appendix C).

        Objects that arrive in the same slide expire in the same slide, so
        within each batch of ``batch_size`` objects only the ``num_stacks``
        best can ever become meaningful: the rest are dominated by
        same-batch objects that stay in the window exactly as long as they
        do.  The construction therefore selects the top ``num_stacks``
        objects per batch (after global pruning) and pushes only those, in
        reverse arrival order.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        savl = cls(num_stacks=num_stacks, global_threshold=global_threshold)
        exclude = exclude_keys or set()
        ordered = sorted(objects, key=lambda o: o.t)
        # Objects with the same arrival-order quotient t // s entered the
        # window in the same slide and will leave it in the same slide,
        # regardless of how the partition is aligned.
        batches: List[List[StreamObject]] = []
        for obj in ordered:
            group = obj.t // batch_size
            if not batches or batches[-1][0].t // batch_size != group:
                batches.append([])
            batches[-1].append(obj)
        for batch in reversed(batches):
            eligible = [obj for obj in batch if obj.rank_key not in exclude]
            eligible.sort(key=lambda o: o.rank_key, reverse=True)
            best = eligible[:num_stacks]
            for obj in sorted(best, key=lambda o: o.t, reverse=True):
                savl.push(obj)
        return savl

    def push(self, obj: StreamObject) -> bool:
        """Insert one object (scanned in reverse arrival order).

        Returns ``False`` when the object is pruned by the global threshold
        or by the local stack-top comparison.
        """
        key = obj.rank_key
        if self._global_threshold is not None and key < self._global_threshold:
            self._pruned += 1
            return False

        keys = self._keys
        pos = bisect_left(keys, key)
        if len(self._stacks) < self._num_stacks:
            keys.insert(pos, key)
            self._index.insert(pos, len(self._stacks))
            self._stacks.append([obj])
        elif pos:
            # The stack with the largest top below the object takes it; the
            # next top ranks at least as high, so the list stays sorted.
            self._stacks[self._index[pos - 1]].append(obj)
            keys[pos - 1] = key
        else:
            self._pruned += 1
            return False
        self._size += 1
        return True

    # ------------------------------------------------------------------
    # MeaningfulSet protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def pop_best(self, watermark_t: int) -> Optional[StreamObject]:
        while self._keys:
            obj = self._discard_top()
            if obj.t >= watermark_t:
                return obj
        return None

    def peek_best(self, watermark_t: int) -> Optional[RankKey]:
        """Rank key of the best live entry without removing it.

        Expired entries encountered at stack tops are discarded on the way,
        which is safe because expired entries can only be stack tops.
        """
        while self._keys:
            if self._stacks[self._index[-1]][-1].t >= watermark_t:
                return self._keys[-1]
            self._discard_top()
        return None

    def prune_expired(self, watermark_t: int) -> None:
        # Expired entries can only be stack tops (tops arrive earliest in
        # their stack): pop them off every stack, then re-index the tops once.
        size = self._size
        for stack in self._stacks:
            while stack and stack[-1].t < watermark_t:
                stack.pop()
                self._size -= 1
        if self._size != size:
            tops = sorted((s[-1].rank_key, i) for i, s in enumerate(self._stacks) if s)
            self._keys = [key for key, _ in tops]
            self._index = [index for _, index in tops]

    def _discard_top(self) -> StreamObject:
        """Pop the best top off its stack and re-index the stack's new top."""
        self._keys.pop()
        stack_index = self._index.pop()
        stack = self._stacks[stack_index]
        obj = stack.pop()
        self._size -= 1
        if stack:
            key = stack[-1].rank_key
            pos = bisect_left(self._keys, key)
            self._keys.insert(pos, key)
            self._index.insert(pos, stack_index)
        return obj

    # ------------------------------------------------------------------
    # Introspection (tests, metrics)
    # ------------------------------------------------------------------
    @property
    def stack_count(self) -> int:
        return len(self._stacks)

    @property
    def pruned_count(self) -> int:
        """Number of objects rejected during construction (statistics)."""
        return self._pruned

    def contents(self) -> List[StreamObject]:
        """All stored objects (any order); used by tests."""
        result: List[StreamObject] = []
        for stack in self._stacks:
            result.extend(stack)
        return result

    def check_invariants(self) -> None:
        """Validate the stack ordering invariants of Section 5.1."""
        for stack in self._stacks:
            for below, above in zip(stack, stack[1:]):
                assert below.rank_key <= above.rank_key, "stack score order violated"
                assert below.t >= above.t, "stack arrival order violated"
        keys = self._keys
        assert all(low < high for low, high in zip(keys, keys[1:])), "top keys not ascending"
        assert sorted(self._index) == [
            index for index, stack in enumerate(self._stacks) if stack
        ], "top index does not cover exactly the non-empty stacks"
        for key, index in zip(keys, self._index):
            assert self._stacks[index][-1].rank_key == key, "top key is not its stack's top"
        assert self._size == sum(len(stack) for stack in self._stacks)
