"""Differential tests: the S-AVL against a linear-scan reference.

``ReferenceSAVL`` is the earlier S-AVL whose tops lived in an AVL tree and
whose push walked the tops from the maximum down to the first one below the
object.  The sorted-key-list S-AVL must make exactly the same choices: the
same stacks, the same pruning, the same promotions.  Both are driven through
the same operations and compared after every step, directly and through the
structures built on top of the S-AVL (``SegmentedSAVL`` and
``AmortizedSAVLBuilder``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.object import StreamObject, top_k
from repro.core.partition import UnitSummary, build_partition
from repro.savl import amortized, segmented
from repro.savl.amortized import AmortizedSAVLBuilder
from repro.savl.meaningful import MeaningfulSet
from repro.savl.savl import SAVL
from repro.savl.segmented import SegmentedSAVL
from repro.structures.avl import AVLTree

RankKey = Tuple[float, int]


class ReferenceSAVL(MeaningfulSet):
    """Stacks whose tops are indexed by an AVL tree, searched linearly."""

    def __init__(self, num_stacks: int, global_threshold: Optional[RankKey] = None) -> None:
        if num_stacks <= 0:
            raise ValueError("S-AVL needs at least one stack")
        self._num_stacks = num_stacks
        self._global_threshold = global_threshold
        self._stacks: List[List[StreamObject]] = []
        self._tops = AVLTree()
        self._size = 0
        self._pruned = 0

    @classmethod
    def build(cls, objects, num_stacks, global_threshold=None, exclude_keys=None):
        savl = cls(num_stacks=num_stacks, global_threshold=global_threshold)
        exclude = exclude_keys or set()
        for obj in sorted(objects, key=lambda o: o.t, reverse=True):
            if obj.rank_key in exclude:
                continue
            savl.push(obj)
        return savl

    @classmethod
    def build_batched(
        cls, objects, batch_size, num_stacks, global_threshold=None, exclude_keys=None
    ):
        savl = cls(num_stacks=num_stacks, global_threshold=global_threshold)
        exclude = exclude_keys or set()
        batches: List[List[StreamObject]] = []
        for obj in sorted(objects, key=lambda o: o.t):
            group = obj.t // batch_size
            if not batches or batches[-1][0].t // batch_size != group:
                batches.append([])
            batches[-1].append(obj)
        for batch in reversed(batches):
            eligible = [obj for obj in batch if obj.rank_key not in exclude]
            eligible.sort(key=lambda o: o.rank_key, reverse=True)
            for obj in sorted(eligible[:num_stacks], key=lambda o: o.t, reverse=True):
                savl.push(obj)
        return savl

    def push(self, obj: StreamObject) -> bool:
        if self._global_threshold is not None and obj.rank_key < self._global_threshold:
            self._pruned += 1
            return False
        if len(self._stacks) < self._num_stacks:
            self._stacks.append([obj])
            self._tops.insert(obj.rank_key, len(self._stacks) - 1)
            self._size += 1
            return True
        target = None
        for top_key, index in self._tops.items_descending():
            if top_key < obj.rank_key:
                target = index
                break
        if target is None:
            self._pruned += 1
            return False
        stack = self._stacks[target]
        self._tops.remove(stack[-1].rank_key)
        stack.append(obj)
        self._tops.insert(obj.rank_key, target)
        self._size += 1
        return True

    def __len__(self) -> int:
        return self._size

    def pop_best(self, watermark_t: int) -> Optional[StreamObject]:
        while self._tops:
            _, index = self._tops.max_item()
            obj = self._discard_top(index)
            if obj.t >= watermark_t:
                return obj
        return None

    def peek_best(self, watermark_t: int) -> Optional[RankKey]:
        while self._tops:
            key, index = self._tops.max_item()
            if self._stacks[index][-1].t >= watermark_t:
                return key
            self._discard_top(index)
        return None

    def prune_expired(self, watermark_t: int) -> None:
        changed = True
        while changed:
            changed = False
            for _, index in list(self._tops.items()):
                if self._stacks[index][-1].t < watermark_t:
                    self._discard_top(index)
                    changed = True

    def _discard_top(self, stack_index: int) -> StreamObject:
        stack = self._stacks[stack_index]
        obj = stack.pop()
        self._tops.remove(obj.rank_key)
        self._size -= 1
        if stack:
            self._tops.insert(stack[-1].rank_key, stack_index)
        return obj

    @property
    def stack_count(self) -> int:
        return len(self._stacks)

    @property
    def pruned_count(self) -> int:
        return self._pruned


# ----------------------------------------------------------------------
# Strategies and comparison helpers
# ----------------------------------------------------------------------
#: Few distinct scores, so many objects tie on score and order by ``t``.
scores_strategy = st.lists(st.integers(min_value=0, max_value=12), max_size=120)
#: Partitions cannot be empty.
partition_scores_strategy = st.lists(
    st.integers(min_value=0, max_value=12), min_size=1, max_size=120
)
#: Mostly few stacks, so stacks grow deep and tops are replaced often.
stacks_strategy = st.one_of(
    st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=64)
)
#: Interleaved operations: a push of ``amount`` objects, or a peek, pop or
#: prune after the watermark advanced by ``amount`` (watermarks never fall).
operations_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(min_value=1, max_value=16)),
        st.tuples(
            st.sampled_from(["peek", "pop", "prune"]), st.integers(min_value=0, max_value=3)
        ),
    ),
    max_size=80,
)


def _objects(scores: Iterable[int]) -> List[StreamObject]:
    return [StreamObject(score=float(score), t=t) for t, score in enumerate(scores)]


def _threshold(objects, data) -> Optional[RankKey]:
    if not objects or not data.draw(st.booleans(), label="use_threshold"):
        return None
    return data.draw(st.sampled_from(objects), label="threshold").rank_key


def _exclude(objects, data) -> Optional[set]:
    if not data.draw(st.booleans(), label="use_exclude"):
        return None
    picked = data.draw(st.sets(st.sampled_from(objects)) if objects else st.just(set()))
    return {obj.rank_key for obj in picked}


def _stacks(savl) -> List[List[RankKey]]:
    return [[obj.rank_key for obj in stack] for stack in savl._stacks]


def assert_same(new: SAVL, reference: ReferenceSAVL) -> None:
    new.check_invariants()
    assert _stacks(new) == _stacks(reference)
    assert new.pruned_count == reference.pruned_count
    assert new.stack_count == reference.stack_count
    assert len(new) == len(reference)


def apply_and_compare(new, reference, kind: str, watermark: int) -> None:
    if kind == "peek":
        assert new.peek_best(watermark) == reference.peek_best(watermark)
    elif kind == "pop":
        assert new.pop_best(watermark) == reference.pop_best(watermark)
    else:
        new.prune_expired(watermark)
        reference.prune_expired(watermark)
    assert_same(new, reference)


def drain_and_compare(new, reference, operations, watermark: int = 0) -> None:
    """Run the peek/pop/prune operations (pushes are skipped), then pop
    everything that is left."""
    for kind, amount in operations:
        if kind != "push":
            watermark += amount
            apply_and_compare(new, reference, kind, watermark)
    while len(reference):
        apply_and_compare(new, reference, "pop", watermark)


# ----------------------------------------------------------------------
# Direct operations
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(scores_strategy, stacks_strategy, operations_strategy, st.data())
def test_interleaved_operations_match_reference(scores, num_stacks, operations, data):
    objects = _objects(scores)
    threshold = _threshold(objects, data)
    new = SAVL(num_stacks=num_stacks, global_threshold=threshold)
    reference = ReferenceSAVL(num_stacks=num_stacks, global_threshold=threshold)
    pending = sorted(objects, key=lambda o: o.t, reverse=True)
    watermark = 0
    for kind, amount in operations:
        if kind == "push":
            batch, pending = pending[:amount], pending[amount:]
            for obj in batch:
                assert new.push(obj) == reference.push(obj)
                assert_same(new, reference)
        else:
            watermark += amount
            apply_and_compare(new, reference, kind, watermark)
    drain_and_compare(new, reference, [], watermark)


@settings(max_examples=150, deadline=None)
@given(scores_strategy, stacks_strategy, operations_strategy, st.data())
def test_build_matches_reference(scores, num_stacks, operations, data):
    objects = _objects(scores)
    threshold = _threshold(objects, data)
    exclude = _exclude(objects, data)
    shuffled = data.draw(st.permutations(objects), label="input_order")
    new = SAVL.build(shuffled, num_stacks, threshold, exclude)
    reference = ReferenceSAVL.build(shuffled, num_stacks, threshold, exclude)
    assert_same(new, reference)
    drain_and_compare(new, reference, operations)


@settings(max_examples=150, deadline=None)
@given(
    scores_strategy,
    st.integers(min_value=1, max_value=20),
    stacks_strategy,
    operations_strategy,
    st.data(),
)
def test_build_batched_matches_reference(scores, batch_size, num_stacks, operations, data):
    objects = _objects(scores)
    threshold = _threshold(objects, data)
    exclude = _exclude(objects, data)
    new = SAVL.build_batched(objects, batch_size, num_stacks, threshold, exclude)
    reference = ReferenceSAVL.build_batched(objects, batch_size, num_stacks, threshold, exclude)
    assert_same(new, reference)
    drain_and_compare(new, reference, operations)


# ----------------------------------------------------------------------
# Structures built on the S-AVL
# ----------------------------------------------------------------------
def _containers(structure: SegmentedSAVL) -> list:
    return [structure._main, *structure._unit_savls]


@settings(max_examples=100, deadline=None)
@given(
    partition_scores_strategy,
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=8),
    stacks_strategy,
    operations_strategy,
    st.data(),
)
def test_segmented_matches_reference(scores, unit_size, k, num_stacks, operations, data):
    objects = _objects(scores)
    units = []
    for start in range(0, len(objects), unit_size):
        chunk = objects[start : start + unit_size]
        is_k_unit = data.draw(st.booleans(), label="is_k_unit")
        units.append(
            UnitSummary(
                start=start,
                end=start + len(chunk),
                is_k_unit=is_k_unit,
                summary=top_k(chunk, k if is_k_unit else 1),
            )
        )
    partition = build_partition(0, objects, k=k, units=units)
    exclude = _exclude(objects, data)
    # A monotonically non-decreasing threshold, shared by both structures.
    thresholds = sorted(
        data.draw(st.lists(st.sampled_from(objects), max_size=len(operations) + 1)),
        key=lambda o: o.rank_key,
    )
    state = {"step": 0}

    def threshold() -> Optional[RankKey]:
        if not thresholds:
            return None
        return thresholds[min(state["step"], len(thresholds) - 1)].rank_key

    new = SegmentedSAVL(partition, num_stacks, threshold, exclude)
    with mock.patch.object(segmented, "SAVL", ReferenceSAVL):
        reference = SegmentedSAVL(partition, num_stacks, threshold, exclude)
    watermark = 0
    for kind, amount in operations:
        state["step"] += 1
        watermark += amount
        if kind == "push":
            # Stands for "expiration reaches further into the partition".
            with mock.patch.object(segmented, "SAVL", ReferenceSAVL):
                reference.advance(watermark)
            new.advance(watermark)
        elif kind == "prune":
            new.prune_expired(watermark)
            reference.prune_expired(watermark)
        else:
            assert new.pop_best(watermark) == reference.pop_best(watermark)
        assert len(new) == len(reference)
        assert new.skipped_units == reference.skipped_units
        assert len(_containers(new)) == len(_containers(reference))
        for container, expected in zip(_containers(new), _containers(reference)):
            assert_same(container, expected)
    while len(reference):
        assert new.pop_best(watermark) == reference.pop_best(watermark)
    assert len(new) == 0


@settings(max_examples=100, deadline=None)
@given(partition_scores_strategy, stacks_strategy, operations_strategy, st.data())
def test_amortized_builder_matches_reference(scores, num_stacks, operations, data):
    objects = _objects(scores)
    partition = build_partition(0, objects, k=1)
    threshold = _threshold(objects, data)
    exclude = _exclude(objects, data)
    new = AmortizedSAVLBuilder(partition, num_stacks, threshold, exclude)
    with mock.patch.object(amortized, "SAVL", ReferenceSAVL):
        reference = AmortizedSAVLBuilder(partition, num_stacks, threshold, exclude)
    for _, amount in operations:
        assert new.step(amount) == reference.step(amount)
        assert_same(new._savl, reference._savl)
    finished = new.finish()
    expected = reference.finish()
    assert_same(finished, expected)
    drain_and_compare(finished, expected, operations)
