"""A from-scratch, order-statistic augmented AVL tree.

The paper uses balanced search trees for each partition's ``P_i^k``
(Section 3.1), the S-AVL stack tops (Section 5.1) and the candidate sets.
Here the tree serves the baselines and the dominance statistics; SAP's
partitions, candidate set and S-AVL tops are sorted lists with the same
ordering semantics and cheaper constants.

Keys may be any mutually comparable values; the library conventionally uses
``(score, arrival_order)`` tuples so that the tree realises the global total
order defined in :mod:`repro.core.object`.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple


class _Node:
    __slots__ = ("key", "value", "left", "right", "height", "size")

    def __init__(self, key: Any, value: Any) -> None:
        self.key = key
        self.value = value
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.height = 1
        self.size = 1


def _height(node: Optional[_Node]) -> int:
    return node.height if node is not None else 0


def _size(node: Optional[_Node]) -> int:
    return node.size if node is not None else 0


def _update(node: _Node) -> None:
    node.height = 1 + max(_height(node.left), _height(node.right))
    node.size = 1 + _size(node.left) + _size(node.right)


def _balance_factor(node: _Node) -> int:
    return _height(node.left) - _height(node.right)


def _rotate_right(node: _Node) -> _Node:
    pivot = node.left
    assert pivot is not None
    node.left = pivot.right
    pivot.right = node
    _update(node)
    _update(pivot)
    return pivot


def _rotate_left(node: _Node) -> _Node:
    pivot = node.right
    assert pivot is not None
    node.right = pivot.left
    pivot.left = node
    _update(node)
    _update(pivot)
    return pivot


def _rebalance(node: _Node) -> _Node:
    _update(node)
    balance = _balance_factor(node)
    if balance > 1:
        assert node.left is not None
        if _balance_factor(node.left) < 0:
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if balance < -1:
        assert node.right is not None
        if _balance_factor(node.right) > 0:
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


class AVLTree:
    """Order-statistic AVL tree mapping unique keys to values.

    Supported operations (all ``O(log n)`` unless noted):

    * ``insert`` / ``remove`` / ``get`` / ``__contains__``
    * ``min_item`` / ``max_item`` / ``pop_min`` / ``pop_max``
    * ``count_greater(key)`` / ``count_less(key)`` — order statistics
    * ``kth_largest(k)``
    * ascending / descending iteration (``O(n)``)
    """

    def __init__(self) -> None:
        self._root: Optional[_Node] = None

    # ------------------------------------------------------------------
    # Size and membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return _size(self._root)

    def __bool__(self) -> bool:
        return self._root is not None

    def __contains__(self, key: Any) -> bool:
        node = self._root
        while node is not None:
            if key == node.key:
                return True
            node = node.left if key < node.key else node.right
        return False

    def get(self, key: Any, default: Any = None) -> Any:
        node = self._root
        while node is not None:
            if key == node.key:
                return node.value
            node = node.left if key < node.key else node.right
        return default

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any = None) -> None:
        """Insert ``key`` (replacing the stored value if it already exists)."""
        self._root = self._insert(self._root, key, value)

    def _insert(self, node: Optional[_Node], key: Any, value: Any) -> _Node:
        if node is None:
            return _Node(key, value)
        if key == node.key:
            node.value = value
            return node
        if key < node.key:
            node.left = self._insert(node.left, key, value)
        else:
            node.right = self._insert(node.right, key, value)
        return _rebalance(node)

    def remove(self, key: Any) -> bool:
        """Remove ``key``; return True when it was present."""
        self._root, removed = self._remove(self._root, key)
        return removed

    def _remove(self, node: Optional[_Node], key: Any) -> Tuple[Optional[_Node], bool]:
        if node is None:
            return None, False
        if key < node.key:
            node.left, removed = self._remove(node.left, key)
        elif key > node.key:
            node.right, removed = self._remove(node.right, key)
        else:
            removed = True
            if node.left is None:
                return node.right, True
            if node.right is None:
                return node.left, True
            successor = node.right
            while successor.left is not None:
                successor = successor.left
            node.key, node.value = successor.key, successor.value
            node.right, _ = self._remove(node.right, successor.key)
        return _rebalance(node), removed

    def clear(self) -> None:
        self._root = None

    # ------------------------------------------------------------------
    # Extremes
    # ------------------------------------------------------------------
    def min_item(self) -> Tuple[Any, Any]:
        node = self._require_root()
        while node.left is not None:
            node = node.left
        return node.key, node.value

    def max_item(self) -> Tuple[Any, Any]:
        node = self._require_root()
        while node.right is not None:
            node = node.right
        return node.key, node.value

    def pop_min(self) -> Tuple[Any, Any]:
        key, value = self.min_item()
        self.remove(key)
        return key, value

    def pop_max(self) -> Tuple[Any, Any]:
        key, value = self.max_item()
        self.remove(key)
        return key, value

    def _require_root(self) -> _Node:
        if self._root is None:
            raise KeyError("tree is empty")
        return self._root

    # ------------------------------------------------------------------
    # Order statistics
    # ------------------------------------------------------------------
    def count_greater(self, key: Any) -> int:
        """Number of stored keys strictly greater than ``key``."""
        count = 0
        node = self._root
        while node is not None:
            if key < node.key:
                count += 1 + _size(node.right)
                node = node.left
            else:
                node = node.right
        return count

    def count_less(self, key: Any) -> int:
        """Number of stored keys strictly less than ``key``."""
        count = 0
        node = self._root
        while node is not None:
            if key > node.key:
                count += 1 + _size(node.left)
                node = node.right
            else:
                node = node.left
        return count

    def kth_largest(self, k: int) -> Tuple[Any, Any]:
        """Return the k-th largest (1-based) key/value pair."""
        if k <= 0 or k > len(self):
            raise KeyError(f"k={k} out of range for tree of size {len(self)}")
        node = self._root
        while node is not None:
            right = _size(node.right)
            if k == right + 1:
                return node.key, node.value
            if k <= right:
                node = node.right
            else:
                k -= right + 1
                node = node.left
        raise KeyError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    # An explicit stack instead of recursive generators: ``yield from``
    # chains cost O(depth) per yielded item and these walks sit on the
    # per-slide hot path of every algorithm (candidate scans, top-k reads).
    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Ascending-key iteration."""
        stack: List[_Node] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def items_descending(self) -> Iterator[Tuple[Any, Any]]:
        """Descending-key iteration."""
        stack: List[_Node] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.right
            node = stack.pop()
            yield node.key, node.value
            node = node.left

    def keys(self) -> List[Any]:
        return [key for key, _ in self.items()]

    def values(self) -> List[Any]:
        return [value for _, value in self.items()]

    def largest(self, count: int) -> List[Tuple[Any, Any]]:
        """The ``count`` largest items, best (largest key) first."""
        result: List[Tuple[Any, Any]] = []
        for item in self.items_descending():
            if len(result) >= count:
                break
            result.append(item)
        return result

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    # State capture pickles respawned algorithms, whose trees are still
    # empty; a populated tree is pickled only when a caller pickles it.
    # The wire form is the sorted item list, not the node graph: it is
    # independent of the incidental tree topology (two trees holding the
    # same mapping serialize identically), far more compact than pickling
    # linked ``_Node`` objects, and rebuilding produces a perfectly
    # balanced tree.
    def __getstate__(self) -> List[Tuple[Any, Any]]:
        return list(self.items())

    def __setstate__(self, items: List[Tuple[Any, Any]]) -> None:
        self._root = self._build_balanced(items, 0, len(items))

    @staticmethod
    def _build_balanced(
        items: List[Tuple[Any, Any]], low: int, high: int
    ) -> Optional[_Node]:
        """Perfectly balanced subtree over ``items[low:high]`` (sorted)."""
        if low >= high:
            return None
        mid = (low + high) // 2
        node = _Node(*items[mid])
        node.left = AVLTree._build_balanced(items, low, mid)
        node.right = AVLTree._build_balanced(items, mid + 1, high)
        _update(node)
        return node

    # ------------------------------------------------------------------
    # Invariant checking (used by the test-suite)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError when AVL/BST/size invariants are violated."""
        self._check(self._root, None, None)

    def _check(self, node: Optional[_Node], low: Any, high: Any) -> int:
        if node is None:
            return 0
        if low is not None:
            assert node.key > low, "BST order violated"
        if high is not None:
            assert node.key < high, "BST order violated"
        left_height = self._check(node.left, low, node.key)
        right_height = self._check(node.right, node.key, high)
        assert abs(left_height - right_height) <= 1, "AVL balance violated"
        assert node.height == 1 + max(left_height, right_height), "height bookkeeping broken"
        assert node.size == 1 + _size(node.left) + _size(node.right), "size bookkeeping broken"
        return node.height
