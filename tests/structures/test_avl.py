"""Unit tests for the order-statistic AVL tree."""

import pickle
import random

import pytest

from repro.structures.avl import AVLTree


class TestBasics:
    def test_empty_tree(self):
        tree = AVLTree()
        assert len(tree) == 0
        assert not tree
        assert 5 not in tree

    def test_insert_and_contains(self):
        tree = AVLTree()
        tree.insert(3, "three")
        tree.insert(1, "one")
        assert 3 in tree and 1 in tree and 2 not in tree
        assert tree.get(3) == "three"
        assert tree.get(99, "missing") == "missing"

    def test_insert_replaces_value_for_existing_key(self):
        tree = AVLTree()
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert len(tree) == 1
        assert tree.get(1) == "b"

    def test_remove(self):
        tree = AVLTree()
        for key in [5, 2, 8, 1, 3]:
            tree.insert(key)
        assert tree.remove(2)
        assert not tree.remove(2)
        assert len(tree) == 4
        tree.check_invariants()

    def test_clear(self):
        tree = AVLTree()
        tree.insert(1)
        tree.clear()
        assert len(tree) == 0


class TestExtremes:
    def test_min_max(self):
        tree = AVLTree()
        for key in [5, 2, 8, 1, 3]:
            tree.insert(key, str(key))
        assert tree.min_item() == (1, "1")
        assert tree.max_item() == (8, "8")

    def test_pop_min_and_max(self):
        tree = AVLTree()
        for key in [5, 2, 8]:
            tree.insert(key)
        assert tree.pop_min()[0] == 2
        assert tree.pop_max()[0] == 8
        assert len(tree) == 1

    def test_empty_extremes_raise(self):
        tree = AVLTree()
        with pytest.raises(KeyError):
            tree.min_item()
        with pytest.raises(KeyError):
            tree.max_item()


class TestOrderStatistics:
    def _filled(self):
        tree = AVLTree()
        for key in [10, 20, 30, 40, 50]:
            tree.insert(key)
        return tree

    def test_count_greater(self):
        tree = self._filled()
        assert tree.count_greater(25) == 3
        assert tree.count_greater(50) == 0
        assert tree.count_greater(5) == 5

    def test_count_less(self):
        tree = self._filled()
        assert tree.count_less(25) == 2
        assert tree.count_less(10) == 0
        assert tree.count_less(100) == 5

    def test_kth_largest(self):
        tree = self._filled()
        assert tree.kth_largest(1)[0] == 50
        assert tree.kth_largest(5)[0] == 10

    def test_kth_largest_out_of_range(self):
        tree = self._filled()
        with pytest.raises(KeyError):
            tree.kth_largest(0)
        with pytest.raises(KeyError):
            tree.kth_largest(6)

    def test_largest_helper(self):
        tree = self._filled()
        assert [key for key, _ in tree.largest(2)] == [50, 40]


class TestIteration:
    def test_items_sorted_ascending(self):
        tree = AVLTree()
        keys = [5, 1, 9, 3, 7]
        for key in keys:
            tree.insert(key)
        assert tree.keys() == sorted(keys)

    def test_items_descending(self):
        tree = AVLTree()
        for key in [5, 1, 9]:
            tree.insert(key)
        assert [k for k, _ in tree.items_descending()] == [9, 5, 1]

    def test_values(self):
        tree = AVLTree()
        tree.insert(2, "b")
        tree.insert(1, "a")
        assert tree.values() == ["a", "b"]


class TestPickle:
    @pytest.mark.parametrize("size", [0, 1, 2, 100])
    def test_round_trip_keeps_items_and_balance(self, size):
        tree = AVLTree()
        for key in random.Random(size).sample(range(10 * size + 1), size):
            tree.insert(key, str(key))
        restored = pickle.loads(pickle.dumps(tree))
        assert list(restored.items()) == list(tree.items())
        assert len(restored) == size
        restored.check_invariants()


class TestStress:
    def test_random_workload_keeps_invariants(self):
        rng = random.Random(7)
        tree = AVLTree()
        mirror = {}
        for _ in range(2000):
            key = rng.randrange(500)
            if rng.random() < 0.6:
                tree.insert(key, key * 2)
                mirror[key] = key * 2
            else:
                removed = tree.remove(key)
                assert removed == (key in mirror)
                mirror.pop(key, None)
        tree.check_invariants()
        assert len(tree) == len(mirror)
        assert tree.keys() == sorted(mirror)

    def test_sequential_inserts_stay_balanced(self):
        tree = AVLTree()
        for key in range(1000):
            tree.insert(key)
        tree.check_invariants()
        # A balanced tree over 1000 keys must answer order statistics fast
        # and correctly.
        assert tree.count_greater(499) == 500

    def test_tuple_keys(self):
        tree = AVLTree()
        tree.insert((1.0, 3), "a")
        tree.insert((1.0, 5), "b")
        tree.insert((2.0, 1), "c")
        assert tree.max_item()[1] == "c"
        assert tree.count_greater((1.0, 3)) == 2
