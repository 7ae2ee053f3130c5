"""Unit and property-based tests for the in-memory B+-tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyNotFoundError, StorageError
from repro.index.base import KeyRange
from repro.index.bptree import BPlusTree


class TestInsertSearch:
    def test_point_search_finds_inserted_keys(self):
        tree = BPlusTree(node_capacity=4)
        for i in range(100):
            tree.insert(float(i), i * 10)
        assert tree.search(42.0) == [420]
        assert tree.search(999.0) == []
        assert tree.num_entries == 100

    def test_duplicate_keys_accumulate(self):
        tree = BPlusTree(node_capacity=4)
        tree.insert(1.0, "a")
        tree.insert(1.0, "b")
        assert sorted(tree.search(1.0)) == ["a", "b"]
        assert tree.num_entries == 2

    def test_height_grows_with_entries(self):
        tree = BPlusTree(node_capacity=4)
        for i in range(200):
            tree.insert(float(i), i)
        assert tree.height >= 3

    def test_rejects_tiny_node_capacity(self):
        with pytest.raises(ValueError):
            BPlusTree(node_capacity=2)


class TestRangeSearch:
    def test_inclusive_bounds(self):
        tree = BPlusTree(node_capacity=4)
        for i in range(50):
            tree.insert(float(i), i)
        result = tree.range_search(KeyRange(10.0, 20.0))
        assert sorted(result) == list(range(10, 21))

    def test_range_outside_domain_is_empty(self):
        tree = BPlusTree()
        for i in range(10):
            tree.insert(float(i), i)
        assert tree.range_search(KeyRange(100.0, 200.0)) == []

    def test_range_search_many_unions_ranges(self):
        tree = BPlusTree()
        for i in range(30):
            tree.insert(float(i), i)
        result = tree.range_search_many([KeyRange(0, 2), KeyRange(10, 12)])
        assert sorted(result) == [0, 1, 2, 10, 11, 12]

    def test_range_search_array_matches_scalar(self):
        tree = BPlusTree(node_capacity=4)
        rng = np.random.default_rng(3)
        for key in rng.uniform(0, 100, size=300):
            tree.insert(float(key), int(key * 7))
        probe = KeyRange(25.0, 75.0)
        array_result = tree.range_search_array(probe)
        assert isinstance(array_result, np.ndarray)
        assert sorted(array_result.tolist()) == sorted(tree.range_search(probe))

    def test_range_search_array_empty(self):
        tree = BPlusTree()
        tree.insert(1.0, 1)
        result = tree.range_search_array(KeyRange(100.0, 200.0))
        assert isinstance(result, np.ndarray)
        assert result.size == 0

    def test_range_search_many_array_concatenates(self):
        tree = BPlusTree()
        for i in range(30):
            tree.insert(float(i), i)
        result = tree.range_search_many_array([KeyRange(0, 2), KeyRange(10, 12)])
        assert sorted(result.tolist()) == [0, 1, 2, 10, 11, 12]


class TestDelete:
    def test_delete_removes_single_pair(self):
        tree = BPlusTree(node_capacity=4)
        tree.insert(1.0, "a")
        tree.insert(1.0, "b")
        tree.delete(1.0, "a")
        assert tree.search(1.0) == ["b"]
        assert tree.num_entries == 1

    def test_delete_missing_key_raises(self):
        tree = BPlusTree()
        with pytest.raises(KeyNotFoundError):
            tree.delete(5.0, 1)

    def test_delete_missing_tid_raises(self):
        tree = BPlusTree()
        tree.insert(5.0, 1)
        with pytest.raises(KeyNotFoundError):
            tree.delete(5.0, 99)


class TestBulkLoad:
    def test_bulk_load_matches_incremental(self):
        rng = np.random.default_rng(0)
        keys = rng.uniform(0, 1000, size=500)
        bulk = BPlusTree(node_capacity=8)
        bulk.bulk_load((k, i) for i, k in enumerate(keys))
        incremental = BPlusTree(node_capacity=8)
        for i, k in enumerate(keys):
            incremental.insert(k, i)
        probe = KeyRange(200.0, 400.0)
        assert sorted(bulk.range_search(probe)) == sorted(
            incremental.range_search(probe))
        assert bulk.num_entries == incremental.num_entries

    def test_bulk_load_empty(self):
        tree = BPlusTree()
        tree.bulk_load([])
        assert tree.num_entries == 0

    def test_bulk_load_on_nonempty_tree_raises(self):
        """Bulk loading a populated tree would silently drop its entries."""
        tree = BPlusTree()
        tree.insert(1.0, 1)
        with pytest.raises(StorageError):
            tree.bulk_load([(2.0, 2)])
        # The original entry is still intact and still counted.
        assert tree.search(1.0) == [1]
        assert tree.num_entries == 1

    def test_bulk_load_twice_raises(self):
        tree = BPlusTree()
        tree.bulk_load([(1.0, 1), (2.0, 2)])
        with pytest.raises(StorageError):
            tree.bulk_load([(3.0, 3)])

    def test_items_are_sorted(self):
        tree = BPlusTree(node_capacity=4)
        tree.bulk_load([(float(i % 7), i) for i in range(50)])
        keys = [key for key, _ in tree.items()]
        assert keys == sorted(keys)
        assert len(keys) == 50


class TestMemoryAndStats:
    def test_memory_grows_with_entries(self):
        tree = BPlusTree()
        empty = tree.memory_bytes()
        for i in range(1000):
            tree.insert(float(i), i)
        assert tree.memory_bytes() > empty

    def test_operation_counters(self):
        tree = BPlusTree()
        tree.insert(1.0, 1)
        tree.search(1.0)
        tree.range_search(KeyRange(0, 2))
        tree.delete(1.0, 1)
        assert tree.stats.inserts == 1
        assert tree.stats.lookups == 1
        assert tree.stats.range_lookups == 1
        assert tree.stats.deletes == 1


class TestBPlusTreeProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 10_000)),
                    max_size=300))
    def test_matches_reference_dict(self, pairs):
        """The tree agrees with a brute-force multimap on point and range probes."""
        tree = BPlusTree(node_capacity=4)
        reference: dict[float, list[int]] = {}
        for key, value in pairs:
            tree.insert(float(key), value)
            reference.setdefault(float(key), []).append(value)
        for key in list(reference)[:20]:
            assert sorted(tree.search(key)) == sorted(reference[key])
        expected = sorted(
            v for k, values in reference.items() if 100 <= k <= 300 for v in values
        )
        assert sorted(tree.range_search(KeyRange(100, 300))) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=200),
           st.data())
    def test_insert_then_delete_subset(self, keys, data):
        """Deleting a subset leaves exactly the remaining entries."""
        tree = BPlusTree(node_capacity=4)
        for i, key in enumerate(keys):
            tree.insert(float(key), i)
        to_delete = data.draw(st.sets(st.integers(0, len(keys) - 1),
                                      max_size=len(keys)))
        for i in to_delete:
            tree.delete(float(keys[i]), i)
        remaining = sorted(i for i in range(len(keys)) if i not in to_delete)
        found = sorted(tree.range_search(KeyRange(-1.0, 1000.0)))
        assert found == remaining


class TestDuplicateRuns:
    """A key stored under many tids repeats once per tid, and its run spans
    leaves; every read must find the whole run from its leftmost leaf."""

    def make_tree(self) -> BPlusTree:
        tree = BPlusTree(node_capacity=4)
        for tid in range(40):
            tree.insert(5.0, tid)
            tree.insert(float(tid % 7), 100 + tid)
        return tree

    def test_point_and_range_return_whole_run_in_insertion_order(self):
        tree = self.make_tree()
        assert tree.height >= 3
        expected = []
        for tid in range(40):
            expected += [tid] + ([100 + tid] if tid % 7 == 5 else [])
        assert tree.search(5.0) == expected
        assert len(tree.range_search(KeyRange(5.0, 5.0))) == 45
        assert len(tree.range_search(KeyRange(4.0, 6.0))) == 40 + 6 + 5 + 5
        np.testing.assert_array_equal(
            tree.search_many([5.0, 3.0]),
            tree.search(5.0) + tree.search(3.0))

    def test_delete_finds_a_tid_anywhere_in_the_run(self):
        tree = self.make_tree()
        for tid in (39, 0, 17):
            tree.delete(5.0, tid)
        assert 17 not in tree.search(5.0)
        assert len(tree.search(5.0)) == 42
        with pytest.raises(KeyNotFoundError, match="not stored under"):
            tree.delete(5.0, 17)
        assert tree.num_entries == 77

    def test_insert_many_appends_after_the_existing_run(self):
        tree = self.make_tree()
        tree.insert_many([5.0, 5.0, 2.5], [200, 201, 202])
        assert tree.search(5.0)[-2:] == [200, 201]
        assert tree.search(2.5) == [202]
        assert [key for key, _ in tree.items()] == sorted(
            key for key, _ in tree.items())
