"""Unit tests: heap storage and secondary indexes."""

import pytest

from repro.db.errors import ConstraintError
from repro.db.index import HashIndex
from repro.db.storage import HeapTable, OrderKey
from repro.db.types import schema_of

SCHEMA = schema_of(("id", "int"), ("grp", "int"), ("val", "int"))


def make_heap(rows_per_page=4):
    return HeapTable("t", SCHEMA, rows_per_page=rows_per_page)


class TestHeapTable:
    def test_insert_and_fetch(self):
        heap = make_heap()
        rid = heap.insert((1, 2, 3))
        assert heap.fetch(rid) == (1, 2, 3)
        assert len(heap) == 1

    def test_page_geometry(self):
        heap = make_heap(rows_per_page=4)
        for i in range(10):
            heap.insert((i, 0, 0))
        assert heap.page_count == 3
        assert heap.page_of(0) == 0
        assert heap.page_of(4) == 1
        assert heap.page_of(9) == 2

    def test_delete_leaves_tombstone(self):
        heap = make_heap()
        rid = heap.insert((1, 2, 3))
        heap.insert((4, 5, 6))
        heap.delete(rid)
        assert heap.fetch(rid) is None
        assert len(heap) == 1
        assert [row for _rid, row in heap.iter_rows()] == [(4, 5, 6)]

    def test_double_delete_rejected(self):
        heap = make_heap()
        rid = heap.insert((1, 2, 3))
        heap.delete(rid)
        with pytest.raises(ConstraintError):
            heap.delete(rid)

    def test_update_in_place(self):
        heap = make_heap()
        rid = heap.insert((1, 2, 3))
        heap.update(rid, (1, 2, 99))
        assert heap.fetch(rid) == (1, 2, 99)

    def test_update_deleted_rejected(self):
        heap = make_heap()
        rid = heap.insert((1, 2, 3))
        heap.delete(rid)
        with pytest.raises(ConstraintError):
            heap.update(rid, (1, 2, 4))


class TestOrderKey:
    def test_none_sorts_last(self):
        keys = sorted([OrderKey(3), OrderKey(None), OrderKey(1)])
        assert [k.value for k in keys] == [1, 3, None]

    def test_mixed_types_total_order(self):
        keys = sorted([OrderKey("b"), OrderKey(2), OrderKey("a"), OrderKey(1)])
        assert [k.value for k in keys] == [1, 2, "a", "b"]


class TestHashIndex:
    def build(self):
        heap = make_heap()
        for i in range(20):
            heap.insert((i, i % 4, i))
        index = HashIndex("ix", heap, "grp")
        index.build()
        return heap, index

    def test_lookup(self):
        _heap, index = self.build()
        assert index.lookup(2) == [2, 6, 10, 14, 18]
        assert index.lookup(99) == []

    def test_incremental_add_remove(self):
        heap, index = self.build()
        rid = heap.insert((100, 2, 0))
        index.add(rid, 2)
        assert rid in index.lookup(2)
        index.remove(rid, 2)
        assert rid not in index.lookup(2)

    def test_remove_missing_is_noop(self):
        _heap, index = self.build()
        index.remove(12345, 2)

    def test_unique_violation(self):
        heap = make_heap()
        heap.insert((1, 7, 0))
        heap.insert((2, 7, 0))
        index = HashIndex("u", heap, "grp", unique=True)
        with pytest.raises(ConstraintError):
            index.build()

    def test_page_for_is_stable(self):
        _heap, index = self.build()
        assert index.page_for(3) == index.page_for(3)

    def test_unique_takes_any_number_of_nulls(self):
        heap = make_heap()
        heap.insert((1, None, 0))
        heap.insert((2, None, 0))
        heap.insert((3, 7, 0))
        index = HashIndex("u", heap, "grp", unique=True)
        index.build()
        rid = heap.insert((4, None, 0))
        index.check_unique(None)
        index.add(rid, None)
        assert index.lookup(None) == [0, 1, rid]
        with pytest.raises(ConstraintError):
            index.check_unique(7)
        with pytest.raises(ConstraintError):
            index.add(heap.insert((5, 7, 0)), 7)

    def test_extend_indexes_rows_past_the_built_ones(self):
        heap, index = self.build()
        heap.extend([(20, 2, 0), (21, 9, 0)])
        index.extend([20, 21])
        assert index.lookup(2) == [2, 6, 10, 14, 18, 20]
        assert index.lookup(9) == [21]
        assert index.key_count == 5
        assert sorted(index.keys()) == [0, 1, 2, 3, 9]

    def test_build_skips_deleted_rows(self):
        heap, index = self.build()
        heap.delete(6)
        index.build()
        assert index.lookup(2) == [2, 10, 14, 18]

    def test_page_count_grows_with_entries(self):
        heap = make_heap()
        index = HashIndex("ix", heap, "grp")
        index.build()
        assert index.page_count == 1
        heap.extend([(i, i, 0) for i in range(600)])
        index.extend(range(600))
        assert index.page_count == 3
        assert all(0 <= index.page_for(key) < 3 for key in range(600))
