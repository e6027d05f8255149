"""Unit tests: heap storage and secondary indexes."""

import pytest

from repro.db.errors import ConstraintError
from repro.db.index import HashIndex
from repro.db.storage import HeapTable
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


class TestHashIndex:
    def build(self):
        heap = make_heap()
        for i in range(20):
            heap.insert((i, i % 4, i))
        index = HashIndex("ix", heap, "grp")
        index.build()
        return heap, index

    def test_incremental_add_remove(self):
        heap, index = self.build()
        rid = heap.insert((100, 2, 0))
        index.add(rid, 2)
        assert rid in index.probe(2)[1]
        index.remove(rid, 2)
        assert rid not in index.probe(2)[1]

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

    def test_a_probe_is_stable_and_answers_the_bucket(self):
        _heap, index = self.build()
        assert index.probe(3) == index.probe(3)
        assert index.probe(2)[1] == [2, 6, 10, 14, 18]
        assert index.probe(99) == ((index.io_name, 99 % index.page_count), ())

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
        assert index.probe(None)[1] == [0, 1, rid]
        with pytest.raises(ConstraintError):
            index.check_unique(7)
        with pytest.raises(ConstraintError):
            index.add(heap.insert((5, 7, 0)), 7)

    def test_extend_indexes_rows_past_the_built_ones(self):
        heap, index = self.build()
        heap.extend([(20, 2, 0), (21, 9, 0)])
        index.extend([20, 21])
        assert index.probe(2)[1] == [2, 6, 10, 14, 18, 20]
        assert index.probe(9)[1] == [21]
        assert index.key_count == 5
        assert sorted(index.keys()) == [0, 1, 2, 3, 9]

    def test_build_skips_deleted_rows(self):
        heap, index = self.build()
        heap.delete(6)
        index.build()
        assert index.probe(2)[1] == [2, 10, 14, 18]

    def test_page_count_grows_with_entries(self):
        heap = make_heap()
        index = HashIndex("ix", heap, "grp")
        index.build()
        assert index.page_count == 1
        heap.extend([(i, i, 0) for i in range(600)])
        index.extend(range(600))
        assert index.page_count == 3
        assert {index.probe(key)[0][1] for key in range(600)} == {0, 1, 2}
        index.build()
        assert index.page_count == 3
