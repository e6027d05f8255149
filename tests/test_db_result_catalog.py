"""Unit tests: QueryResult container and catalog operations."""

import pytest

from repro.db import Database, INSTANT
from repro.db.catalog import Catalog
from repro.db.disk import SimulatedDisk
from repro.db.errors import CatalogError, UnknownTableError
from repro.db.latency import LatencyMeter
from repro.db.plan.result import QueryResult
from repro.db.types import schema_of


class TestQueryResult:
    def make(self):
        return QueryResult(
            columns=("id", "name"),
            rows=[(1, "a"), (2, "b"), (3, "c")],
        )

    def test_sequence_protocol(self):
        result = self.make()
        assert len(result) == 3
        assert result[0] == (1, "a")
        assert list(result) == [(1, "a"), (2, "b"), (3, "c")]
        assert bool(result)

    def test_rowcount_defaults_to_len(self):
        assert self.make().rowcount == 3

    def test_explicit_rowcount(self):
        assert QueryResult(rowcount=7).rowcount == 7

    def test_scalar(self):
        assert self.make().scalar() == 1
        assert QueryResult().scalar() is None

    def test_column(self):
        assert self.make().column("name") == ["a", "b", "c"]
        with pytest.raises(ValueError):
            self.make().column("missing")

    def test_as_dicts(self):
        assert self.make().as_dicts()[0] == {"id": 1, "name": "a"}

    def test_empty_is_falsy(self):
        assert not QueryResult()


class TestCatalog:
    def make(self):
        disk = SimulatedDisk(INSTANT, LatencyMeter())
        return Catalog(disk)

    def test_create_and_lookup(self):
        catalog = self.make()
        catalog.create_table("t", schema_of(("a", "int")))
        assert catalog.has_table("t")
        assert catalog.table("t").name == "t"
        assert catalog.table_names() == ["t"]

    def test_duplicate_table_rejected(self):
        catalog = self.make()
        catalog.create_table("t", schema_of(("a", "int")))
        with pytest.raises(CatalogError):
            catalog.create_table("t", schema_of(("a", "int")))

    def test_if_not_exists(self):
        catalog = self.make()
        first = catalog.create_table("t", schema_of(("a", "int")))
        second = catalog.create_table(
            "t", schema_of(("a", "int")), if_not_exists=True
        )
        assert first is second

    def test_unknown_table(self):
        with pytest.raises(UnknownTableError):
            self.make().table("ghost")

    def test_drop_table(self):
        catalog = self.make()
        catalog.create_table("t", schema_of(("a", "int")))
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        with pytest.raises(UnknownTableError):
            catalog.drop_table("t")
        catalog.drop_table("t", if_exists=True)

    def test_duplicate_index_rejected(self):
        catalog = self.make()
        catalog.create_table("t", schema_of(("a", "int")))
        catalog.create_index("ix", "t", "a")
        with pytest.raises(CatalogError):
            catalog.create_index("ix", "t", "a")

    def test_indexes_on_filtering(self):
        catalog = self.make()
        catalog.create_table("t", schema_of(("a", "int"), ("b", "int")))
        catalog.create_index("ia", "t", "a")
        catalog.create_index("ib", "t", "b")
        assert len(catalog.indexes_on("t")) == 2
        assert len(catalog.indexes_on("t", "a")) == 1
        assert catalog.indexes_on("t", "a")[0].name == "ia"

    def test_maintenance_hooks(self):
        catalog = self.make()
        catalog.create_table("t", schema_of(("a", "int")))
        index = catalog.create_index("ix", "t", "a")
        info = catalog.table("t")
        row = info.heap.schema.coerce_row((5,))
        rid = info.heap.insert(row)
        catalog.on_insert(info, rid, row)
        assert index.lookup(5) == [rid]
        new_row = info.heap.schema.coerce_row((9,))
        info.heap.update(rid, new_row)
        catalog.on_update(info, rid, row, new_row)
        assert index.lookup(5) == []
        assert index.lookup(9) == [rid]
        catalog.on_delete(info, rid, new_row)
        assert index.lookup(9) == []


class TestConcurrencyPrimitives:
    def test_rwlock_readers_share(self):
        import threading

        from repro.db.concurrency import ReadWriteLock

        lock = ReadWriteLock()
        inside = []
        barrier = threading.Barrier(3, timeout=5)

        def reader():
            with lock.reading():
                inside.append(1)
                barrier.wait()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(inside) == 3

    def test_writer_excludes_readers(self):
        import threading
        import time

        from repro.db.concurrency import ReadWriteLock

        lock = ReadWriteLock()
        events = []
        lock.acquire_write()

        def reader():
            with lock.reading():
                events.append("read")

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.03)
        assert events == []
        events.append("write-done")
        lock.release_write()
        thread.join()
        assert events == ["write-done", "read"]

    def test_writer_preference(self):
        import threading
        import time

        from repro.db.concurrency import ReadWriteLock

        lock = ReadWriteLock()
        order = []
        lock.acquire_read()

        def writer():
            lock.acquire_write()
            order.append("writer")
            lock.release_write()

        def late_reader():
            time.sleep(0.02)  # arrive after the writer is waiting
            lock.acquire_read()
            order.append("late-reader")
            lock.release_read()

        writer_thread = threading.Thread(target=writer)
        reader_thread = threading.Thread(target=late_reader)
        writer_thread.start()
        time.sleep(0.01)
        reader_thread.start()
        time.sleep(0.05)
        lock.release_read()
        writer_thread.join()
        reader_thread.join()
        assert order[0] == "writer"


class TestExplain:
    def test_explain_reports_access_path(self, db):
        db.create_table("t", ("a", "int"), ("b", "int"))
        db.bulk_load("t", [(i, i) for i in range(5)])
        db.create_index("ib", "t", "b")
        assert "HashEqOp" in db.explain("SELECT * FROM t WHERE b = 1")
        assert "SeqScanOp" in db.explain("SELECT * FROM t WHERE b + 1 = 2")
        assert "UpdatePlan" in db.explain("UPDATE t SET b = 0 WHERE b = 1")
