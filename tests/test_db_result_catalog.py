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


def create_index(catalog, *args):
    """An index made in ``catalog`` alone (``Database.create_index``
    makes one in every store's catalog)."""
    with catalog.index_creation(*args) as index:
        return index


class TestCatalog:
    def make(self):
        disk = SimulatedDisk(INSTANT, LatencyMeter())
        return Catalog(disk)

    def test_create_and_lookup(self):
        catalog = self.make()
        catalog.create_table("t", schema_of(("a", "int")))
        assert catalog.table("t").name == "t"
        assert catalog.table_names() == ["t"]

    def test_duplicate_table_rejected(self):
        catalog = self.make()
        catalog.create_table("t", schema_of(("a", "int")))
        with pytest.raises(CatalogError):
            catalog.create_table("t", schema_of(("a", "int")))

    def test_unknown_table(self):
        with pytest.raises(UnknownTableError):
            self.make().table("ghost")

    @pytest.mark.parametrize(
        "change",
        [
            lambda c: c.create_table("T", schema_of(("a", "int"))),
            lambda c: c.create_table("ix", schema_of(("a", "int"))),
            lambda c: c.create_table("IX", schema_of(("a", "int"))),
            lambda c: create_index(c, "t", "u", "b"),
            lambda c: create_index(c, "Ix", "u", "b"),
            lambda c: c.create_table("v", schema_of(("a", "int"), ("a", "int"))),
            lambda c: c.create_table("v", schema_of(("a", "int"), ("A", "text"))),
            lambda c: c.create_table("sqlite_v", schema_of(("a", "int"))),
            lambda c: c.create_table("SQLITE_V", schema_of(("a", "int"))),
            lambda c: create_index(c, "sqlite_ix", "u", "b"),
        ],
        ids=[
            "table-case", "table-as-index", "table-as-index-case",
            "index-as-table", "index-case-on-another-table",
            "columns", "columns-case", "reserved", "reserved-case",
            "reserved-index",
        ],
    )
    def test_names_follow_sqlites_rule(self, change):
        """Tables and indexes share one namespace, and like the columns
        of a table compare case-insensitively; ``sqlite_*`` is
        reserved.  A refused name leaves the catalog as it was."""
        catalog = self.make()
        catalog.create_table("t", schema_of(("a", "int")))
        catalog.create_table("u", schema_of(("b", "int")))
        create_index(catalog, "ix", "t", "a")
        with pytest.raises(CatalogError):
            change(catalog)
        assert catalog.table_names() == ["t", "u"]
        assert [i.name for i in catalog.indexes_on("t")] == ["ix"]
        assert catalog.indexes_on("u") == []

    def test_non_ascii_letters_keep_their_case(self):
        # SQLite folds ASCII letters only.
        catalog = self.make()
        catalog.create_table("é", schema_of(("ä", "int"), ("Ä", "int")))
        catalog.create_table("É", schema_of(("a", "int")))
        assert catalog.table_names() == ["É", "é"]

    def test_duplicate_index_rejected(self):
        catalog = self.make()
        catalog.create_table("t", schema_of(("a", "int")))
        create_index(catalog, "ix", "t", "a")
        with pytest.raises(CatalogError):
            create_index(catalog, "ix", "t", "a")

    def test_indexes_on_filtering(self):
        catalog = self.make()
        catalog.create_table("t", schema_of(("a", "int"), ("b", "int")))
        create_index(catalog, "ia", "t", "a")
        create_index(catalog, "ib", "t", "b")
        assert len(catalog.indexes_on("t")) == 2
        assert len(catalog.indexes_on("t", "a")) == 1
        assert catalog.indexes_on("t", "a")[0].name == "ia"

    def test_maintenance_hooks(self):
        catalog = self.make()
        catalog.create_table("t", schema_of(("a", "int")))
        index = create_index(catalog, "ix", "t", "a")
        info = catalog.table("t")
        row = info.heap.schema.coerce_row((5,))
        rid = info.heap.insert(row)
        catalog.on_insert(info, rid, row)
        assert index.probe(5)[1] == [rid]
        new_row = info.heap.schema.coerce_row((9,))
        info.heap.update(rid, new_row)
        catalog.on_update(info, rid, row, new_row)
        assert index.probe(5)[1] == ()
        assert index.probe(9)[1] == [rid]
        catalog.on_delete(info, rid, new_row)
        assert index.probe(9)[1] == ()


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
