"""Unit tests: server admission gate, prepared statements, shutdown."""

import threading
import time

import pytest

from repro.db import Database, INSTANT, SYS1
from repro.db.errors import ServerShutdownError, StatementHandleError
from repro.db.latency import LatencyProfile


@pytest.fixture
def loaded(db):
    db.create_table("t", ("id", "int"), ("v", "int"))
    db.bulk_load("t", [(i, i) for i in range(50)])
    return db


class TestPreparedStatements:
    def test_prepare_caches_by_text(self, loaded):
        first = loaded.server.prepare("SELECT v FROM t WHERE id = ?")
        second = loaded.server.prepare("SELECT v FROM t WHERE id = ?")
        assert first is second

    def test_execute_prepared(self, loaded):
        prepared = loaded.server.prepare("SELECT v FROM t WHERE id = ?")
        assert loaded.server.execute_prepared(prepared, (7,)).scalar() == 7

    def test_prepared_lookup_by_id(self, loaded):
        prepared = loaded.server.prepare("SELECT v FROM t WHERE id = ?")
        assert loaded.server.prepared(prepared.statement_id) is prepared

    def test_unknown_statement_id(self, loaded):
        with pytest.raises(StatementHandleError):
            loaded.server.prepared(424242)

    def test_stale_plan_replanned_after_ddl(self, loaded):
        prepared = loaded.server.prepare("SELECT v FROM t WHERE id = ?")
        loaded.create_index("ix", "t", "id")
        assert loaded.server.prepare("SELECT v FROM t WHERE id = ?") is not prepared
        # Executing the stale handle still works (it re-prepares).
        assert loaded.server.execute_prepared(prepared, (3,)).scalar() == 3


class TestConcurrency:
    def test_admission_gate_limits_concurrency(self):
        profile = LatencyProfile(
            name="tiny",
            network_rtt_s=0.0,
            send_overhead_s=0.0,
            cpu_fixed_s=0.02,  # 20ms per statement: long enough to overlap
            cpu_per_row_s=0.0,
            disk_seek_min_s=0.0,
            disk_seek_per_page_s=0.0,
            disk_seek_max_s=0.0,
            disk_sequential_s=0.0,
            disk_spindles=1,
            server_workers=2,
            buffer_pool_pages=16,
        )
        db = Database(profile)
        try:
            db.create_table("t", ("id", "int"))
            db.bulk_load("t", [(1,)])
            counts = []

            def worker():
                counts.append(db.server.execute("SELECT count(*) FROM t").scalar())

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert counts == [1] * 6
            assert 1 <= db.server.stats.peak_concurrency <= 2
        finally:
            db.close()

    def test_parallel_queries_from_many_threads(self, loaded):
        errors = []

        def worker():
            try:
                for i in range(20):
                    value = loaded.server.execute(
                        "SELECT v FROM t WHERE id = ?", (i % 50,)
                    ).scalar()
                    assert value == i % 50
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_concurrent_inserts_all_land(self, db):
        db.create_table("t", ("id", "int"))

        def worker(base):
            for i in range(25):
                db.server.execute("INSERT INTO t VALUES (?)", (base + i,))

        threads = [threading.Thread(target=worker, args=(i * 25,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert db.server.execute("SELECT count(*) FROM t").scalar() == 100
        ids = db.server.execute("SELECT id FROM t").column("id")
        assert sorted(ids) == list(range(100))


class TestShutdown:
    def test_execute_after_shutdown_rejected(self, loaded):
        loaded.server.shutdown()
        with pytest.raises(ServerShutdownError):
            loaded.server.execute("SELECT count(*) FROM t")

    def test_is_shutdown_flag(self, loaded):
        assert not loaded.server.is_shutdown
        loaded.server.shutdown()
        assert loaded.server.is_shutdown


class TestStats:
    def test_statement_counters(self, loaded):
        before = loaded.server.stats.statements_executed
        loaded.server.execute("SELECT count(*) FROM t")
        loaded.server.execute("INSERT INTO t VALUES (999, 1)")
        assert loaded.server.stats.statements_executed == before + 2
        assert loaded.server.stats.writes_executed >= 1

    def test_io_report_shape(self, loaded):
        loaded.server.execute("SELECT count(*) FROM t")
        report = loaded.io_report()
        assert set(report) == {"latency_totals_s", "buffer", "disk", "scans", "server"}
        assert report["server"]["executed"] >= 1


class TestDatabaseFacade:
    def test_context_manager(self):
        with Database(INSTANT) as db:
            db.create_table("t", ("a", "int"))
            db.bulk_load("t", [(1,)])
            assert db.server.execute("SELECT count(*) FROM t").scalar() == 1

    def test_flush_and_warm(self, loaded):
        loaded.server.execute("SELECT count(*) FROM t")
        loaded.flush_cache()
        loaded.reset_stats()
        loaded.server.execute("SELECT count(*) FROM t")
        misses_cold = loaded.buffer.stats.misses
        assert misses_cold > 0
        loaded.warm_table("t")
        loaded.reset_stats()
        loaded.server.execute("SELECT count(*) FROM t")
        assert loaded.buffer.stats.misses == 0
