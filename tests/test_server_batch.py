"""The set-oriented server path: binding demux, fallback, prepared LRU."""

import threading

import pytest

from repro.backends import SqliteBackend
from repro.db import Database, INSTANT
from repro.db.errors import ParamCountError, StatementHandleError


@pytest.fixture
def grouped(db):
    """40 rows, grp cycling 0..3, NO index on grp (seq-scan plans)."""
    db.create_table("t", ("a", "int"), ("grp", "int"))
    db.bulk_load("t", [(i, i % 4) for i in range(40)])
    return db


def run_batch(server, sql, bindings, txn=None):
    prepared = server.prepare(sql)
    return server.submit_prepared_batch(prepared, bindings, txn=txn).result()


class TestDemuxSingleScan:
    def test_batch_is_one_statement_and_one_scan(self, grouped):
        server = grouped.server
        grouped.scans.reset_stats()
        before = server.stats.statements_executed
        outcomes = run_batch(
            server,
            "SELECT count(*) FROM t WHERE grp = ?",
            [(0,), (1,), (2,), (3,)],
        )
        assert [o.scalar() for o in outcomes] == [10, 10, 10, 10]
        # One statement execution answered the whole batch…
        assert server.stats.statements_executed == before + 1
        assert server.stats.batched_calls == 1
        assert server.stats.batched_bindings == 4
        assert server.stats.scans_saved == 3
        # …through exactly one physical table scan.
        scans = grouped.scans.stats
        assert scans.led + scans.solo == 1

    def test_duplicate_bindings_share_one_evaluation(self, grouped):
        outcomes = run_batch(
            grouped.server,
            "SELECT count(*) FROM t WHERE grp = ?",
            [(1,), (1,), (1,)],
        )
        assert [o.scalar() for o in outcomes] == [10, 10, 10]
        # Identical binding sets demux to the same result object.
        assert outcomes[0] is outcomes[1] is outcomes[2]

    def test_no_match_binding_gets_empty_result(self, grouped):
        outcomes = run_batch(
            grouped.server, "SELECT a FROM t WHERE grp = ?", [(99,), (0,)]
        )
        assert list(outcomes[0]) == []
        assert len(outcomes[1]) == 10

    def test_residual_conjuncts_apply_per_binding(self, grouped):
        outcomes = run_batch(
            grouped.server,
            "SELECT count(*) FROM t WHERE grp = ? AND a < ?",
            [(0, 8), (0, 100), (3, 0)],
        )
        assert [o.scalar() for o in outcomes] == [2, 10, 0]

    def test_order_and_limit_apply_per_binding(self, grouped):
        outcomes = run_batch(
            grouped.server,
            "SELECT a FROM t WHERE grp = ? ORDER BY a DESC LIMIT 2",
            [(0,), (1,)],
        )
        assert [row[0] for row in outcomes[0]] == [36, 32]
        assert [row[0] for row in outcomes[1]] == [37, 33]

    def test_indexed_plan_probes_once_per_distinct_binding(self, grouped):
        grouped.create_index("ix_grp", "t", "grp")
        server = grouped.server
        grouped.scans.reset_stats()
        before = server.stats.statements_executed
        outcomes = run_batch(
            server,
            "SELECT count(*) FROM t WHERE grp = ?",
            [(0,), (1,), (0,), (1,), (0,)],
        )
        assert [o.scalar() for o in outcomes] == [10, 10, 10, 10, 10]
        # Still one statement execution; the index path never touches
        # the shared-scan manager at all.
        assert server.stats.statements_executed == before + 1
        scans = grouped.scans.stats
        assert scans.led + scans.solo + scans.shared == 0

    def test_matches_per_statement_results(self, grouped):
        """Demuxed outcomes are identical to per-statement execution."""
        server = grouped.server
        sql = "SELECT a, grp FROM t WHERE grp = ? ORDER BY a"
        bindings = [(g,) for g in (3, 1, 99, 0)]
        batched = run_batch(server, sql, bindings)
        prepared = server.prepare(sql)
        for binding, outcome in zip(bindings, batched):
            single = server.submit_prepared(prepared, binding).result()
            assert list(outcome) == list(single)
            assert outcome.columns == single.columns


class TestFaultIsolationAndFallback:
    def test_bad_binding_faults_only_its_slot(self, grouped):
        outcomes = run_batch(
            grouped.server,
            "SELECT count(*) FROM t WHERE grp = ?",
            [(0,), (1, 2), (2,)],
        )
        assert outcomes[0].scalar() == 10
        assert isinstance(outcomes[1], ParamCountError)
        assert outcomes[2].scalar() == 10

    def test_bad_limit_faults_only_its_binding(self, grouped):
        outcomes = run_batch(
            grouped.server,
            "SELECT a FROM t WHERE grp = ? LIMIT ?",
            [(0, 2), (0, -1)],
        )
        assert len(outcomes[0]) == 2
        assert isinstance(outcomes[1], Exception)

    def test_empty_batch(self, grouped):
        assert run_batch(grouped.server, "SELECT a FROM t WHERE grp = ?", []) == []
        assert grouped.server.stats.batched_calls == 0

    def test_write_batch_falls_back_per_binding(self, grouped):
        server = grouped.server
        before = server.stats.statements_executed
        outcomes = run_batch(
            server,
            "INSERT INTO t (a, grp) VALUES (?, ?)",
            [(100, 9), (101, 9)],
        )
        assert [o.rowcount for o in outcomes] == [1, 1]
        # Fallback keeps full per-statement semantics: N executions,
        # N writes, nothing counted as a demuxed batch.
        assert server.stats.statements_executed == before + 2
        assert server.stats.writes_executed == 2
        assert server.stats.batched_calls == 0
        conn = grouped.connect()
        assert (
            conn.execute_query("SELECT count(*) FROM t WHERE grp = 9").scalar()
            == 2
        )
        conn.close()

    def test_write_fallback_isolates_failures(self, grouped):
        outcomes = run_batch(
            grouped.server,
            "INSERT INTO t (a, grp) VALUES (?, ?)",
            [(200, 5), (201,), (202, 5)],
        )
        assert outcomes[0].rowcount == 1
        assert isinstance(outcomes[1], ParamCountError)
        assert outcomes[2].rowcount == 1

    def test_batch_inside_transaction_reads_under_its_locks(self, grouped):
        server = grouped.server
        txn = server.begin_transaction()
        try:
            outcomes = run_batch(
                server, "SELECT count(*) FROM t WHERE grp = ?", [(0,), (1,)],
                txn=txn,
            )
            assert [o.scalar() for o in outcomes] == [10, 10]
            assert "t" in txn._held_tables()
        finally:
            txn.commit()

    def test_stale_prepared_replans_for_batch(self, grouped):
        server = grouped.server
        prepared = server.prepare("SELECT count(*) FROM t WHERE grp = ?")
        grouped.create_index("ix_late", "t", "grp")  # bumps catalog version
        outcomes = server.submit_prepared_batch(prepared, [(0,)]).result()
        assert outcomes[0].scalar() == 10


class TestPreparedLru:
    def _server(self, db, cap):
        db.server.max_prepared = cap
        return db.server

    def test_eviction_counts_and_bounds_cache(self, grouped):
        server = self._server(grouped, 3)
        for n in range(6):
            server.prepare(f"SELECT count(*) FROM t WHERE a = {n}")
        assert server.stats.evictions >= 3
        assert len(server._plan_cache) <= 3

    def test_swept_statement_still_executes(self, grouped):
        server = self._server(grouped, 2)
        first = server.prepare("SELECT count(*) FROM t WHERE grp = 0")
        for n in range(4):
            server.prepare(f"SELECT count(*) FROM t WHERE a = {n}")
        # Swept from the id registry…
        with pytest.raises(StatementHandleError):
            server.prepared(first.statement_id)
        # …but the handed-out object never faults: submit_prepared and
        # the batch path both keep working on it.
        assert server.submit_prepared(first, ()).result().scalar() == 10
        assert (
            server.submit_prepared_batch(first, [()]).result()[0].scalar() == 10
        )

    def test_reprepare_after_eviction_replans(self, grouped):
        server = self._server(grouped, 2)
        sql = "SELECT count(*) FROM t WHERE grp = 1"
        first = server.prepare(sql)
        for n in range(4):
            server.prepare(f"SELECT count(*) FROM t WHERE a = {n}")
        prepared_before = server.stats.statements_prepared
        again = server.prepare(sql)
        assert again.statement_id != first.statement_id
        assert server.stats.statements_prepared == prepared_before + 1
        assert again.plan.execute is not None  # usable plan

    def test_lru_order_keeps_hot_statements(self, grouped):
        server = self._server(grouped, 2)
        hot = server.prepare("SELECT count(*) FROM t WHERE grp = 0")
        server.prepare("SELECT count(*) FROM t WHERE grp = 1")
        # Touch the hot statement so the next insert evicts the other.
        assert server.prepare(hot.sql) is hot
        server.prepare("SELECT count(*) FROM t WHERE grp = 2")
        assert server._plan_cache.get(hot.sql) is hot

    def test_same_text_race_hands_out_one_statement(self, grouped):
        # Concurrent first prepares of one text may all plan, but only
        # one entry (and one statement id) is ever handed out.
        server = self._server(grouped, 8)
        workers = 8
        barrier = threading.Barrier(workers)
        before = server.stats.statements_prepared
        handed = []

        def prepare():
            barrier.wait(timeout=5)
            handed.append(server.prepare("SELECT a FROM t WHERE grp = 3"))

        threads = [threading.Thread(target=prepare) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(handed) == workers
        assert all(prepared is handed[0] for prepared in handed)
        assert server.stats.statements_prepared == before + 1

    def test_invalid_cap_rejected(self, grouped):
        from repro.db.server import DatabaseServer

        with pytest.raises(ValueError):
            DatabaseServer(
                grouped.catalog,
                grouped.buffer,
                grouped.scans,
                grouped.profile,
                grouped.meter,
                max_prepared=0,
            )


class TestPreparedLruSqlite(TestPreparedLru):
    """The prepare LRU is one implementation (``Backend``) under two
    stores: every case above runs again on the sqlite backend."""

    def _server(self, db, cap):
        backend = db.backend("sqlite")
        backend.max_prepared = cap
        return backend

    def test_invalid_cap_rejected(self, grouped):
        with pytest.raises(ValueError):
            SqliteBackend(max_prepared=0)
