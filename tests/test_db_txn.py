"""Tests for explicit transactions (repro.db.txn): strict 2PL locking,
undo-log rollback, async-read interaction, and the documented refusals."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    Database,
    INSTANT,
    TransactionStateError,
    TransactionTimeoutError,
    UnknownColumnError,
)
from repro.db.txn import (
    ACTIVE,
    ABORTED,
    COMMITTED,
    EXCLUSIVE,
    SHARED,
    LockManager,
    Transaction,
    TransactionManager,
)


@pytest.fixture()
def db():
    database = Database(INSTANT)
    database.create_table("t", ("id", "int"), ("v", "text"))
    database.bulk_load("t", [(1, "a"), (2, "b"), (3, "c")])
    yield database
    database.close()


@pytest.fixture()
def conn(db):
    connection = db.connect(async_workers=4)
    yield connection
    connection.close()


def rows(conn):
    return conn.execute_query("select id, v from t").rows


# ----------------------------------------------------------------------
# commit / rollback semantics
# ----------------------------------------------------------------------


class TestCommitRollback:
    def test_commit_makes_writes_durable(self, conn):
        with conn.transaction():
            conn.execute_update("insert into t values (4, 'd')")
        assert (4, "d") in rows(conn)

    def test_rollback_undoes_insert(self, conn):
        conn.begin()
        conn.execute_update("insert into t values (4, 'd')")
        conn.rollback()
        assert (4, "d") not in rows(conn)

    def test_rollback_undoes_update(self, conn):
        conn.begin()
        conn.execute_update("update t set v = 'X' where id = 2")
        assert (2, "X") in rows(conn)
        conn.rollback()
        assert (2, "b") in rows(conn)

    def test_rollback_undoes_delete(self, conn):
        conn.begin()
        conn.execute_update("delete from t where id = 1")
        assert (1, "a") not in rows(conn)
        conn.rollback()
        assert (1, "a") in rows(conn)

    def test_rollback_reverses_mixed_sequence_in_order(self, conn):
        before = rows(conn)
        conn.begin()
        conn.execute_update("insert into t values (4, 'd')")
        conn.execute_update("update t set v = 'dd' where id = 4")
        conn.execute_update("delete from t where id = 4")
        conn.execute_update("update t set v = 'A' where id = 1")
        conn.rollback()
        assert rows(conn) == before

    def test_rollback_restores_index_entries(self, db, conn):
        db.create_index("t_v", "t", "v")
        conn.begin()
        conn.execute_update("update t set v = 'zzz' where id = 3")
        conn.rollback()
        # The index must find the restored value and not the undone one.
        assert conn.execute_query("select id from t where v = 'c'").rows == [(3,)]
        assert conn.execute_query("select id from t where v = 'zzz'").rows == []

    def test_exception_inside_with_block_rolls_back(self, conn):
        with pytest.raises(RuntimeError):
            with conn.transaction():
                conn.execute_update("insert into t values (9, 'x')")
                raise RuntimeError("app failure")
        assert (9, "x") not in rows(conn)

    def test_close_rolls_back_open_transaction(self, db):
        connection = db.connect()
        connection.begin()
        connection.execute_update("insert into t values (9, 'x')")
        connection.close()
        with db.connect() as fresh:
            assert (9, "x") not in rows(fresh)

    def test_multi_row_update_rollback(self, conn):
        before = rows(conn)
        conn.begin()
        result = conn.execute_update("update t set v = 'all'")
        assert result.rowcount == 3
        conn.rollback()
        assert rows(conn) == before


# ----------------------------------------------------------------------
# transaction state machine
# ----------------------------------------------------------------------


class TestStateMachine:
    def test_begin_twice_rejected(self, conn):
        conn.begin()
        with pytest.raises(TransactionStateError):
            conn.begin()
        conn.rollback()

    def test_commit_without_begin_rejected(self, conn):
        with pytest.raises(TransactionStateError):
            conn.commit()

    def test_rollback_without_begin_rejected(self, conn):
        with pytest.raises(TransactionStateError):
            conn.rollback()

    def test_states_progress(self, conn):
        txn = conn.begin()
        assert txn.state == ACTIVE and txn.is_active
        conn.commit()
        assert txn.state == COMMITTED
        txn2 = conn.begin()
        conn.rollback()
        assert txn2.state == ABORTED

    def test_finished_txn_rejects_reuse(self, db, conn):
        txn = conn.begin()
        conn.commit()
        with pytest.raises(TransactionStateError):
            txn.commit()
        with pytest.raises(TransactionStateError):
            txn.rollback()

    def test_manager_tracks_active_count(self, db, conn):
        txns = conn.server.txns  # whichever backend the conn talks to
        assert txns.active_count == 0
        conn.begin()
        assert txns.active_count == 1
        conn.commit()
        assert txns.active_count == 0


# ----------------------------------------------------------------------
# isolation via table locks
# ----------------------------------------------------------------------


class TestIsolation:
    def test_writer_blocks_writer_until_commit(self, db):
        db.server.txns.locks.timeout_s = 0.2
        with db.connect() as c1, db.connect() as c2:
            c1.begin()
            c1.execute_update("update t set v = 'X' where id = 1")
            c2.begin()
            with pytest.raises(TransactionTimeoutError):
                c2.execute_update("update t set v = 'Y' where id = 2")
            c2.rollback()
            c1.commit()

    def test_reader_blocks_writer(self, db):
        db.server.txns.locks.timeout_s = 0.2
        with db.connect() as c1, db.connect() as c2:
            c1.begin()
            c1.execute_query("select id from t where id = 1")
            c2.begin()
            with pytest.raises(TransactionTimeoutError):
                c2.execute_update("delete from t where id = 1")
            c2.rollback()
            c1.commit()

    def test_two_readers_share(self, db):
        with db.connect() as c1, db.connect() as c2:
            c1.begin()
            c2.begin()
            assert c1.execute_query("select id from t").rows
            assert c2.execute_query("select id from t").rows
            c1.commit()
            c2.commit()

    def test_lock_released_on_commit_unblocks_waiter(self, db):
        with db.connect() as c1, db.connect() as c2:
            c1.begin()
            c1.execute_update("update t set v = 'X' where id = 1")
            done = threading.Event()
            errors = []

            def waiter():
                try:
                    c2.begin()
                    c2.execute_update("update t set v = 'Y' where id = 2")
                    c2.commit()
                except Exception as exc:  # pragma: no cover - fail loud
                    errors.append(exc)
                finally:
                    done.set()

            thread = threading.Thread(target=waiter)
            thread.start()
            c1.commit()
            assert done.wait(5.0)
            thread.join()
            assert not errors

    def test_shared_lock_upgrades_for_sole_reader(self, db):
        with db.connect() as c1:
            c1.begin()
            c1.execute_query("select id from t where id = 1")
            # read-then-update on the same table must not self-deadlock
            c1.execute_update("update t set v = 'up' where id = 1")
            c1.commit()
        with db.connect() as fresh:
            assert (1, "up") in rows(fresh)

    def test_autocommit_unaffected_by_other_txn_reads(self, db):
        with db.connect() as c1, db.connect() as c2:
            c1.begin()
            c1.execute_query("select id from t")
            # autocommit statements bypass the logical lock layer
            assert c2.execute_query("select id from t").rows
            c1.commit()


# ----------------------------------------------------------------------
# async submissions under an open transaction
# ----------------------------------------------------------------------


class TestAsyncInteraction:
    def test_async_reads_allowed_and_drained_at_commit(self, conn):
        conn.begin()
        handles = [
            conn.submit_query("select v from t where id = ?", [i]) for i in (1, 2, 3)
        ]
        values = [conn.fetch_result(h).scalar() for h in handles]
        conn.commit()
        assert values == ["a", "b", "c"]

    def test_async_update_rejected(self, conn):
        conn.begin()
        with pytest.raises(TransactionStateError):
            conn.submit_update("insert into t values (9, 'x')")
        conn.rollback()

    def test_commit_waits_for_in_flight_reads(self, conn):
        txn = conn.begin()
        handles = [conn.submit_query("select id, v from t") for _ in range(8)]
        conn.commit()
        assert txn.in_flight == 0
        for handle in handles:
            assert len(conn.fetch_result(handle).rows) == 3

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("in_txn", [False, True], ids=["autocommit", "txn"])
    def test_unresolvable_submit_surfaces_at_fetch(self, db, backend, in_txn):
        """Observer-model contract: a statement that does not resolve is
        a handle whose error surfaces at ``fetch_result``, in iteration
        order — inside an explicit transaction exactly as in autocommit
        (the transactional submit used to raise at submit, so a
        fissioned loop under ``with conn.transaction():`` failed before
        the fetch-side statements of its earlier iterations ran)."""
        with db.connect(async_workers=2, backend=backend) as conn:
            if in_txn:
                conn.begin()
            good = conn.submit_query("select v from t where id = ?", [1])
            bad = conn.submit_query("select nope from t where id = ?", [1])
            assert conn.stats.async_submits == 2
            assert conn.fetch_result(good).scalar() == "a"
            with pytest.raises(UnknownColumnError):
                conn.fetch_result(bad)
            if in_txn:
                # The transaction is none the worse, and the refusal of
                # an asynchronous *write* stays immediate.
                with pytest.raises(TransactionStateError):
                    conn.submit_update("insert into t values (9, 'x')")
                conn.commit()

    def test_async_read_after_commit_is_plain(self, conn):
        conn.begin()
        conn.commit()
        handle = conn.submit_query("select id from t where id = 1")
        assert conn.fetch_result(handle).scalar() == 1


# ----------------------------------------------------------------------
# lock manager unit behaviour
# ----------------------------------------------------------------------


class TestLockManager:
    def _txn(self, manager: TransactionManager) -> Transaction:
        return manager.begin()

    def test_reentrant_shared(self, db):
        manager = db.server.txns
        txn = manager.begin()
        manager.locks.acquire(txn, "t", SHARED)
        manager.locks.acquire(txn, "t", SHARED)
        assert manager.locks.mode_held(txn, "t") == SHARED
        manager.rollback(txn)

    def test_exclusive_absorbs_shared(self, db):
        manager = db.server.txns
        txn = manager.begin()
        manager.locks.acquire(txn, "t", SHARED)
        manager.locks.acquire(txn, "t", EXCLUSIVE)
        assert manager.locks.mode_held(txn, "t") == EXCLUSIVE
        manager.rollback(txn)

    def test_release_all_frees_every_table(self, db):
        db.create_table("u", ("id", "int"))
        manager = db.server.txns
        txn = manager.begin()
        manager.locks.acquire(txn, "t", EXCLUSIVE)
        manager.locks.acquire(txn, "u", SHARED)
        manager.commit(txn)
        other = manager.begin()
        manager.locks.acquire(other, "t", EXCLUSIVE, timeout_s=0.1)
        manager.locks.acquire(other, "u", EXCLUSIVE, timeout_s=0.1)
        manager.rollback(other)

    def test_timeout_raises(self):
        lock_manager = LockManager(timeout_s=0.05)
        manager_a = type("M", (), {})()  # dummy txn holders
        txn_a = Transaction(1, manager_a)
        txn_b = Transaction(2, manager_a)
        lock_manager.acquire(txn_a, "t", EXCLUSIVE)
        with pytest.raises(TransactionTimeoutError):
            lock_manager.acquire(txn_b, "t", SHARED)

    def test_undo_depth_counts_entries(self, db):
        # The logical undo log is engine-internal (the sqlite backend
        # rolls back via its own journal): pin the in-memory backend.
        with db.connect(async_workers=4, backend="memory") as conn:
            txn = conn.begin()
            conn.execute_update("insert into t values (7, 'g')")
            conn.execute_update("delete from t where id = 7")
            assert txn.undo_depth == 2
            conn.rollback()


class TestConcurrencyAcrossTables:
    def test_writers_on_different_tables_run_in_parallel(self, db):
        """Table-granularity locks must not serialize disjoint writers."""
        db.create_table("u", ("id", "int"), ("v", "text"))
        db.bulk_load("u", [(1, "x")])
        barrier = threading.Barrier(2, timeout=5.0)
        errors = []

        def writer(table, conn):
            try:
                conn.begin()
                conn.execute_update(f"update {table} set v = 'w' where id = 1")
                barrier.wait()  # both txns hold their write lock here
                conn.commit()
            except Exception as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        # Table-granularity locking is the engine's promise; SQLite
        # admits one writer per database, so pin the memory backend.
        with db.connect(backend="memory") as c1, db.connect(
            backend="memory"
        ) as c2:
            threads = [
                threading.Thread(target=writer, args=("t", c1)),
                threading.Thread(target=writer, args=("u", c2)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
        assert not errors


# ----------------------------------------------------------------------
# property: rollback is a perfect inverse, commit a perfect apply
# ----------------------------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(100, 140), st.text(max_size=4)),
        st.tuples(st.just("update"), st.integers(1, 3), st.text(max_size=4)),
        st.tuples(st.just("delete"), st.integers(1, 3)),
    ),
    max_size=12,
)


def _apply_ops(conn, operations):
    """Run a random op sequence; deletes of already-deleted rows no-op
    (DELETE WHERE matches nothing) which keeps sequences always valid."""
    for op in operations:
        if op[0] == "insert":
            conn.execute_update("insert into t values (?, ?)", [op[1], op[2]])
        elif op[0] == "update":
            conn.execute_update("update t set v = ? where id = ?", [op[2], op[1]])
        else:
            conn.execute_update("delete from t where id = ?", [op[1]])


class TestTransactionProperties:
    @settings(max_examples=30, deadline=None)
    @given(operations=_ops)
    def test_rollback_restores_exact_state(self, operations):
        from repro.db import Database, INSTANT

        database = Database(INSTANT)
        database.create_table("t", ("id", "int"), ("v", "text"))
        database.bulk_load("t", [(1, "a"), (2, "b"), (3, "c")])
        try:
            with database.connect() as connection:
                before = sorted(
                    connection.execute_query("select id, v from t").rows
                )
                connection.begin()
                _apply_ops(connection, operations)
                connection.rollback()
                after = sorted(
                    connection.execute_query("select id, v from t").rows
                )
                assert after == before
        finally:
            database.close()

    @settings(max_examples=30, deadline=None)
    @given(operations=_ops)
    def test_commit_equals_autocommit_replay(self, operations):
        from repro.db import Database, INSTANT

        def final_rows(transactional):
            database = Database(INSTANT)
            database.create_table("t", ("id", "int"), ("v", "text"))
            database.bulk_load("t", [(1, "a"), (2, "b"), (3, "c")])
            try:
                with database.connect() as connection:
                    if transactional:
                        connection.begin()
                    _apply_ops(connection, operations)
                    if transactional:
                        connection.commit()
                    return sorted(
                        connection.execute_query("select id, v from t").rows
                    )
            finally:
                database.close()

        assert final_rows(True) == final_rows(False)
