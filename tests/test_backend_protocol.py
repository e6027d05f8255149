"""The statement lifecycle, pinned where it lives: ``Backend`` itself.

A recording stub implements only the store hooks (dict-backed, no SQL
semantics beyond what ``parse`` gives it) over a recording ledger, so
every ledger call, every execution and every commit/rollback apply step
lands in one ordered event list.  The write half of the cache-coherence
protocol — ``begin_write`` → execute → ``end_write(committed)``, a
transaction's tables ending inside the commit/rollback boundary — is
asserted directly here, once; the cache outcomes it buys are asserted
per store in ``tests/test_backend_invalidation.py``.
"""

from types import SimpleNamespace

import pytest

from repro.backends import Backend, WriteEpochLedger
from repro.backends.ledger import stripe_of
from repro.core.submission import SubmissionPipeline
from repro.db import INSTANT, LatencyMeter, QueryResult
from repro.db.errors import ServerShutdownError, StatementHandleError
from repro.db.sql.ast_nodes import UpdateStmt
from repro.db.txn import TransactionManager
from repro.prefetch.cache import ResultCache
from repro.runtime.executor import AsyncExecutor

INSERT = "INSERT INTO t VALUES (?)"
COUNT = "SELECT count(*) FROM t"
KEYED_UPDATE = "UPDATE t SET v = ? WHERE id = ?"


class RecordingTxns(TransactionManager):
    def __init__(self, events):
        super().__init__(catalog=None)
        self._events = events
        release_all = self.locks.release_all

        def recording_release(txn):
            events.append("release-locks")
            release_all(txn)

        self.locks.release_all = recording_release

    def _apply(self, txn, commit):
        self._events.append("apply-commit" if commit else "apply-rollback")


class RecordingLedger(WriteEpochLedger):
    """Records every call; a point is recorded only where one is given,
    so a table-wide event reads as before."""

    def __init__(self, events):
        super().__init__()
        self._events = events

    def ticket(self, tables, point=None):
        self._events.append(("ticket", *sorted(tables), *_given(point)))
        return super().ticket(tables, point)

    def begin_write(self, table, point=None):
        self._events.append(("begin_write", table, *_given(point)))
        super().begin_write(table, point)

    def end_write(self, table, committed, point=None):
        self._events.append(("end_write", table, committed, *_given(point)))
        super().end_write(table, committed, point)


def _given(point):
    return () if point is None else (point,)


def point(key):
    """The ledger point of ``WHERE id = key`` on the stub's table."""
    return ("t", "id", stripe_of(key))


class RecordingBackend(Backend):
    backend_name = "recording"

    def __init__(self, max_prepared=Backend.DEFAULT_MAX_PREPARED):
        self.events = []
        self.tables = {}
        self.fail = None
        self.active_during_execute = None
        super().__init__(
            None, INSTANT, LatencyMeter(), RecordingTxns(self.events), max_prepared
        )
        # Swap the recording ledger in for both of its holders.
        self.ledger = RecordingLedger(self.events)
        self.txns.end_write_hook = self.ledger.end_write

    # -- the store hooks -------------------------------------------------
    def _plan(self, ast):
        # Nothing is demuxable, and the one value semantic the stub
        # declares is the keyed UPDATE's footprint.
        footprint = ("id", 1, int) if isinstance(ast, UpdateStmt) else None
        return SimpleNamespace(footprint=footprint), None

    def _execute(self, prepared, params, txn, exec_span):
        self.events.append("execute")
        self.active_during_execute = self.stats_snapshot()["active"]
        if self.fail is not None:
            raise self.fail
        rows = self.tables.setdefault(prepared.table, [])
        if prepared.write:
            rows.append(params)
            return QueryResult(rowcount=1)
        return QueryResult(columns=("n",), rows=[(len(rows),)])


@pytest.fixture
def backend():
    stub = RecordingBackend()
    yield stub
    stub.shutdown()


def ticket(stub):
    """Table ``t``'s ticket, read without recording an event."""
    return WriteEpochLedger.ticket(stub.ledger, {"t"})


def drain(stub):
    events, stub.events[:] = list(stub.events), []
    return events


class TestWriteOrdering:
    def test_autocommit_write_bumps_executes_then_broadcasts(self, backend):
        """An autocommit write runs inside one write window, closed as
        committed."""
        assert backend.execute(INSERT, (1,)).rowcount == 1
        assert drain(backend) == [
            ("begin_write", "t"),
            "execute",
            ("end_write", "t", True),
        ]
        assert backend.stats.writes_executed == 1

    def test_keyed_autocommit_update_opens_a_window_on_its_point(self, backend):
        """``begin_write(t, point)`` → execute → ``end_write(t, True,
        point)``: the footprint's key, bound to exactly its type."""
        backend.execute(KEYED_UPDATE, (9, 7))
        assert drain(backend) == [
            ("begin_write", "t", point(7)),
            "execute",
            ("end_write", "t", True, point(7)),
        ]
        for inexact in ("7", 7.0, True, None):
            backend.execute(KEYED_UPDATE, (9, inexact))
            assert drain(backend) == [
                ("begin_write", "t"),
                "execute",
                ("end_write", "t", True),
            ]
        snapshot = backend.stats_snapshot()
        assert (snapshot["point_writes"], snapshot["table_writes"]) == (1, 4)
        assert snapshot["ledger_stripes"] == 2  # the column's and the stripe's

    def test_read_touches_no_ledger(self, backend):
        assert backend.execute(COUNT).scalar() == 0
        assert drain(backend) == ["execute"]

    def test_cached_read_touches_the_ledger_only_through_ticket(self, backend):
        """One ticket when the request is planned, one at publication;
        a hit re-takes only the first."""
        executor = AsyncExecutor(1)
        pipeline = SubmissionPipeline(backend, executor, cache=ResultCache())
        try:
            assert pipeline.execute(COUNT).scalar() == 0
            assert drain(backend) == [("ticket", "t"), "execute", ("ticket", "t")]
            assert pipeline.execute(COUNT).scalar() == 0
            assert drain(backend) == [("ticket", "t")]
        finally:
            executor.close()

    def test_transactional_write_marks_bumps_and_defers_broadcast(self, backend):
        """A transaction opens a table's window at its first write to
        it and closes it inside the commit boundary, before its locks
        are released."""
        txn = backend.begin_transaction()
        backend.execute(INSERT, (1,), txn)
        assert drain(backend) == [("begin_write", "t"), "execute"]
        backend.execute(INSERT, (2,), txn)  # opened once per txn and table
        assert drain(backend) == ["execute"]
        assert ticket(backend) is None
        txn.commit()
        assert drain(backend) == [
            "apply-commit",
            ("end_write", "t", True),
            "release-locks",
        ]
        assert ticket(backend) == (1, 1)

    def test_transactional_keyed_update_stays_table_wide(self, backend):
        """The transaction holds the table's exclusive lock: its window
        is the table's, whatever the statement's footprint."""
        txn = backend.begin_transaction()
        backend.execute(KEYED_UPDATE, (9, 7), txn)
        assert drain(backend) == [("begin_write", "t"), "execute"]
        assert ticket(backend) is None
        assert WriteEpochLedger.ticket(backend.ledger, {"t"}, point(8)) is None
        txn.commit()
        assert drain(backend)[1] == ("end_write", "t", True)

    def test_rollback_bumps_version_and_never_broadcasts(self, backend):
        """A rollback closes the window uncommitted: the epoch moves,
        ``committed`` does not."""
        txn = backend.begin_transaction()
        backend.execute(INSERT, (1,), txn)
        drain(backend)
        txn.rollback()
        assert drain(backend) == [
            "apply-rollback",
            ("end_write", "t", False),
            "release-locks",
        ]
        assert ticket(backend) == (1, 0)

    def test_write_batch_runs_per_binding_with_full_semantics(self, backend):
        prepared = backend.prepare(INSERT)
        outcomes = backend.execute_prepared_batch(prepared, [(1,), (2,)])
        assert [outcome.rowcount for outcome in outcomes] == [1, 1]
        window = [("begin_write", "t"), "execute", ("end_write", "t", True)]
        # The store declined the batch (an empty window), so every
        # binding ran inside its own.
        assert drain(backend) == window[::2] + window + window

    def test_keyed_write_batch_window_is_the_union_of_its_points(self, backend):
        """A batch the store declines costs empty windows only on the
        scopes its per-binding pass moves anyway; one binding without a
        point makes the batch's window table-wide."""
        prepared = backend.prepare(KEYED_UPDATE)
        backend.execute_prepared_batch(prepared, [(1, 7), (2, 8), (3, 7)])
        events = drain(backend)
        batch, per_binding = events[:4], events[4:]
        assert sorted(batch[:2]) == sorted(
            ("begin_write", "t", point(key)) for key in (7, 8)
        )
        assert sorted(batch[2:]) == sorted(
            ("end_write", "t", True, point(key)) for key in (7, 8)
        )
        assert per_binding == [
            event
            for key in (7, 8, 7)
            for event in (
                ("begin_write", "t", point(key)),
                "execute",
                ("end_write", "t", True, point(key)),
            )
        ]
        backend.execute_prepared_batch(prepared, [(1, 7), (2, "8")])
        assert drain(backend)[:2] == [
            ("begin_write", "t"),
            ("end_write", "t", True),
        ]

    def test_out_of_band_ddl_is_a_window_on_every_table(self, backend):
        backend.invalidate_plans()
        assert drain(backend) == [("begin_write", None), ("end_write", None, True)]
        assert ticket(backend) == (1, 1)


class TestLifecycle:
    def test_failing_execute_still_decrements_active(self, backend):
        backend.fail = RuntimeError("boom")
        with pytest.raises(RuntimeError):
            backend.execute(INSERT, (1,))
        assert backend.active_during_execute == 1
        snapshot = backend.stats_snapshot()
        assert snapshot["active"] == 0
        assert snapshot["statements_executed"] == 0
        # A failed write still closes its window.
        assert drain(backend) == [
            ("begin_write", "t"),
            "execute",
            ("end_write", "t", True),
        ]

    def test_everything_after_shutdown_raises(self):
        stub = RecordingBackend()
        prepared = stub.prepare(COUNT)
        stub.shutdown()
        assert stub.is_shutdown
        for call in (
            lambda: stub.submit(COUNT),
            lambda: stub.submit_prepared(prepared),
            lambda: stub.submit_prepared_batch(prepared, [()]),
            stub.begin_transaction,
        ):
            with pytest.raises(ServerShutdownError):
                call()

    def test_lru_eviction_keeps_handed_out_statement_executable(self):
        stub = RecordingBackend(max_prepared=1)
        try:
            first = stub.prepare(COUNT)
            stub.prepare(INSERT)
            assert stub.stats.evictions == 1
            with pytest.raises(StatementHandleError):
                stub.prepared(first.statement_id)
            assert stub.submit_prepared(first).result().scalar() == 0
        finally:
            stub.shutdown()
