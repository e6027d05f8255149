"""The statement lifecycle, pinned where it lives: ``Backend`` itself.

A recording stub implements only the store hooks (dict-backed, no SQL
semantics beyond what ``parse`` gives it), so every ledger call, every
execution and every commit/rollback apply step lands in one ordered
event list.  The cache-coherence protocol — mark-uncommitted → bump
version → execute → broadcast only at autocommit/commit — is asserted
directly here, once, instead of through cache outcomes once per store.
"""

import pytest

from repro.backends import Backend
from repro.db import INSTANT, LatencyMeter, QueryResult
from repro.db.errors import ServerShutdownError, StatementHandleError
from repro.db.txn import TransactionManager

INSERT = "INSERT INTO t VALUES (?)"
COUNT = "SELECT count(*) FROM t"


class RecordingTxns(TransactionManager):
    def __init__(self, events):
        super().__init__(catalog=None)
        self._events = events

    def _apply(self, txn, commit):
        self._events.append("apply-commit" if commit else "apply-rollback")


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

    # -- the store hooks -------------------------------------------------
    def _plan(self, ast):
        return ast, None  # the "plan" is the AST; nothing is demuxable

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

    # -- ledger calls, recorded in order -----------------------------------
    def note_data_change(self, table):
        self.events.append(("note_data_change", table))
        super().note_data_change(table)

    def mark_uncommitted(self, table):
        self.events.append(("mark_uncommitted", table))
        super().mark_uncommitted(table)

    def clear_uncommitted(self, table):
        self.events.append(("clear_uncommitted", table))
        super().clear_uncommitted(table)

    def broadcast_invalidation(self, table):
        self.events.append(("broadcast_invalidation", table))
        return super().broadcast_invalidation(table)


@pytest.fixture
def backend():
    stub = RecordingBackend()
    yield stub
    stub.shutdown()


def drain(stub):
    events, stub.events[:] = list(stub.events), []
    return events


class TestWriteOrdering:
    def test_autocommit_write_bumps_executes_then_broadcasts(self, backend):
        assert backend.execute(INSERT, (1,)).rowcount == 1
        assert drain(backend) == [
            ("note_data_change", "t"),
            "execute",
            ("broadcast_invalidation", "t"),
        ]
        assert backend.stats.writes_executed == 1

    def test_read_touches_no_ledger(self, backend):
        assert backend.execute(COUNT).scalar() == 0
        assert drain(backend) == ["execute"]

    def test_transactional_write_marks_bumps_and_defers_broadcast(self, backend):
        txn = backend.begin_transaction()
        backend.execute(INSERT, (1,), txn)
        assert drain(backend) == [
            ("mark_uncommitted", "t"),
            ("note_data_change", "t"),
            "execute",
        ]
        assert backend.has_uncommitted_writes({"t"})
        backend.execute(INSERT, (2,), txn)  # marked once per txn and table
        assert drain(backend) == [("note_data_change", "t"), "execute"]
        txn.commit()
        assert drain(backend) == [
            "apply-commit",
            ("broadcast_invalidation", "t"),
            ("clear_uncommitted", "t"),
        ]
        assert not backend.has_uncommitted_writes({"t"})

    def test_rollback_bumps_version_and_never_broadcasts(self, backend):
        txn = backend.begin_transaction()
        backend.execute(INSERT, (1,), txn)
        drain(backend)
        token = backend.read_validity({"t"})
        txn.rollback()
        assert drain(backend) == [
            "apply-rollback",
            ("note_data_change", "t"),
            ("clear_uncommitted", "t"),
        ]
        assert backend.read_validity({"t"}) != token
        assert not backend.has_uncommitted_writes({"t"})

    def test_write_batch_runs_per_binding_with_full_semantics(self, backend):
        prepared = backend.prepare(INSERT)
        outcomes = backend.execute_prepared_batch(prepared, [(1,), (2,)])
        assert [outcome.rowcount for outcome in outcomes] == [1, 1]
        events = drain(backend)
        assert events.count("execute") == 2
        assert events.count(("broadcast_invalidation", "t")) == 2
        # Every execution is preceded by its own version bump.
        for position, event in enumerate(events):
            if event == "execute":
                assert events[position - 1] == ("note_data_change", "t")


class TestLifecycle:
    def test_failing_execute_still_decrements_active(self, backend):
        backend.fail = RuntimeError("boom")
        with pytest.raises(RuntimeError):
            backend.execute(INSERT, (1,))
        assert backend.active_during_execute == 1
        snapshot = backend.stats_snapshot()
        assert snapshot["active"] == 0
        assert snapshot["statements_executed"] == 0
        # The bump precedes execution; a failed write never broadcasts.
        assert drain(backend) == [("note_data_change", "t"), "execute"]

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
