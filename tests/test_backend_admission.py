"""The admission gate: one thread hop per request, the bound kept.

Statements execute in the thread that called the backend — the caller's
for a blocking call, the client executor's for a submit — holding one
of ``profile.server_workers`` slots.  These tests pin what that must
keep (the concurrency bound through *every* entry, on both stores),
what it must not do (re-enter the gate, hang a caller at shutdown, run
against a closed store, leak a sqlite connection per client thread) and
what it buys (no server-side thread: the stores and the web service
start none).
"""

import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.backends import BACKENDS
from repro.backends.sqlite import SqliteBackend
from repro.client.batching import BatchExecutor
from repro.client.connection import Connection
from repro.db import Database, INSTANT
from repro.db.errors import ServerShutdownError
from repro.db.types import Column, ColumnType, Schema
from repro.obs.trace import Tracer
from repro.web.client import WebServiceClient
from repro.web.service import INSTANT_WEB
from repro.workloads import moviegraph

SELECT = "SELECT v FROM t WHERE id = ?"
UPDATE = "UPDATE t SET v = ? WHERE id = ?"
ROWS = 64
#: Nothing here may hang the suite: every thread is joined under this.
TIMEOUT_S = 20.0


class Store:
    """One backend of the parametrized kind behind a ``workers``-wide
    gate, with table ``t(id, v)`` loaded.  (The sqlite store is built
    directly: ``Database.backend("sqlite")`` always uses INSTANT.)"""

    def __init__(self, kind, workers):
        profile = replace(INSTANT, name=f"gate{workers}", server_workers=workers)
        rows = [(i, i) for i in range(ROWS)]
        if kind == "memory":
            self._db = Database(profile)
            self._db.create_table("t", ("id", "int"), ("v", "int"))
            self._db.bulk_load("t", rows)
            self._db.create_index("t_id", "t", "id")
            self.backend = self._db.server
        else:
            self._db = None
            self.backend = SqliteBackend(profile)
            schema = Schema(
                [Column("id", ColumnType.INT), Column("v", ColumnType.INT)]
            )
            self.backend.mirror_create_table("t", schema)
            self.backend.mirror_load("t", rows)
            self.backend.mirror_create_index("t_id", "t", "id")

    def create_index(self, name, column):
        """Index ``t(column)`` the one way a schema changes (the sqlite
        store's by the mirror ``Database.create_index`` calls)."""
        if self._db is not None:
            self._db.create_index(name, "t", column)
        else:
            self.backend.mirror_create_index(name, "t", column)

    def connect(self, **options):
        return Connection(self.backend, **options)

    def slow_down(self, seconds):
        """Every statement the store executes now takes ``seconds``."""
        run = self.backend._execute

        def slow(prepared, params, txn, exec_span):
            time.sleep(seconds)
            return run(prepared, params, txn, exec_span)

        self.backend._execute = slow

    def close(self):
        if self._db is not None:
            self._db.close()
        else:
            self.backend.shutdown()


@pytest.fixture(params=BACKENDS)
def kind(request):
    return request.param


@pytest.fixture
def open_store(kind):
    stores = []

    def factory(workers):
        stores.append(Store(kind, workers))
        return stores[-1]

    yield factory
    for store in stores:
        store.close()


def run_threads(*targets):
    """Run every target on its own thread; returns their outcomes (the
    return value, or the exception raised) once all finished — in time."""
    outcomes = [None] * len(targets)

    def runner(index, target):
        try:
            outcomes[index] = target()
        except BaseException as exc:
            outcomes[index] = exc

    threads = [
        threading.Thread(target=runner, args=(index, target), daemon=True)
        for index, target in enumerate(targets)
    ]
    for thread in threads:
        thread.start()
    join_all(threads)
    return outcomes


def join_all(threads):
    deadline = time.monotonic() + TIMEOUT_S
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread in threads), "a caller hung"


def wait_until(condition):
    deadline = time.monotonic() + TIMEOUT_S
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def start(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


class TestBound:
    def test_every_entry_shares_the_bound(self, open_store):
        """Blocking reads, submit/fetch and blocking writes from eight
        client threads: never more than ``server_workers`` statements
        inside the store, and the wall clock shows the queueing."""
        store = open_store(2)
        statement_s = 0.02
        store.slow_down(statement_s)

        def client(index):
            def run():
                with store.connect(async_workers=2) as conn:
                    assert conn.execute_query(SELECT, (index,)).scalar() == index
                    handle = conn.submit_query(SELECT, (index + 8,))
                    assert conn.fetch_result(handle).scalar() == index + 8
                    assert conn.execute_update(UPDATE, (-1, index)).rowcount == 1
                return "ok"

            return run

        started = time.perf_counter()
        outcomes = run_threads(*(client(index) for index in range(8)))
        elapsed = time.perf_counter() - started
        assert outcomes == ["ok"] * 8
        statements = 8 * 3
        stats = store.backend.stats_snapshot()
        assert stats["statements_executed"] == statements
        assert 1 <= stats["peak_concurrency"] <= 2
        assert elapsed >= statements / 2 * statement_s * 0.9
        assert stats["admission_waits"] > 0
        assert stats["admission_wait_s"] > 0
        assert stats["active"] == 0

    def test_uncontended_path_never_waits(self, open_store):
        store = open_store(2)
        with store.connect(async_workers=1) as conn:
            for key in range(10):
                assert conn.execute_query(SELECT, (key,)).scalar() == key
        stats = store.backend.stats_snapshot()
        assert stats["admission_waits"] == 0
        assert stats["admission_wait_s"] == 0


class TestNoReentry:
    """``server_workers=1``: anything that took a second slot while
    holding the first would hang."""

    def test_declined_write_batch_runs_under_the_batchs_slot(self, open_store):
        store = open_store(1)
        backend = store.backend
        prepared = backend.prepare(UPDATE)
        bindings = [(100, 1), (200, 2), ("not an int", 3)]
        (outcomes,) = run_threads(
            lambda: backend.execute_prepared_batch(prepared, bindings)
        )
        assert [outcome.rowcount for outcome in outcomes[:2]] == [1, 1]
        assert isinstance(outcomes[2], Exception)
        assert backend.execute(SELECT, (2,)).scalar() == 200

    def test_stale_plan_is_re_prepared_under_the_callers_slot(self, open_store):
        store = open_store(1)
        backend = store.backend
        prepared = backend.prepare(SELECT)
        store.create_index("t_v", "v")
        assert backend.prepare(SELECT) is not prepared  # stale now
        results = run_threads(
            lambda: backend.execute_prepared(prepared, (3,)).scalar(),
            lambda: backend.execute_prepared_batch(prepared, [(4,), (5,)]),
            lambda: backend.submit_prepared(prepared, (6,)).result().scalar(),
        )
        assert results[0] == 3
        assert [outcome.scalar() for outcome in results[1]] == [4, 5]
        assert results[2] == 6


class TestShutdown:
    def entries(self, backend, prepared):
        return (
            lambda: backend.execute(SELECT, (1,)),
            lambda: backend.execute_prepared(prepared, (1,)),
            lambda: backend.execute_prepared_batch(prepared, [(1,)]),
            lambda: backend.submit_prepared(prepared, (1,)),
            backend.begin_transaction,
        )

    def test_in_flight_statement_finishes_before_the_store_closes(
        self, open_store
    ):
        store = open_store(2)
        backend = store.backend
        prepared = backend.prepare(SELECT)
        events = []
        execute, close = backend._execute, backend._close

        def slow_execute(*args):
            time.sleep(0.1)
            result = execute(*args)
            events.append("executed")  # still holding its slot
            return result

        def recording_close():
            events.append("closed")
            close()

        backend._execute, backend._close = slow_execute, recording_close
        results = []
        running = start(
            lambda: results.append(backend.execute_prepared(prepared, (7,)))
        )
        wait_until(lambda: backend.stats_snapshot()["active"] == 1)
        closing = start(backend.shutdown)
        join_all([closing, running])
        assert events == ["executed", "closed"]
        assert results[0].scalar() == 7

    def test_every_entry_raises_afterwards(self, open_store):
        store = open_store(2)
        backend = store.backend
        prepared = backend.prepare(SELECT)
        backend.shutdown()
        outcomes = run_threads(*self.entries(backend, prepared))
        assert [type(outcome) for outcome in outcomes] == (
            [ServerShutdownError] * len(outcomes)
        )
        # The gate is whole again: a second shutdown drains it too.
        (again,) = run_threads(backend.shutdown)
        assert again is None

    def test_callers_waiting_at_a_full_gate_raise(self, open_store):
        """Two callers, both waiting for the one slot when shutdown
        begins: the statement that holds it finishes, the waiters raise
        — nobody hangs, nobody runs on a closed store."""
        store = open_store(1)
        backend = store.backend
        prepared = backend.prepare(SELECT)
        store.slow_down(0.1)
        executed_before = backend.stats_snapshot()["statements_executed"]
        outcomes = {}

        def call(name):
            def run():
                try:
                    outcomes[name] = backend.execute_prepared(
                        prepared, (9,)
                    ).scalar()
                except BaseException as exc:
                    outcomes[name] = exc

            return run

        holder = start(call("holder"))
        wait_until(lambda: backend.stats_snapshot()["active"] == 1)
        waiters = [start(call("waiter")), start(call("second waiter"))]
        wait_until(lambda: backend.stats_snapshot()["admission_waits"] == 2)
        join_all([start(backend.shutdown), holder] + waiters)
        assert outcomes["holder"] == 9
        assert isinstance(outcomes["waiter"], ServerShutdownError)
        assert isinstance(outcomes["second waiter"], ServerShutdownError)
        executed = backend.stats_snapshot()["statements_executed"]
        assert executed == executed_before + 1

    def test_shutdown_without_wait_only_raises_the_flag(self, open_store):
        store = open_store(1)
        backend = store.backend
        prepared = backend.prepare(SELECT)
        (outcome,) = run_threads(lambda: backend.shutdown(wait=False))
        assert outcome is None and backend.is_shutdown
        with pytest.raises(ServerShutdownError):
            backend.execute_prepared(prepared, (1,))


def thread_starts(monkeypatch):
    """The names of every thread started from now on, in start order."""
    names = []
    start_thread = threading.Thread.start

    def recording_start(thread):
        names.append(thread.name)
        start_thread(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return names


class TestOneHop:
    def test_no_server_thread_on_the_request_path(self, open_store, monkeypatch):
        """Connect, a submit/fetch window, blocking writes, a write
        batch, close: every thread started on the way is one of the
        client executor's — requests execute on the client's threads."""
        store = open_store(4)
        started = thread_starts(monkeypatch)
        with store.connect(async_workers=4) as conn:
            for window in range(20):
                handles = [
                    conn.submit_query(SELECT, ((window + slot) % ROWS,))
                    for slot in range(8)
                ]
                for handle in handles:
                    assert conn.fetch_result(handle).scalar() is not None
            for key in range(20):
                assert conn.execute_update(UPDATE, (key, key)).rowcount == 1
            rows = BatchExecutor(conn).execute_batched_updates(
                UPDATE, [(key, key) for key in range(20, 40)]
            )
            assert rows == 20
        assert started
        assert all(name.startswith("client-async_") for name in started), started

    def test_the_web_service_starts_no_thread(self, monkeypatch):
        service = moviegraph.build_service(
            INSTANT_WEB, directors=2, actors_per_director=5
        )
        started = thread_starts(monkeypatch)
        try:
            with WebServiceClient(service, async_workers=4) as client:
                actors = client.list_type("actor")
                handles = [client.submit_get_entity(actor) for actor in actors]
                assert [client.fetch_result(h)["id"] for h in handles] == actors
        finally:
            service.shutdown()
        assert started
        assert all(name.startswith("web-async_") for name in started), started

    def test_a_write_batch_still_overlaps(self, open_store):
        """The fan-out runs on the connection's executor: with four
        client workers and a two-slot gate, two writes execute at once."""
        store = open_store(2)
        store.slow_down(0.02)
        with store.connect(async_workers=4) as conn:
            rows = BatchExecutor(conn).execute_batched_updates(
                UPDATE, [(key, key) for key in range(8)]
            )
        assert rows == 8
        stats = store.backend.stats_snapshot()
        assert stats["peak_concurrency"] == 2
        assert stats["writes_executed"] == 8


class TestSqliteConnections:
    def test_connections_stay_bounded_as_client_threads_come_and_go(self):
        db = Database(INSTANT)
        try:
            db.create_table("t", ("id", "int"), ("v", "int"))
            db.bulk_load("t", [(i, i) for i in range(ROWS)])
            backend = db.backend("sqlite")
            for round_ in range(8):
                with db.connect(async_workers=4, backend="sqlite") as conn:
                    handles = [
                        conn.submit_query(SELECT, (key,)) for key in range(16)
                    ]
                    assert [
                        conn.fetch_result(handle).scalar() for handle in handles
                    ] == list(range(16))
                    for key in range(4):
                        conn.execute_update(UPDATE, (key, key))
                    with conn.transaction():
                        conn.execute_update(UPDATE, (round_, round_))
            bound = backend.profile.server_workers + 1
            assert 1 <= len(backend._connections) <= bound
            # Idle ones are all of them: transactions returned theirs.
            assert sorted(map(id, backend._idle)) == sorted(
                map(id, backend._connections)
            )
        finally:
            db.close()


class TestObservability:
    def test_a_statement_that_waited_says_for_how_long(self, open_store):
        store = open_store(1)
        backend = store.backend
        prepared = backend.prepare(SELECT)
        store.slow_down(0.05)
        tracer = Tracer()
        holder = start(lambda: backend.execute_prepared(prepared, (1,)))
        wait_until(lambda: backend.stats_snapshot()["active"] == 1)
        with store.connect(async_workers=1, tracer=tracer) as conn:
            assert conn.execute_query(SELECT, (2,)).scalar() == 2  # waits
            assert conn.execute_query(SELECT, (3,)).scalar() == 3  # does not
        join_all([holder])
        waited, free = [
            span["attrs"]
            for span in tracer.export()
            if span["name"] == "server.execute"
        ]
        assert 0 < waited["queued_s"] <= 0.05 + 1.0
        assert "queued_s" not in free
        stats = backend.stats_snapshot()
        assert stats["admission_waits"] == 1
        assert stats["admission_wait_s"] == pytest.approx(waited["queued_s"])

    def test_counters_reach_the_stats_document(self):
        with Database(INSTANT) as db:
            server = db.stats_snapshot()["sources"]["server"]
            assert server["admission_waits"] == 0
            assert server["admission_wait_s"] == 0


class TestStress:
    """More threads than cores, a switch interval short enough to
    interleave them mid-statement, every entry and a failing statement
    in the mix: a lost slot, a leaked connection or a lost flusher would
    break one of the closing invariants."""

    THREADS = 12
    ROUNDS = 60

    @pytest.fixture(autouse=True)
    def short_switch_interval(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        yield
        sys.setswitchinterval(interval)

    def test_slots_bound_and_connections_survive_thread_churn(self, open_store):
        workers = 3
        store = open_store(workers)
        backend = store.backend
        select, update = backend.prepare(SELECT), backend.prepare(UPDATE)
        inside, peak, guard = [0], [0], threading.Lock()
        execute = backend._execute

        def counting_execute(*args):
            with guard:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
            try:
                return execute(*args)
            finally:
                with guard:
                    inside[0] -= 1

        backend._execute = counting_execute

        def client(index):
            def run():
                for round_ in range(self.ROUNDS):
                    key = (index * self.ROUNDS + round_) % ROWS
                    assert backend.execute_prepared(select, (key,)).rows
                    outcomes = backend.execute_prepared_batch(
                        select, [(key,), (key, key)]
                    )
                    assert outcomes[0].rows
                    assert isinstance(outcomes[1], Exception)
                    future = backend.submit_prepared(update, (key, key))
                    assert future.result(TIMEOUT_S).rowcount == 1
                    with pytest.raises(Exception):
                        backend.execute_prepared(select, ())  # slot returned?
                return "ok"

            return run

        outcomes = run_threads(*(client(i) for i in range(self.THREADS)))
        assert outcomes == ["ok"] * self.THREADS
        assert 1 <= peak[0] <= workers
        assert backend._gate.qsize() == workers
        stats = backend.stats_snapshot()
        assert stats["active"] == 0
        assert stats["peak_concurrency"] <= workers
        if isinstance(backend, SqliteBackend):
            assert len(backend._connections) <= workers + 1
            assert len(backend._idle) == len(backend._connections)

    def test_coalesced_submits_from_many_threads_all_resolve(self, open_store):
        store = open_store(4)
        with store.connect(
            async_workers=2, coalesce=True, coalesce_window=4
        ) as conn:

            def client(index):
                def run():
                    for round_ in range(self.ROUNDS):
                        keys = [(index + round_ + slot) % ROWS for slot in range(6)]
                        handles = [conn.submit_query(SELECT, (key,)) for key in keys]
                        for key, handle in zip(keys, handles):
                            assert handle.result(TIMEOUT_S).rows
                    return "ok"

                return run

            outcomes = run_threads(*(client(i) for i in range(self.THREADS)))
            assert outcomes == ["ok"] * self.THREADS
            assert not conn.pipeline.coalescer._pending
            submitted = self.THREADS * self.ROUNDS * 6
            assert conn.stats.async_submits == submitted
