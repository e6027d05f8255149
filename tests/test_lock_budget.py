"""Lock sections on the request path, counted and pinned — and the
counters that no longer take one, reconciled.

``threading.Lock`` and ``threading.RLock`` are replaced by counting
wrappers before the database is built, so every lock the stack creates
(the pool's, the heap's read/write lock, the executor's, each
``Condition`` and each request future's gate) reports each acquire; a
try-acquire (``Condition.notify`` asks whether it owns its lock that
way) counts as a section too.  The reads run one thread, at
``INSTANT``, against a small indexed table.
"""

import gc
import sys
import threading
from dataclasses import replace

import pytest

from repro.db import Database, INSTANT, LatencyMeter
from repro.obs.metrics import Counter
from repro.prefetch.cache import ResultCache

SQL = "SELECT name, rating FROM users WHERE user_id = ?"
ROWS = 400
READS = 200


class _Counted:
    """A lock that adds one to ``tally[0]`` per acquire."""

    __slots__ = ("_lock", "_tally")

    def __init__(self, lock, tally):
        self._lock = lock
        self._tally = tally

    def acquire(self, blocking=True, timeout=-1):
        self._tally[0] += 1
        return self._lock.acquire(blocking, timeout)

    def release(self):
        self._lock.release()

    def locked(self):
        return self._lock.locked()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc_info):
        self.release()


class _CountedRLock(_Counted):
    """Also forwards the owner protocol a ``Condition`` uses on an RLock."""

    __slots__ = ()

    def _is_owned(self):
        return self._lock._is_owned()

    def _release_save(self):
        return self._lock._release_save()

    def _acquire_restore(self, state):
        self._tally[0] += 1
        self._lock._acquire_restore(state)


@pytest.fixture
def sections(monkeypatch):
    """``tally[0]`` counts every lock section from here on."""
    tally = [0]
    lock, rlock = threading.Lock, threading.RLock
    monkeypatch.setattr(threading, "Lock", lambda: _Counted(lock(), tally))
    monkeypatch.setattr(threading, "RLock", lambda: _CountedRLock(rlock(), tally))
    return tally


def build_users():
    db = Database(INSTANT)
    db.create_table("users", ("user_id", "int"), ("name", "text"), ("rating", "int"))
    db.bulk_load("users", [(i, f"user-{i}", i % 11 - 5) for i in range(ROWS)])
    db.create_index("idx_users_id", "users", "user_id")
    return db


@pytest.fixture
def users(sections):
    db = build_users()
    yield db
    db.close()


def per_read(sections, read, keys):
    """Lock sections per call of ``read(key)`` over ``keys``."""
    before = sections[0]
    for key in keys:
        read(key)
    return (sections[0] - before) / len(keys)


@pytest.mark.parametrize(
    "backend, budget", [("memory", 4), ("sqlite", 1)]
)
def test_an_uncached_blocking_point_read(users, sections, backend, budget):
    """Memory: the buffer pool's one section for the index and row page
    while both hit, the heap's read lock taken and released, and the
    scan-selectivity histogram.  Sqlite: none of those exist."""
    with users.connect(backend=backend) as conn:
        keys = range(READS)

        def read(key):
            assert conn.execute_query(SQL, (key,)).rows == [
                (f"user-{key}", key % 11 - 5)
            ]

        per_read(sections, read, keys)  # warm: plans, pool, connections
        assert per_read(sections, read, keys) <= budget


def test_an_uncached_blocking_point_read_that_misses(sections):
    """A one-page pool: the index page and the row page both miss on
    every read.  The pool's one section looks both keys up and admits
    each miss, the free disk reads the two pages in one section of its
    own, then the heap's read lock and the histogram, as on a hit."""
    db = Database(replace(INSTANT, buffer_pool_pages=1))
    try:
        db.create_table("users", ("user_id", "int"), ("name", "text"), ("rating", "int"))
        db.bulk_load("users", [(i, f"user-{i}", i % 11 - 5) for i in range(ROWS)])
        db.create_index("idx_users_id", "users", "user_id")
        with db.connect(backend="memory") as conn:
            keys = range(READS)

            def read(key):
                assert conn.execute_query(SQL, (key,)).rows == [
                    (f"user-{key}", key % 11 - 5)
                ]

            per_read(sections, read, keys)  # warm: the plan
            misses = db.buffer.stats.misses
            assert per_read(sections, read, keys) <= 5
            assert db.buffer.stats.misses == misses + 2 * READS
    finally:
        db.close()


@pytest.mark.parametrize("backend, budget", [("memory", 7), ("sqlite", 3)])
def test_a_dispatched_uncached_point_read(users, sections, backend, budget):
    """The blocking read's sections, plus the hand-off: arming the
    request future's gate, the executor's lock at submit, and the
    fetch's wait on the gate.  The worker claims and completes the
    future without a lock."""
    with users.connect(backend=backend, async_workers=1) as conn:
        keys = range(READS)

        def read(key):
            handle = conn.submit_query(SQL, (key,))
            assert conn.fetch_result(handle).rows == [(f"user-{key}", key % 11 - 5)]

        per_read(sections, read, keys)  # warm: plans, pool, the worker
        assert per_read(sections, read, keys) <= budget


@pytest.mark.parametrize("backend, budget", [("memory", 9), ("sqlite", 5)])
def test_a_lone_coalesced_point_read(users, sections, backend, budget):
    """The dispatched read's sections, through the coalescer: its lock
    to queue the request and arm a flusher, and again when the flusher
    takes its batch of one.  The flusher is the batch key's group
    itself, queued as the executor job, so it arms no future of its
    own."""
    with users.connect(backend=backend, async_workers=1, coalesce=True) as conn:
        keys = range(READS)

        def read(key):
            handle = conn.submit_query(SQL, (key,))
            assert conn.fetch_result(handle).rows == [(f"user-{key}", key % 11 - 5)]

        per_read(sections, read, keys)  # warm: plans, pool, the worker
        assert per_read(sections, read, keys) <= budget


@pytest.mark.parametrize("backend, budget", [("memory", 7), ("sqlite", 2)])
def test_a_point_update(users, sections, backend, budget):
    """The ledger's write window, opened and closed.  Memory adds the
    heap's write lock taken and released (with no waiter, nobody is
    woken), the buffer pool's one section for the index and row page,
    the heap's mutation latch and the scan-selectivity histogram; the
    index maintenance reuses the plan's table entry and takes no
    catalog lock.  Sqlite runs one native UPDATE, which takes none."""
    store = users.backend(backend)
    update = store.prepare("UPDATE users SET rating = ? WHERE user_id = ?")
    keys = range(READS)

    def write(key):
        assert store.execute_prepared(update, (key % 7, key)).rowcount == 1

    per_read(sections, write, keys)  # warm: plans, pool, connections
    assert per_read(sections, write, keys) <= budget


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_cache_hit_through_submit_and_fetch(users, sections, backend):
    """The ledger ticket and the cache lookup; the entry's future is
    already resolved, so ``result`` takes no lock, and no counter
    does."""
    with users.connect(
        backend=backend, async_workers=2, result_cache=ResultCache(64)
    ) as conn:
        keys = [key % 16 for key in range(READS)]

        def read(key):
            handle = conn.submit_query(SQL, (key,))
            assert conn.fetch_result(handle).rows == [(f"user-{key}", key % 11 - 5)]

        per_read(sections, read, range(16))  # every key cached
        hits = conn.stats.cache_hits
        assert per_read(sections, read, keys) <= 2
        assert conn.stats.cache_hits == hits + READS


class TestCountersReconcile:
    """Counters kept in per-thread cells lose nothing: not under eight
    threads switching every microsecond, not after those threads have
    exited."""

    THREADS = 8
    N = 200
    TIMEOUT_S = 60

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("threads_alive", [True, False])
    def test_totals_are_exact(self, backend, threads_alive):
        db = build_users()
        try:
            store = db.backend(backend)
            update = store.prepare("UPDATE users SET rating = ? WHERE user_id = ?")
            executed = store.stats_snapshot()["statements_executed"]
            conn = db.connect(backend=backend)
            counter, meter = Counter("ops"), LatencyMeter()
            done = threading.Barrier(self.THREADS + 1, timeout=self.TIMEOUT_S)
            leave = threading.Event()

            def work(worker):
                for k in range(self.N):
                    counter.inc()
                    conn.pipeline.bump("fetches")
                    meter.charge("queue", 0.0)
                    store.execute_prepared(update, (k, worker))
                done.wait()
                leave.wait(self.TIMEOUT_S)

            def finish():
                leave.set()
                for thread in threads:
                    thread.join(self.TIMEOUT_S)
                assert not any(thread.is_alive() for thread in threads)

            threads = [
                threading.Thread(target=work, args=(worker,))
                for worker in range(self.THREADS)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                done.wait()
            finally:
                sys.setswitchinterval(interval)
            if not threads_alive:
                finish()
                gc.collect()
            total = self.THREADS * self.N
            assert counter.value == total
            assert conn.stats.fetches == total
            assert conn.pipeline.stats_snapshot()["fetches"] == total
            assert meter.counts()["queue"] == total
            assert meter.totals()["queue"] == 0.0
            snap = store.stats_snapshot()
            assert snap["statements_executed"] - executed == total
            assert store.stats.writes_executed == snap["writes_executed"] == total
            finish()
            conn.close()
        finally:
            db.close()

    def test_every_snapshot_inside_a_coalesced_flush_reconciles(self, monkeypatch):
        """A snapshot taken after any single counter update of a flush
        reads ``round_trips_saved == coalesced_queries - coalesced_batches``."""
        db = Database(INSTANT)
        try:
            db.create_table("t", ("a", "int"), ("grp", "int"))
            db.bulk_load("t", [(i, i % 4) for i in range(40)])
            conn = db.connect(backend="memory", async_workers=1, coalesce=True)
            pipeline = conn.pipeline
            snapshots = []
            bump = pipeline.bump

            def bump_then_snapshot(field, n=1):
                bump(field, n)
                snapshots.append(pipeline.stats_snapshot())

            monkeypatch.setattr(pipeline, "bump", bump_then_snapshot)
            gate = threading.Event()
            conn.executor.submit(gate.wait)  # submits queue behind it
            handles = [
                conn.submit_query("SELECT count(*) FROM t WHERE grp = ?", [g % 4])
                for g in range(8)
            ]
            gate.set()
            assert [conn.fetch_result(h).scalar() for h in handles] == [10] * 8
            assert conn.stats.round_trips_saved == 7
            assert any(snap["coalesced_batches"] for snap in snapshots)
            for snap in snapshots:
                assert snap["round_trips_saved"] == (
                    snap["coalesced_queries"] - snap["coalesced_batches"]
                )
            conn.close()
        finally:
            db.close()
