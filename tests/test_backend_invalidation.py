"""Cache coherence is the same on every backend (see docs/BACKENDS.md).

Every backend owns one :class:`~repro.backends.ledger.WriteEpochLedger`;
nothing registers a :class:`ResultCache` anywhere — a cached reader
validates against the ledger of the backend its connection talks to.
These tests pin the contract as **cache outcomes**, on both stores:

* after an autocommit write the next read of that table misses and sees
  the new value, whichever connection wrote; other tables still hit;
* a transaction's writes take effect on caches at commit, never at
  rollback (pre-transaction entries still hit afterwards);
* while a table has an open writer it is neither served from nor
  published to the cache, and nothing computed inside a rolled-back
  window is ever retained;
* ledgers are per backend: a write through one store does not lapse
  entries filled from another;
* the epoch is striped by key: an autocommit ``UPDATE``/``DELETE … WHERE
  col = ?`` lapses the cached reads keyed on the same column *and* key,
  plus every read not keyed on that column — and nothing else; any write
  without a provable footprint lapses the whole table as before.
"""

import os
import sys
import threading
import time

import pytest

from repro.backends import BACKENDS
from repro.db import INSTANT, Database
from repro.prefetch.cache import ResultCache
from tests.helpers import cache_outcome as outcome

READ = "SELECT v FROM t WHERE id = ?"
BUMP = "UPDATE t SET v = v + 1 WHERE id = ?"


@pytest.fixture
def db():
    db = Database(INSTANT)
    db.create_table("t", ("id", "int"), ("v", "int"))
    db.create_table("u", ("id", "int"))
    db.bulk_load("t", [(i, i * 10) for i in range(5)])
    db.bulk_load("u", [(1,)])
    db.backend("sqlite")
    yield db
    db.close()


@pytest.fixture
def cache():
    return ResultCache()


@pytest.fixture
def reader(db, cache, name):
    """A cached connection to the store under test."""
    with db.connect(async_workers=1, result_cache=cache, backend=name) as conn:
        yield conn


@pytest.fixture
def writer(db, name):
    """A cache-less connection to the same store."""
    with db.connect(async_workers=1, backend=name) as conn:
        yield conn


@pytest.mark.parametrize("name", BACKENDS)
class TestAutocommitInvalidation:
    def test_write_invalidates_read_entry(self, cache, reader):
        read = lambda: reader.execute_query(READ, (1,))
        assert outcome(cache, read) == (10, "miss")
        assert outcome(cache, read) == (10, "hit")
        reader.execute_update(BUMP, (1,))
        # The stale entry is met — and dropped — by the next lookup,
        # which re-executes and sees the write.
        assert outcome(cache, read) == (11, "miss")
        assert cache.stats.invalidations == 1
        assert outcome(cache, read) == (11, "hit")

    def test_unrelated_table_write_keeps_entry(self, cache, reader):
        read = lambda: reader.execute_query(READ, (2,))
        assert outcome(cache, read) == (20, "miss")
        reader.execute_update("INSERT INTO u VALUES (9)")
        assert outcome(cache, read) == (20, "hit")
        assert cache.stats.invalidations == 0

    def test_cacheless_writer_invalidates_too(self, cache, reader, writer):
        # The ledger lives server-side: a write through ANY connection
        # to the same backend is seen, not just one holding the cache.
        read = lambda: reader.execute_query(READ, (3,))
        assert outcome(cache, read) == (30, "miss")
        writer.execute_update(BUMP, (3,))
        assert outcome(cache, read) == (31, "miss")
        assert outcome(cache, read) == (31, "hit")

    def test_write_batch_is_seen_by_the_next_read(self, cache, reader):
        count = lambda: reader.execute_query("SELECT count(*) FROM u")
        assert outcome(cache, count) == (1, "miss")
        store = reader.server
        outcomes = store.execute_prepared_batch(
            store.prepare("INSERT INTO u VALUES (?)"), [(7,), (8,)]
        )
        assert [result.rowcount for result in outcomes] == [1, 1]
        assert outcome(cache, count) == (3, "miss")
        assert outcome(cache, count) == (3, "hit")

    def test_a_bulk_load_is_seen_by_the_next_read(self, db, cache, reader):
        count = lambda: reader.execute_query("SELECT count(*) FROM u")
        other = lambda: reader.execute_query(READ, (1,))
        assert outcome(cache, count) == (1, "miss")
        assert outcome(cache, other) == (10, "miss")
        ledger = reader.server.ledger
        windows = ledger.table_writes
        db.bulk_load("u", [(7,), (8,)])
        assert ledger.table_writes == windows + 1  # one window per load
        assert outcome(cache, count) == (3, "miss")
        assert outcome(cache, count) == (3, "hit")
        assert outcome(cache, other) == (10, "hit")

    def test_out_of_band_ddl_lapses_every_table(self, db, cache, reader):
        read = lambda: reader.execute_query(READ, (4,))
        assert outcome(cache, read) == (40, "miss")
        db.create_index("idx_u", "u", "id")
        assert outcome(cache, read) == (40, "miss")
        assert outcome(cache, read) == (40, "hit")


@pytest.mark.parametrize("name", BACKENDS)
class TestCommitBoundary:
    def test_broadcast_happens_only_at_commit(self, cache, reader, writer):
        """A transaction's write reaches cached readers at commit — not
        at the statement, and not before the commit boundary."""
        ledger = reader.server.ledger
        read = lambda: reader.execute_query(READ, (1,))
        assert outcome(cache, read) == (10, "miss")
        writer.begin()
        writer.execute_update(BUMP, (1,))
        # Open writer: no ticket, so the read is not even looked up (the
        # memory engine lets it see the dirty 11, sqlite isolates it)
        # and the pre-transaction entry is untouched.
        assert ledger.ticket({"t"}) is None
        assert outcome(cache, read)[1] == "bypass"
        assert cache.stats.invalidations == 0
        writer.commit()
        assert ledger.ticket({"t"}) is not None
        assert outcome(cache, read) == (11, "miss")
        assert cache.stats.invalidations == 1
        assert outcome(cache, read) == (11, "hit")

    def test_rollback_never_broadcasts(self, cache, reader, writer):
        """A rolled-back write never takes effect on caches: entries
        from before the transaction still hit."""
        ledger = reader.server.ledger
        read = lambda: reader.execute_query(READ, (2,))
        assert outcome(cache, read) == (20, "miss")
        epoch, committed = ledger.ticket({"t"})
        writer.begin()
        writer.execute_update(BUMP, (2,))
        writer.rollback()
        # The restore is a data change (epoch moved, so a read that
        # overlapped the window cannot publish) but not a committed one
        # (the entry is still right).
        assert ledger.ticket({"t"}) == (epoch + 1, committed)
        assert outcome(cache, read) == (20, "hit")
        assert cache.stats.invalidations == 0

    def test_uncommitted_writes_bypass_cache(self, cache, reader, writer):
        read = lambda: reader.execute_query(READ, (4,))
        assert outcome(cache, read) == (40, "miss")
        writer.begin()
        writer.execute_update(BUMP, (4,))
        # While table t has an open writer, cached reads of it neither
        # hit nor publish; other tables are unaffected.
        assert outcome(cache, read)[1] == "bypass"
        other = lambda: reader.execute_query("SELECT count(*) FROM u")
        assert outcome(cache, other) == (1, "miss")
        assert outcome(cache, other) == (1, "hit")
        writer.rollback()
        assert outcome(cache, read) == (40, "hit")

    @pytest.mark.parametrize("finish_first", [False, True])
    def test_read_overlapping_a_rolled_back_window_is_not_retained(
        self, cache, reader, writer, finish_first
    ):
        """A read planned before the transaction's write and executed
        inside (or, ``finish_first``, just after) its window is served
        to its caller but never kept: whatever it saw, the next read
        re-executes against the restored data."""
        gate = threading.Event()
        reader.executor.submit(gate.wait)  # hold the one worker
        handle = reader.submit_query(READ, (0,))  # planned, queued
        writer.begin()
        writer.execute_update(BUMP, (0,))
        if finish_first:
            writer.rollback()
        gate.set()
        assert reader.fetch_result(handle).scalar() in (0, 1)
        if not finish_first:
            writer.rollback()
        read = lambda: reader.execute_query(READ, (0,))
        assert outcome(cache, read) == (0, "miss")


SET = "UPDATE t SET v = ? WHERE id = ?"
BY_V = "SELECT id FROM t WHERE v = ?"
COUNT = "SELECT count(*) FROM t"


def windows(conn):
    """``(point, table)`` write windows the connection's store has closed."""
    snapshot = conn.server.stats_snapshot()
    return snapshot["point_writes"], snapshot["table_writes"]


@pytest.mark.parametrize("name", BACKENDS)
class TestKeyGranularity:
    def test_point_write_lapses_only_its_own_key(self, cache, reader, writer):
        points, tables = windows(reader)
        one = lambda: reader.execute_query(READ, (1,))
        two = lambda: reader.execute_query(READ, (2,))
        assert outcome(cache, one) == (10, "miss")
        assert outcome(cache, two) == (20, "miss")
        writer.execute_update(SET, (11, 1))
        assert outcome(cache, two) == (20, "hit")
        assert outcome(cache, one) == (11, "miss")
        writer.execute_update("DELETE FROM t WHERE id = ?", (2,))
        assert outcome(cache, one) == (11, "hit")
        assert reader.execute_query(READ, (2,)).rows == []
        assert windows(reader) == (points + 2, tables)

    def test_point_write_lapses_reads_not_keyed_on_its_column(
        self, cache, reader, writer
    ):
        by_v = lambda: reader.execute_query(BY_V, (40,))
        count = lambda: reader.execute_query(COUNT)
        keyed_count = lambda: reader.execute_query(COUNT + " WHERE id = ?", (4,))
        assert outcome(cache, by_v) == (4, "miss")
        assert outcome(cache, count) == (5, "miss")
        assert outcome(cache, keyed_count) == (1, "miss")
        writer.execute_update(SET, (40, 3))  # another key, the read's value
        assert reader.execute_query(BY_V, (40,)).rows == [(3,), (4,)]
        assert outcome(cache, count) == (5, "miss")
        assert outcome(cache, keyed_count) == (1, "hit")

    @pytest.mark.parametrize(
        "write",
        [
            ("UPDATE t SET id = ? WHERE id = ?", (7, 3)),  # assigns its key
            ("UPDATE t SET v = ? WHERE id >= ?", (0, 3)),  # a range
            ("UPDATE t SET v = ? WHERE id = 3", (0,)),  # no bound key
            (SET, (0, "3")),  # a key of another type
            (SET, (0, 3.0)),
            (SET, (0, False)),
            ("INSERT INTO t VALUES (?, ?)", (9, 9)),
        ],
    )
    def test_write_without_a_footprint_lapses_the_table(
        self, cache, reader, writer, write
    ):
        points, tables = windows(reader)
        read = lambda: reader.execute_query(READ, (1,))
        assert outcome(cache, read) == (10, "miss")
        writer.execute_update(*write)
        assert outcome(cache, read) == (10, "miss")
        assert windows(reader) == (points, tables + 1)

    def test_transactional_point_write_stays_table_wide(self, cache, reader, writer):
        read = lambda: reader.execute_query(READ, (1,))
        assert outcome(cache, read) == (10, "miss")
        writer.begin()
        writer.execute_update(SET, (0, 3))
        assert outcome(cache, read) == (10, "bypass")
        writer.commit()
        assert outcome(cache, read) == (10, "miss")

    def test_write_batch_lapses_only_the_keys_it_binds(self, cache, reader):
        reads = {
            key: (lambda key=key: reader.execute_query(READ, (key,)))
            for key in (1, 2, 3)
        }
        for key, read in reads.items():
            assert outcome(cache, read) == (key * 10, "miss")
        store = reader.server
        tables = windows(reader)[1]
        store.execute_prepared_batch(store.prepare(SET), [(0, 1), (0, 3), (5, 1)])
        assert outcome(cache, reads[2]) == (20, "hit")
        assert outcome(cache, reads[1]) == (5, "miss")
        assert outcome(cache, reads[3]) == (0, "miss")
        assert windows(reader)[1] == tables
        # One binding without a point widens the batch's own window only.
        store.execute_prepared_batch(store.prepare(SET), [(0, 1), (0, None)])
        assert outcome(cache, reads[2]) == (20, "miss")

    def test_lookalike_bindings_share_an_entry_but_not_a_scope(
        self, cache, reader, writer
    ):
        """``1.0 == 1`` is one cache key; only the int names a point.
        An entry counted over the table must lapse for a lookup counted
        over the point even when the two counters happen to agree — here
        after one write elsewhere (table 1, point 0) and one on the key
        (table 2, point 1)."""
        writer.execute_update(SET, (20, 2))
        assert outcome(cache, lambda: reader.execute_query(READ, (1.0,))) == (10, "miss")
        writer.execute_update(SET, (11, 1))
        assert outcome(cache, lambda: reader.execute_query(READ, (1,))) == (11, "miss")
        assert outcome(cache, lambda: reader.execute_query(READ, (True,))) == (11, "miss")


class TestLedgerIsolation:
    def test_ledgers_are_per_backend(self, db, cache):
        # The stores hold independent copies of the data after seeding;
        # a write through one must not lapse entries keyed to the
        # other's contents.
        lite = db.connect(async_workers=1, result_cache=cache, backend="sqlite")
        mem = db.connect(async_workers=1, backend="memory")
        with lite, mem:
            read = lambda: lite.execute_query(READ, (0,))
            assert outcome(cache, read) == (0, "miss")
            mem.execute_update(BUMP, (0,))
            assert outcome(cache, read) == (0, "hit")
            lite.execute_update(BUMP, (0,))
            assert outcome(cache, read) == (1, "miss")


@pytest.mark.parametrize("name", BACKENDS)
class TestConcurrentReaders:
    def test_no_reader_sees_behind_a_finished_write(self, db, cache, name):
        """Stress the ledger under real threads: one writer counts up,
        more readers than cores read through one shared cache (blocking
        and split).  A read that starts after a write has returned must
        never see an older value — a lost epoch bump would let a stale
        hit through."""
        self.stress(db, cache, name, "UPDATE t SET v = ? WHERE id = 0")

    def test_no_reader_sees_behind_a_finished_point_write(self, db, cache, name):
        """The same under point writes: the counted write names the
        readers' key, and every other one a key they never read, whose
        open window and moved stripe must not hide the first."""
        self.stress(db, cache, name, SET, keys=(0, 1))

    @staticmethod
    def stress(db, cache, name, update, keys=()):
        """Liveness — some read reached the cache and hit — must not
        hang on the scheduler: a write without a footprint (``WHERE id =
        0`` has a literal key) holds the table's window open almost
        continuously, and a read that finds it open bypasses the cache.
        So until the first hit the writer leaves a quiet gap every 50
        writes, and the run lasts until that hit (under a deadline); the
        no-stale-read check is the same throughout."""
        finished = [0]  # the last value whose write has returned
        errors = []
        stop = threading.Event()

        def write():
            with db.connect(async_workers=1, backend=name) as conn:
                value = 0
                while not stop.is_set():
                    value += 1
                    conn.execute_update(update, (value, *keys[:1]))
                    finished[0] = value
                    for key in keys[1:]:
                        conn.execute_update(update, (value, key))
                    if value % 50 == 0 and not cache.stats.hits:
                        time.sleep(0.002)

        def read(conn, split):
            try:
                while not stop.is_set():
                    floor = finished[0]
                    if split:
                        got = conn.fetch_result(conn.submit_query(READ, (0,))).scalar()
                    else:
                        got = conn.execute_query(READ, (0,)).scalar()
                    if got < floor:
                        errors.append(f"read {got} after write {floor} finished")
            except Exception as exc:  # surface it in the main thread
                errors.append(repr(exc))

        conns = [
            db.connect(async_workers=2, result_cache=cache, backend=name)
            for _ in range(2)
        ]
        readers = (os.cpu_count() or 2) + 2
        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=read, args=(conns[i % 2], i % 3 == 0))
            for i in range(readers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.5)
            deadline = time.monotonic() + 20
            while not cache.stats.hits and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
            for conn in conns:
                conn.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert finished[0] > 0 and cache.stats.hits > 0
