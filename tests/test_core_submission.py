"""The unified submission core: one cache-aware path for every runtime,
with cache entries validated against the server's write-epoch ledger.

ISSUE 2 acceptance: `Connection` and `AioConnection` share one
pipeline; a result cached via the sync client is a hit for the aio
client on the same `Database`; a write through a cache-less connection
is seen by every sibling cache's next lookup; transactional writes take
effect on caches only at commit.
"""

import asyncio
import gc
import weakref

import pytest

from repro.db import Database, INSTANT
from repro.prefetch import ResultCache
from repro.runtime.aio import AioConnection, aio_connect
from tests.helpers import cache_outcome


@pytest.fixture
def users_db():
    database = Database(INSTANT)
    database.create_table(
        "users", ("user_id", "int"), ("name", "text"), ("rating", "int")
    )
    database.bulk_load("users", [(i, f"user-{i}", i % 5) for i in range(50)])
    database.create_index("idx_users", "users", "user_id", unique=True)
    database.create_table("items", ("item_id", "int"), ("price", "int"))
    database.bulk_load("items", [(i, i * 10) for i in range(20)])
    yield database
    database.close()


READ_USER = "SELECT rating FROM users WHERE user_id = ?"
READ_ITEM = "SELECT price FROM items WHERE item_id = ?"
WRITE_USER = "UPDATE users SET rating = ? WHERE user_id = ?"


def lookup(cache, conn, sql, params):
    """``(value, "hit" | "miss" | "bypass")`` for one blocking read."""
    return cache_outcome(cache, lambda: conn.execute_query(sql, params))


class TestServerSideInvalidation:
    def test_cacheless_write_invalidates_sibling_cache(self, users_db):
        """ISSUE acceptance: a write through a connection with *no*
        cache attached is seen by a sibling cache's next lookup."""
        cache = ResultCache(capacity=16)
        reader = users_db.connect(result_cache=cache)
        writer = users_db.connect()  # cache-less
        assert lookup(cache, reader, READ_USER, [7]) == (2, "miss")
        assert lookup(cache, reader, READ_USER, [7]) == (2, "hit")
        writer.execute_update(WRITE_USER, [99, 7])
        assert lookup(cache, reader, READ_USER, [7]) == (99, "miss")
        assert cache.stats.invalidations == 1  # the stale entry, met once
        assert lookup(cache, reader, READ_USER, [7]) == (99, "hit")
        reader.close()
        writer.close()

    def test_cacheless_write_leaves_other_tables_cached(self, users_db):
        cache = ResultCache(capacity=16)
        reader = users_db.connect(result_cache=cache)
        writer = users_db.connect()
        reader.execute_query(READ_USER, [1])
        reader.execute_query(READ_ITEM, [1])
        writer.execute_update(WRITE_USER, [5, 1])
        assert lookup(cache, reader, READ_ITEM, [1]) == (10, "hit")
        assert lookup(cache, reader, READ_USER, [1]) == (5, "miss")
        reader.close()
        writer.close()

    def test_write_invalidates_every_registered_cache(self, users_db):
        """Every cache on the backend sees the write — there is nothing
        to register, so none can be forgotten."""
        first_cache = ResultCache(capacity=8)
        second_cache = ResultCache(capacity=8)
        first = users_db.connect(result_cache=first_cache)
        second = users_db.connect(result_cache=second_cache)
        first.execute_query(READ_USER, [3])
        second.execute_query(READ_USER, [3])
        first.execute_update(WRITE_USER, [40, 3])
        assert lookup(first_cache, first, READ_USER, [3]) == (40, "miss")
        assert lookup(second_cache, second, READ_USER, [3]) == (40, "miss")
        first.close()
        second.close()

    def test_shared_cache_registers_once(self, users_db):
        """Two connections on one cache share its entries, one write
        lapses the shared entry once, and the backend never holds the
        cache (so dropping the connections frees it)."""
        cache = ResultCache(capacity=8)
        first = users_db.connect(result_cache=cache)
        second = users_db.connect(result_cache=cache)
        assert lookup(cache, first, READ_USER, [3]) == (3, "miss")
        assert lookup(cache, second, READ_USER, [3]) == (3, "hit")
        first.execute_update(WRITE_USER, [41, 3])
        assert lookup(cache, second, READ_USER, [3]) == (41, "miss")
        assert lookup(cache, first, READ_USER, [3]) == (41, "hit")
        assert cache.stats.invalidations == 1
        first.close()
        second.close()
        alive = weakref.ref(cache)
        del cache, first, second
        gc.collect()
        assert alive() is None

    def test_transactional_write_invalidates_on_commit(self, users_db):
        cache = ResultCache(capacity=16)
        reader = users_db.connect(result_cache=cache)
        writer = users_db.connect()  # transactions need no cache
        assert lookup(cache, reader, READ_USER, [4]) == (4, "miss")
        writer.begin()
        writer.execute_update(WRITE_USER, [70, 4])
        # Uncommitted: the table is neither served from the cache nor
        # published to it, and the cached entry survives the statement.
        assert lookup(cache, reader, READ_USER, [4])[1] == "bypass"
        assert cache.stats.invalidations == 0
        writer.commit()
        assert lookup(cache, reader, READ_USER, [4]) == (70, "miss")
        assert cache.stats.invalidations == 1
        reader.close()
        writer.close()

    def test_rolled_back_write_does_not_invalidate(self, users_db):
        """A rollback restores the pre-transaction rows, which is what
        the cache holds — no invalidation, the entry stays valid."""
        cache = ResultCache(capacity=16)
        reader = users_db.connect(result_cache=cache)
        writer = users_db.connect()
        assert lookup(cache, reader, READ_USER, [9]) == (4, "miss")
        writer.begin()
        writer.execute_update(WRITE_USER, [70, 9])
        writer.rollback()
        assert lookup(cache, reader, READ_USER, [9]) == (4, "hit")
        assert cache.stats.invalidations == 0
        reader.close()
        writer.close()

    def test_dirty_read_during_open_txn_is_not_cached(self, users_db):
        """Non-txn reads take no table locks, so a reader can observe an
        uncommitted value — but must never *cache* it: after rollback
        that value never existed in any committed state."""
        cache = ResultCache(capacity=16)
        # Dirty reads are an engine artifact (non-txn reads take no
        # locks there; SQLite isolates writers): pin the memory backend.
        reader = users_db.connect(result_cache=cache, backend="memory")
        writer = users_db.connect(backend="memory")
        writer.begin()
        writer.execute_update(WRITE_USER, [99, 7])  # uncommitted
        assert lookup(cache, reader, READ_USER, [7]) == (99, "bypass")  # dirty
        assert (READ_USER, (7,)) not in cache  # ...and not retained
        writer.rollback()
        assert lookup(cache, reader, READ_USER, [7]) == (2, "miss")
        assert (READ_USER, (7,)) in cache  # clean value caches normally
        reader.close()
        writer.close()

    def test_rollback_spoils_overlapping_read_via_version_bump(self, users_db):
        """An owner lease acquired before the transaction's write must
        not publish a value read inside the dirty window: the rollback
        moves the table's epoch, failing the publication check — and a
        reader planned after it does not join the doomed flight."""
        cache = ResultCache(capacity=16)
        ledger = users_db.backend().ledger  # the store connects use
        key = (READ_USER, (7,))
        ticket = ledger.ticket({"users"})
        lease = cache.acquire(key, tables=["users"], ticket=ticket)
        writer = users_db.connect()
        writer.begin()
        writer.execute_update(WRITE_USER, [99, 7])
        dirty = writer.server.execute(READ_USER, (7,)).scalar()  # in-window read
        writer.rollback()
        after = ledger.ticket({"users"})
        assert after != ticket and after[1] == ticket[1]
        late = cache.acquire(key, tables=["users"], ticket=after)
        assert late.is_owner  # displaced the in-flight entry, no join
        cache.complete(lease, dirty, retain=ledger.ticket({"users"}) == ticket)
        cache.complete(late, 2, retain=ledger.ticket({"users"}) == after)
        assert cache.acquire(key, tables=["users"], ticket=after).value == 2
        writer.close()


class TestSharedPipeline:
    def test_aio_and_sync_share_one_pipeline(self, users_db):
        conn = users_db.connect(result_cache=ResultCache(capacity=8))
        aconn = AioConnection(conn)
        assert aconn.pipeline is conn.pipeline
        conn.close()

    def test_sync_fill_is_aio_hit(self, users_db):
        """ISSUE acceptance: a result cached via the sync client is a
        hit for the aio client on the same Database."""
        cache = ResultCache(capacity=16)
        sync_conn = users_db.connect(result_cache=cache)
        assert sync_conn.execute_query(READ_USER, [6]).scalar() == 1
        executed = users_db.server.stats.statements_executed

        async def main():
            aconn = aio_connect(users_db, max_in_flight=4, result_cache=cache)
            try:
                handle = aconn.submit_query(READ_USER, [6])
                assert handle.done()  # cache hit: resolved at submit
                return (await handle).scalar()
            finally:
                aconn.close()

        assert asyncio.run(main()) == 1
        assert users_db.server.stats.statements_executed == executed
        sync_conn.close()

    def test_aio_fill_is_sync_hit(self, users_db):
        cache = ResultCache(capacity=16)

        async def main():
            aconn = aio_connect(users_db, result_cache=cache)
            try:
                return (await aconn.execute_query(READ_USER, [8])).scalar()
            finally:
                aconn.close()

        assert asyncio.run(main()) == 3
        sync_conn = users_db.connect(result_cache=cache)
        executed = users_db.server.stats.statements_executed
        assert sync_conn.execute_query(READ_USER, [8]).scalar() == 3
        assert users_db.server.stats.statements_executed == executed
        assert sync_conn.stats.cache_hits == 1
        sync_conn.close()

    def test_cacheless_write_observed_by_aio_reader(self, users_db):
        """Cross-runtime invalidation: write via a cache-less sync
        connection, then the aio client must re-read fresh data."""
        cache = ResultCache(capacity=16)
        writer = users_db.connect()

        async def read():
            aconn = aio_connect(users_db, result_cache=cache)
            try:
                return (await aconn.execute_query(READ_USER, [2])).scalar()
            finally:
                aconn.close()

        assert asyncio.run(read()) == 2
        writer.execute_update(WRITE_USER, [88, 2])
        assert asyncio.run(read()) == 88
        writer.close()

    def test_aio_stats_still_track_outcomes(self, users_db):
        cache = ResultCache(capacity=16)

        async def main():
            aconn = aio_connect(users_db, result_cache=cache)
            try:
                first = aconn.submit_query(READ_USER, [5])
                await first
                second = aconn.submit_query(READ_USER, [5])  # hit
                await second
                await asyncio.sleep(0)
                return aconn.stats
            finally:
                aconn.close()

        stats = asyncio.run(main())
        assert stats.submitted == 2
        assert stats.completed == 2
        assert cache.stats.hits == 1


class TestWebClientPipeline:
    def test_web_cache_hit_skips_round_trip(self):
        from repro.web import EntityGraphService, WebLatency
        from repro.web.client import WebServiceClient

        service = EntityGraphService(WebLatency())
        service.add_entity("e1", "director", name="one")
        client = WebServiceClient(
            service, async_workers=2, result_cache=ResultCache(capacity=8)
        )
        try:
            first = client.get_entity("e1")
            second = client.get_entity("e1")
            assert first == second
            assert client.stats.cache_hits == 1
            handle = client.submit_get_entity("e1")
            assert handle.done()  # hit resolves at submit
            assert client.fetch_result(handle) == first
        finally:
            client.close()
            service.shutdown()


class TestCacheTtl:
    def test_entry_expires_after_ttl(self):
        now = [0.0]
        cache = ResultCache(capacity=8, ttl_s=10.0, clock=lambda: now[0])
        cache.complete(cache.acquire("k", tables=["t"]), "value")
        assert cache.acquire("k", tables=["t"]).is_hit
        now[0] = 10.0
        lease = cache.acquire("k", tables=["t"])
        assert lease.is_owner  # expired: this lookup re-executes
        assert cache.stats.expirations == 1
        cache.complete(lease, "fresh")
        assert cache.acquire("k", tables=["t"]).value == "fresh"

    def test_ttl_counts_as_miss(self):
        now = [0.0]
        cache = ResultCache(capacity=8, ttl_s=5.0, clock=lambda: now[0])
        cache.complete(cache.acquire("k"), 1)
        now[0] = 6.0
        assert "k" not in cache
        cache.acquire("k")
        assert cache.stats.misses == 2  # initial load + expired lookup

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(ttl_s=0)

    def test_ttl_on_connection_path(self, users_db):
        now = [0.0]
        cache = ResultCache(capacity=16, ttl_s=30.0, clock=lambda: now[0])
        conn = users_db.connect(result_cache=cache)
        store = users_db.backend()  # stats of whichever store conn uses
        conn.execute_query(READ_USER, [3])
        executed = store.stats.statements_executed
        conn.execute_query(READ_USER, [3])  # within TTL: served locally
        assert store.stats.statements_executed == executed
        now[0] = 31.0
        conn.execute_query(READ_USER, [3])  # expired: re-executed
        assert store.stats.statements_executed == executed + 1
        assert cache.stats.expirations == 1
        conn.close()


class TestSingleModuleCacheLookup:
    def test_cache_lookup_lives_only_in_core_submission(self):
        """ISSUE acceptance (grep-equivalent): client/runtime front ends
        carry no cache-lookup code of their own — it lives in the
        submission core's ``CallPipeline`` (``repro.core.calls``)."""
        import inspect

        import repro.client.connection as connection
        import repro.core.calls as calls
        import repro.runtime.aio as aio
        import repro.runtime.executor as executor

        assert "acquire(" in inspect.getsource(calls)
        for module in (connection, aio, executor):
            source = inspect.getsource(module)
            assert ".acquire(" not in source
            assert "is_hit" not in source


class TestSpeculativeDispatch:
    """ISSUE 4 acceptance: speculative handles are tagged, every
    speculation settles as exactly one hit or waste, and a cancelled or
    abandoned speculation never publishes a stale or failed result."""

    def test_handle_is_tagged_and_fetch_settles_a_hit(self, users_db):
        conn = users_db.connect()
        handle = conn.speculate_query(READ_USER, [7])
        assert getattr(handle, "speculative", False) is True
        assert conn.fetch_result(handle).scalar() == 2
        stats = conn.stats
        assert stats.speculations == 1
        assert stats.speculation_hits == 1
        assert stats.speculation_wasted == 0
        conn.close()
        # close drains nothing: the handle was already settled
        assert stats.speculation_wasted == 0

    def test_plain_submit_is_not_speculative(self, users_db):
        conn = users_db.connect()
        handle = conn.submit_query(READ_USER, [7])
        assert not getattr(handle, "speculative", False)
        conn.fetch_result(handle)
        assert conn.stats.speculations == 0
        conn.close()

    def test_abandon_settles_wasted_and_is_idempotent(self, users_db):
        conn = users_db.connect()
        handle = conn.speculate_query(READ_USER, [3])
        assert handle.abandon() is True
        assert handle.abandon() is False
        assert conn.abandon(handle) is False
        stats = conn.stats
        assert (stats.speculation_hits, stats.speculation_wasted) == (0, 1)
        conn.close()
        assert stats.speculation_wasted == 1  # not double-counted by drain

    def test_close_drains_dropped_handles(self, users_db):
        conn = users_db.connect()
        conn.speculate_query(READ_USER, [1])
        conn.speculate_query(READ_USER, [2])
        kept = conn.speculate_query(READ_USER, [3])
        conn.fetch_result(kept)
        stats = conn.stats
        conn.close()
        assert stats.speculations == 3
        assert stats.speculation_hits == 1
        assert stats.speculation_wasted == 2
        assert stats.speculation_hits + stats.speculation_wasted == stats.speculations

    def test_speculating_a_write_is_refused(self, users_db):
        from repro.db import DatabaseError

        conn = users_db.connect()
        with pytest.raises(DatabaseError):
            conn.speculate_query(WRITE_USER, [9, 1])
        conn.close()

    def test_unresolvable_speculation_surfaces_at_fetch(self, users_db):
        conn = users_db.connect()
        handle = conn.speculate_query("SELECT nope FROM users WHERE user_id = ?", [1])
        with pytest.raises(Exception):
            conn.fetch_result(handle)
        conn.close()

    def test_failed_speculation_never_poisons_the_cache(self, users_db):
        cache = ResultCache(capacity=16)
        conn = users_db.connect(result_cache=cache)
        bad = "SELECT nope FROM users WHERE user_id = ?"
        handle = conn.speculate_query(bad, [1])
        with pytest.raises(Exception):
            conn.fetch_result(handle)
        assert (bad, (1,)) not in cache
        assert len(cache) == 0
        # the same read through the normal path still fails cleanly
        with pytest.raises(Exception):
            conn.execute_query(bad, [1])
        conn.close()

    def test_speculation_fill_serves_a_later_real_read(self, users_db):
        cache = ResultCache(capacity=16)
        conn = users_db.connect(result_cache=cache)
        handle = conn.speculate_query(READ_USER, [4])
        assert conn.fetch_result(handle).scalar() == 4
        assert (READ_USER, (4,)) in cache
        before = conn.stats.cache_hits
        assert conn.execute_query(READ_USER, [4]).scalar() == 4
        assert conn.stats.cache_hits == before + 1
        conn.close()

    def test_speculation_inside_txn_bypasses_cache_and_drains(self, users_db):
        """An uncommitted value can never be published: transactional
        reads bypass the cache entirely, speculative or not."""
        cache = ResultCache(capacity=16)
        conn = users_db.connect(result_cache=cache)
        conn.begin()
        handle = conn.speculate_query(READ_USER, [5])
        assert conn.fetch_result(handle).scalar() == 0
        assert (READ_USER, (5,)) not in cache
        assert len(cache) == 0
        conn.commit()
        conn.close()
        assert conn.stats.speculation_hits == 1

    def test_aio_await_settles_a_hit_and_close_drains_the_rest(self, users_db):
        async def main():
            aconn = aio_connect(users_db, max_in_flight=4)
            handle = aconn.speculate_query(READ_USER, [6])
            assert getattr(handle, "speculative", False) is True
            value = await handle
            assert value.scalar() == 1
            aconn.speculate_query(READ_USER, [7])  # dropped
            stats = aconn.pipeline.stats
            aconn.close()
            return stats

        stats = asyncio.run(main())
        assert stats.speculations == 2
        assert stats.speculation_hits == 1
        assert stats.speculation_wasted == 1

    def test_aio_abandon_settles_wasted(self, users_db):
        async def main():
            aconn = aio_connect(users_db, max_in_flight=4)
            handle = aconn.speculate_query(READ_USER, [8])
            assert handle.abandon() is True
            assert handle.abandon() is False
            stats = aconn.pipeline.stats
            aconn.close()
            return stats

        stats = asyncio.run(main())
        assert stats.speculation_wasted == 1


class TestSpeculationCacheProtocol:
    """CallPipeline-level timing tests: in-flight speculations vs.
    writes, cancellation, and single-flight with real reads."""

    def _pipeline(self, cache=None, workers=2):
        from repro.core.submission import CallPipeline, Request
        from repro.runtime.executor import AsyncExecutor

        class Invoke(Request):
            """A request whose round trip is a bare callable."""

            __slots__ = ("round_trip",)

            def __init__(self, invoke, key=None, tables=None):
                Request.__init__(self)
                self.round_trip = invoke
                self.key, self.tables = key, tables

        class Pipeline(CallPipeline):
            # The shape these tests were written against: the transport
            # as a callable, the cache plan as keywords.
            def dispatch(self, invoke, speculative=False, **plan):
                return super().dispatch(Invoke(invoke, **plan), speculative)

            def speculate(self, invoke, **plan):
                return self.dispatch(invoke, speculative=True, **plan)

        return Pipeline(AsyncExecutor(workers, name="spec-test"), cache)

    def test_write_landing_mid_flight_spoils_retention(self):
        import threading

        cache = ResultCache(capacity=8)
        pipeline = self._pipeline(cache)
        started, release = threading.Event(), threading.Event()

        def invoke():
            started.set()
            release.wait(timeout=5)
            return "value"

        handle = pipeline.speculate(invoke, key="k", tables=["t"])
        assert started.wait(timeout=5)
        cache.invalidate_table("t")  # the write lands mid-flight
        release.set()
        # The waiter is served the (now possibly stale) value...
        assert pipeline.fetch(handle) == "value"
        # ...but nothing stale was retained for later readers.
        assert "k" not in cache
        pipeline.executor.close()

    def test_abandoned_queued_speculation_is_cancelled_outright(self):
        import threading

        pipeline = self._pipeline(cache=None, workers=1)
        block, ran = threading.Event(), []

        first = pipeline.speculate(lambda: block.wait(timeout=5))
        queued = pipeline.speculate(lambda: ran.append(1))
        assert queued.cancellable
        assert queued.abandon() is True
        block.set()
        first.result()
        pipeline.drain_speculations()
        pipeline.executor.close()
        assert ran == []  # the cancelled dispatch never executed
        assert pipeline.stats.speculation_wasted == 2

    def test_abandon_never_cancels_a_leased_speculation(self):
        """A real read may have joined the speculation's single flight:
        abandoning must let the execution finish and serve it."""
        import threading

        cache = ResultCache(capacity=8)
        pipeline = self._pipeline(cache)
        started, release = threading.Event(), threading.Event()

        def invoke():
            started.set()
            release.wait(timeout=5)
            return "shared"

        speculation = pipeline.speculate(invoke, key="k", tables=["t"])
        assert not speculation.cancellable
        assert started.wait(timeout=5)
        follower = pipeline.dispatch(
            lambda: pytest.fail("follower must join, not re-execute"),
            key="k",
            tables=["t"],
        )
        speculation.abandon()  # guard turned out false...
        release.set()
        # ...yet the real read is served by the same in-flight execution.
        assert follower.result(timeout=5) == "shared"
        assert pipeline.stats.cache_hits == 1
        pipeline.executor.close()

    def test_a_follower_cannot_cancel_the_shared_flight(self):
        """Only the owner resolves a single-flight entry: cancelling a
        follower's handle (or a hit's) must neither fail the owner nor
        pin a cancelled entry that every later reader would join."""
        import threading

        cache = ResultCache(capacity=8)
        pipeline = self._pipeline(cache)
        started, release = threading.Event(), threading.Event()

        def invoke():
            started.set()
            release.wait(timeout=5)
            return "owned"

        owner = pipeline.dispatch(invoke, key="k", tables=["t"])
        assert started.wait(timeout=5)
        follower = pipeline.dispatch(
            lambda: pytest.fail("follower must join, not re-execute"),
            key="k",
            tables=["t"],
        )
        assert follower.cancel() is False
        release.set()
        assert pipeline.fetch(owner) == "owned"
        assert pipeline.fetch(follower) == "owned"
        later = pipeline.dispatch(
            lambda: pytest.fail("a published entry must hit"), key="k", tables=["t"]
        )
        assert later.done() and later.cancel() is False
        assert pipeline.fetch(later) == "owned"
        assert pipeline.stats.cache_hits == 2
        pipeline.executor.close()

    def test_drain_waits_out_in_flight_speculations(self):
        import threading

        pipeline = self._pipeline()
        started, release = threading.Event(), threading.Event()
        done = []

        def invoke():
            started.set()
            release.wait(timeout=5)
            done.append(1)
            return "late"

        pipeline.speculate(invoke)
        # In flight, not queued: a still-queued abandoned speculation is
        # cancelled outright, which is the other test's subject.
        assert started.wait(timeout=5)
        release.set()
        drained = pipeline.drain_speculations(wait=True)
        assert drained == 1
        assert done == [1]  # the dispatch ran to completion, no leak
        pipeline.executor.close()

    def test_ledger_high_water_sweep_bounds_unsettled_handles(self):
        """A long-lived connection dropping guard-false handles must not
        grow the speculation ledger without bound: past the high-water
        mark, completed-but-unclaimed handles settle as wasted."""
        pipeline = self._pipeline(workers=2)
        pipeline.SPECULATION_HIGH_WATER = 8
        handles = [pipeline.speculate(lambda: "v") for _ in range(40)]
        for handle in handles:
            handle.result()  # all completed, none claimed
        pipeline.speculate(lambda: "v").result()
        with pipeline._spec_lock:
            unsettled = len(pipeline._speculations)
        assert unsettled <= pipeline.SPECULATION_HIGH_WATER + 1
        assert pipeline.stats.speculation_wasted >= 30
        # a late fetch of a swept handle still returns its result
        assert pipeline.fetch(handles[0]) == "v"
        pipeline.drain_speculations()
        pipeline.executor.close()
        stats = pipeline.stats
        assert stats.speculation_hits + stats.speculation_wasted == stats.speculations

    def test_late_claim_reclassifies_a_swept_handle_as_a_hit(self):
        """The sweep guesses a completed-but-unclaimed handle is
        guard-false; a consumer that was merely slow corrects the
        ledger when it finally fetches (waste -> hit, exactly once)."""
        pipeline = self._pipeline(workers=2)
        pipeline.SPECULATION_HIGH_WATER = 2
        handles = [pipeline.speculate(lambda: "v") for _ in range(6)]
        for handle in handles:
            handle.result()  # all completed, none claimed
        pipeline.speculate(lambda: "v").result()  # pushes past high water
        swept = [h for h in handles if h._swept]
        assert swept, "the sweep should have settled completed handles"
        hits, wasted = (
            pipeline.stats.speculation_hits,
            pipeline.stats.speculation_wasted,
        )
        assert pipeline.fetch(swept[0]) == "v"
        assert pipeline.stats.speculation_hits == hits + 1
        assert pipeline.stats.speculation_wasted == wasted - 1
        # Reclassification happens once; a second fetch changes nothing.
        assert pipeline.fetch(swept[0]) == "v"
        assert pipeline.stats.speculation_hits == hits + 1
        pipeline.drain_speculations()
        pipeline.executor.close()
        stats = pipeline.stats
        assert stats.speculation_hits + stats.speculation_wasted == stats.speculations

    def test_drain_wait_is_bounded_for_a_never_completing_follower(self):
        """A speculation that joined another pipeline's in-flight load
        can never be completed by this pipeline; close's drain must time
        out on it rather than hang."""
        import threading
        import time

        cache = ResultCache(capacity=8)
        owner = self._pipeline(cache)
        follower = self._pipeline(cache)
        started, release = threading.Event(), threading.Event()

        def invoke():
            started.set()
            release.wait(timeout=10)
            return "owned"

        owned = owner.dispatch(invoke, key="k", tables=["t"])
        assert started.wait(timeout=5)
        speculation = follower.speculate(
            lambda: pytest.fail("follower must join, not re-execute"),
            key="k",
            tables=["t"],
        )
        assert not speculation.done()
        begin = time.perf_counter()
        assert follower.drain_speculations(wait=True, timeout_s=0.2) == 1
        assert time.perf_counter() - begin < 5
        assert follower.stats.speculation_wasted == 1
        release.set()
        assert owned.result(timeout=5) == "owned"
        owner.executor.close()
        follower.executor.close()
