"""ResultCache: single-flight, LRU bounds, stats, write invalidation,
and the cache-aware Connection execute path."""

import threading

import pytest

from repro.db import Database, INSTANT
from repro.prefetch import ResultCache


class TestResultCacheCore:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        lease = cache.acquire(("q", (1,)), tables=["t"])
        assert lease.is_owner
        assert cache.complete(lease, "value") == "value"
        again = cache.acquire(("q", (1,)), tables=["t"])
        assert again.is_hit and again.value == "value"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        for index in range(3):
            lease = cache.acquire(("q", (index,)), tables=["t"])
            cache.complete(lease, index)
        assert cache.stats.evictions == 1
        assert ("q", (0,)) not in cache
        assert ("q", (1,)) in cache and ("q", (2,)) in cache

    def test_hit_refreshes_lru_position(self):
        cache = ResultCache(capacity=2)
        for index in range(2):
            cache.complete(cache.acquire(("q", (index,)), tables=["t"]), index)
        assert cache.acquire(("q", (0,)), tables=["t"]).is_hit  # 0 is now MRU
        cache.complete(cache.acquire(("q", (9,)), tables=["t"]), 9)
        assert ("q", (0,)) in cache
        assert ("q", (1,)) not in cache

    def test_failure_is_not_cached(self):
        cache = ResultCache(capacity=4)
        lease = cache.acquire("k")
        cache.fail(lease, RuntimeError("boom"))
        with pytest.raises(RuntimeError):
            lease.future.result()
        assert cache.acquire("k").is_owner  # retried, not served the error

    def test_single_flight_share(self):
        cache = ResultCache(capacity=4)
        owner = cache.acquire("k")
        assert owner.is_owner
        results = []
        started = threading.Barrier(4)

        def follow():
            lease = cache.acquire("k")
            assert lease.is_follower
            started.wait()
            results.append(lease.wait())

        threads = [threading.Thread(target=follow) for _ in range(3)]
        for thread in threads:
            thread.start()
        started.wait()  # all three joined the in-flight load
        cache.complete(owner, "shared")
        for thread in threads:
            thread.join()
        assert results == ["shared"] * 3
        assert cache.stats.shared_flights == 3
        assert cache.stats.misses == 1

    def test_in_flight_entries_are_pinned(self):
        cache = ResultCache(capacity=1)
        pending = cache.acquire("slow")
        for index in range(3):
            cache.complete(cache.acquire(("q", (index,)), tables=["t"]), index)
        assert cache.acquire("slow").is_follower  # never evicted
        cache.complete(pending, "done")
        assert cache.acquire("slow").is_hit

    def test_invalidate_matching_table_only(self):
        cache = ResultCache(capacity=8)
        cache.complete(cache.acquire("users-q", tables=["users"]), 1)
        cache.complete(cache.acquire("items-q", tables=["items"]), 2)
        dropped = cache.invalidate_table("users")
        assert dropped == 1
        assert "users-q" not in cache and "items-q" in cache
        assert cache.stats.invalidations == 1

    def test_wildcard_entry_dropped_on_any_write(self):
        cache = ResultCache(capacity=8)
        cache.complete(cache.acquire("unknown-q"), 1)  # tables unknown
        assert cache.invalidate_table("whatever") == 1
        assert "unknown-q" not in cache

    def test_invalidate_all_on_unknown_write_target(self):
        cache = ResultCache(capacity=8)
        cache.complete(cache.acquire("a", tables=["t1"]), 1)
        cache.complete(cache.acquire("b", tables=["t2"]), 2)
        assert cache.invalidate_table(None) == 2
        assert len(cache) == 0

    def test_invalidation_dooms_in_flight_entry(self):
        cache = ResultCache(capacity=8)
        owner = cache.acquire("q", tables=["users"])
        cache.invalidate_table("users")
        cache.complete(owner, "stale")  # waiters are served...
        assert owner.future.result() == "stale"
        assert "q" not in cache  # ...but the value is not retained


class TestTicketValidation:
    """Lookup-time validation against the caller's ``(epoch,
    committed)`` ticket — the cache's half of the pull-only protocol."""

    def test_published_entry_hits_while_committed_is_unchanged(self):
        cache = ResultCache(capacity=4)
        cache.complete(cache.acquire("k", ["t"], (5, 3)), "old")
        # A rolled-back transaction moved only the epoch: still right.
        assert cache.acquire("k", ["t"], (6, 3)).value == "old"
        assert cache.stats.invalidations == 0

    def test_published_entry_lapses_when_committed_moves(self):
        cache = ResultCache(capacity=4)
        cache.complete(cache.acquire("k", ["t"], (5, 3)), "old")
        lease = cache.acquire("k", ["t"], (6, 4))
        assert lease.is_owner
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == 2
        cache.complete(lease, "new")
        assert cache.acquire("k", ["t"], (6, 4)).value == "new"
        assert cache.stats_snapshot()["completed"] == 1

    def test_in_flight_entry_is_joined_only_under_the_same_ticket(self):
        cache = ResultCache(capacity=4)
        owner = cache.acquire("k", ["t"], (5, 3))
        assert cache.acquire("k", ["t"], (5, 3)).is_follower
        # Same committed data, but a write window opened and closed:
        # the flight may have read inside it.
        late = cache.acquire("k", ["t"], (6, 3))
        assert late.is_owner
        assert cache.stats.invalidations == 1
        cache.complete(owner, "in-window")  # displaced: served, not kept
        assert owner.future.result() == "in-window"
        cache.complete(late, "clean")
        assert cache.acquire("k", ["t"], (6, 3)).value == "clean"

    def test_resolved_but_unpublished_entry_is_not_a_hit(self):
        """Between the owner resolving the future and deciding retention
        the value is shared like a flight — under the whole ticket — not
        served as if it had been validated for keeping."""
        cache = ResultCache(capacity=4)
        owner = cache.acquire("k", ["t"], (5, 3))
        owner.future.set_result("in-window")  # what complete() does first
        assert cache.acquire("k", ["t"], (5, 3)).wait() == "in-window"
        assert cache.acquire("k", ["t"], (6, 3)).is_owner

    def test_callers_without_a_ledger_keep_the_explicit_protocol(self):
        cache = ResultCache(capacity=4)
        cache.complete(cache.acquire("k", ["t"]), "value")
        assert cache.acquire("k", ["t"]).value == "value"
        assert cache.stats.invalidations == 0
        # A ticketed caller never trusts an entry nobody validated.
        assert cache.acquire("k", ["t"], (0, 0)).is_owner

    def test_full_cache_evicts_from_the_lru_front(self):
        cache = ResultCache(capacity=3)
        pinned = cache.acquire("slow", ["t"], (0, 0))  # oldest, in flight
        for index in range(6):
            cache.complete(cache.acquire(index, ["t"], (0, 0)), index)
        assert cache.keys() == ("slow", 3, 4, 5)
        assert cache.stats.evictions == 3
        cache.complete(pinned, "done")
        assert cache.keys() == (4, 5, "slow")
        assert cache.stats_snapshot()["completed"] == 3


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


class TestConnectionCachePath:
    def test_repeated_read_served_from_cache(self, users_db):
        cache = ResultCache(capacity=16)
        conn = users_db.connect(result_cache=cache)
        first = conn.execute_query(READ_USER, [7]).scalar()
        executed = users_db.server.stats.statements_executed
        second = conn.execute_query(READ_USER, [7]).scalar()
        assert first == second == 2
        assert users_db.server.stats.statements_executed == executed
        assert conn.stats.cache_hits == 1
        assert cache.stats.hit_rate > 0
        conn.close()

    def test_submit_query_hit_returns_completed_handle(self, users_db):
        cache = ResultCache(capacity=16)
        conn = users_db.connect(result_cache=cache)
        conn.execute_query(READ_USER, [3])
        handle = conn.submit_query(READ_USER, [3])
        assert handle.done()
        assert conn.fetch_result(handle).scalar() == 3
        assert conn.stats.cache_hits == 1
        conn.close()

    def test_update_invalidates_and_new_data_is_observed(self, users_db):
        """ISSUE acceptance: an execute_update to a table causes
        subsequent reads of that table to miss the cache and observe the
        new data."""
        cache = ResultCache(capacity=16)
        conn = users_db.connect(result_cache=cache)
        assert conn.execute_query(READ_USER, [7]).scalar() == 2
        assert conn.execute_query(READ_USER, [7]).scalar() == 2  # cached
        misses_before = cache.stats.misses
        conn.execute_update(WRITE_USER, [99, 7])
        assert conn.execute_query(READ_USER, [7]).scalar() == 99
        assert cache.stats.misses == misses_before + 1  # re-executed, not stale
        assert cache.stats.invalidations == 1  # the stale entry, met at lookup
        conn.close()

    def test_update_leaves_other_tables_cached(self, users_db):
        cache = ResultCache(capacity=16)
        conn = users_db.connect(result_cache=cache)
        conn.execute_query(READ_USER, [1])
        conn.execute_query(READ_ITEM, [1])
        conn.execute_update(WRITE_USER, [5, 1])
        hits = cache.stats.hits
        assert conn.execute_query(READ_ITEM, [1]).scalar() == 10
        assert cache.stats.hits == hits + 1  # other table: still served
        assert conn.execute_query(READ_USER, [1]).scalar() == 5
        assert cache.stats.hits == hits + 1  # written table: re-executed
        conn.close()

    def test_async_update_invalidates_at_completion(self, users_db):
        cache = ResultCache(capacity=16)
        conn = users_db.connect(result_cache=cache)
        assert conn.execute_query(READ_USER, [4]).scalar() == 4
        handle = conn.submit_update(WRITE_USER, [77, 4])
        conn.fetch_result(handle)
        assert conn.execute_query(READ_USER, [4]).scalar() == 77
        conn.close()

    def test_cache_shared_across_connections(self, users_db):
        cache = ResultCache(capacity=16)
        first = users_db.connect(result_cache=cache)
        second = users_db.connect(result_cache=cache)
        first.execute_query(READ_USER, [9])
        assert second.execute_query(READ_USER, [9]).scalar() == 4
        assert second.stats.cache_hits == 1
        first.close()
        second.close()

    def test_transaction_reads_bypass_cache(self, users_db):
        cache = ResultCache(capacity=16)
        conn = users_db.connect(result_cache=cache)
        with conn.transaction():
            conn.execute_query(READ_USER, [2])
        assert cache.stats.lookups == 0
        assert len(cache) == 0
        conn.close()

    def test_prepared_query_uses_cache(self, users_db):
        cache = ResultCache(capacity=16)
        conn = users_db.connect(result_cache=cache)
        prepared = conn.prepare(READ_USER)
        prepared.bind(1, 6)
        first = conn.execute_query(prepared).scalar()
        second = conn.execute_query(prepared).scalar()
        assert first == second == 1
        assert conn.stats.cache_hits == 1
        conn.close()

    def test_transformed_kernel_with_cache_matches_blocking(self, users_db):
        from repro.transform import asyncify
        from repro.workloads import hotset

        cache = ResultCache(capacity=32)
        ids = [1, 2, 1, 3, 2, 1, 4, 1]
        plain = users_db.connect()
        cached = users_db.connect(result_cache=cache)
        kernel = asyncify(hotset.load_profiles)
        try:
            base = hotset.load_profiles(plain, list(ids))
            assert kernel(cached, list(ids)) == base
            assert cache.stats.hits > 0
        finally:
            plain.close()
            cached.close()
