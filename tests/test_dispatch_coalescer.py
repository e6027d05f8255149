"""Set-oriented dispatch: the submit coalescer and its failure paths."""

import random
import threading
from concurrent.futures import CancelledError, Future, wait

import pytest

from repro.core.submission import SubmissionPipeline
from repro.db import Database, INSTANT
from repro.db.errors import ParamCountError
from repro.prefetch.cache import ResultCache
from tests.helpers import cache_outcome, reference_select

SQL = "SELECT count(*) FROM t WHERE grp = ?"
ROW_SQL = "SELECT a FROM t WHERE grp = ? ORDER BY a"


@pytest.fixture
def grouped(db):
    db.create_table("t", ("a", "int"), ("grp", "int"))
    db.bulk_load("t", [(i, i % 4) for i in range(40)])
    return db


def hold_worker(conn):
    """Occupy the connection's (single) async worker; returns the
    release event.  Submits issued while held pile up behind the
    executor — the exact regime the coalescer exploits."""
    gate = threading.Event()
    conn.executor.submit(gate.wait)
    return gate


class TestCoalescing:
    def test_outstanding_submits_merge_into_one_batch(self, grouped):
        conn = grouped.connect(async_workers=1, coalesce=True)
        gate = hold_worker(conn)
        handles = [conn.submit_query(SQL, [g % 4]) for g in range(8)]
        gate.set()
        assert [conn.fetch_result(h).scalar() for h in handles] == [10] * 8
        stats = conn.stats
        assert stats.coalesced_batches == 1
        assert stats.coalesced_queries == 8
        assert stats.round_trips_saved == 7
        assert conn.server.stats.batched_calls == 1
        conn.close()

    def test_results_match_plain_dispatch(self, grouped):
        plain = grouped.connect(async_workers=2)
        merged = grouped.connect(async_workers=1, coalesce=True)
        gate = hold_worker(merged)
        bindings = [0, 3, 1, 3, 2]
        coalesced_handles = [merged.submit_query(ROW_SQL, [g]) for g in bindings]
        gate.set()
        for g, handle in zip(bindings, coalesced_handles):
            expected = plain.execute_query(ROW_SQL, [g])
            got = merged.fetch_result(handle)
            assert list(got) == list(expected)
            assert got.columns == expected.columns
        plain.close()
        merged.close()

    def test_row_and_columnar_coalesced_batches_agree(self, grouped):
        # Differential oracle on the batch path: every binding of a
        # pile of submits, coalesced and demuxed by the columnar
        # engine, must get what the naive row-at-a-time reference
        # answers for that binding alone.
        bindings = [0, 3, 1, 3, 2, 0, 0]
        conn = grouped.connect(async_workers=1, coalesce=True)
        gate = hold_worker(conn)
        handles = [conn.submit_query(ROW_SQL, [g]) for g in bindings]
        gate.set()
        results = [
            (result.columns, list(result))
            for result in map(conn.fetch_result, handles)
        ]
        assert conn.stats.coalesced_batches == 1
        conn.close()
        assert results == [
            reference_select(grouped, ROW_SQL, [g]) for g in bindings
        ]

    def test_dispatch_span_records_strategy(self, grouped):
        # The cost-gated demux decision (shared scan vs per-binding
        # probe) lands on the batched dispatch span.
        conn = grouped.connect(async_workers=1, coalesce=True, trace=True)
        gate = hold_worker(conn)
        handles = [conn.submit_query(SQL, [g % 4]) for g in range(6)]
        gate.set()
        for handle in handles:
            conn.fetch_result(handle)
        conn.close()
        spans = {s["name"]: s for s in grouped.tracer.export()}
        execute = spans["server.execute"]
        assert execute["attrs"]["strategy"] in ("scan", "probe")
        assert execute["attrs"]["demux"] is True
        assert execute["attrs"]["bindings"] == 6
        assert "executor" not in execute["attrs"]

    def test_window_caps_batch_size(self, grouped):
        conn = grouped.connect(async_workers=1, coalesce=True, coalesce_window=3)
        gate = hold_worker(conn)
        handles = [conn.submit_query(SQL, [g % 4]) for g in range(7)]
        gate.set()
        assert [conn.fetch_result(h).scalar() for h in handles] == [10] * 7
        stats = conn.stats
        assert stats.coalesced_queries <= stats.coalesced_batches * 3
        conn.close()

    def test_invalid_window_rejected(self, grouped):
        with pytest.raises(ValueError):
            grouped.connect(coalesce=True, coalesce_window=1)

    def test_idle_submit_dispatches_alone(self, grouped):
        """No queue pressure, no batch: a lone submit takes the plain
        single round trip inside the flusher."""
        conn = grouped.connect(async_workers=2, coalesce=True)
        handle = conn.submit_query(SQL, [0])
        assert conn.fetch_result(handle).scalar() == 10
        assert conn.stats.coalesced_batches == 0
        conn.close()

    def test_different_statements_batch_separately(self, grouped):
        conn = grouped.connect(async_workers=1, coalesce=True)
        gate = hold_worker(conn)
        counts = [conn.submit_query(SQL, [g]) for g in (0, 1)]
        rows = [conn.submit_query(ROW_SQL, [g]) for g in (0, 1)]
        gate.set()
        assert [conn.fetch_result(h).scalar() for h in counts] == [10, 10]
        assert [len(conn.fetch_result(h)) for h in rows] == [10, 10]
        # Two statements, two batches — never mixed.
        assert conn.stats.coalesced_batches == 2
        assert conn.server.stats.batched_calls == 2
        conn.close()

    def test_writes_are_never_coalesced(self, grouped):
        conn = grouped.connect(async_workers=1, coalesce=True)
        gate = hold_worker(conn)
        handles = [
            conn.submit_update("INSERT INTO t (a, grp) VALUES (?, ?)", [100 + n, 9])
            for n in range(3)
        ]
        gate.set()
        assert [conn.fetch_result(h).rowcount for h in handles] == [1, 1, 1]
        assert conn.stats.coalesced_batches == 0
        assert grouped.server.stats.batched_calls == 0
        conn.close()


class TestFaultIsolation:
    def test_bad_binding_faults_only_its_handle(self, grouped):
        conn = grouped.connect(async_workers=1, coalesce=True)
        gate = hold_worker(conn)
        good1 = conn.submit_query(SQL, [0])
        bad = conn.submit_query(SQL, [1, 2])
        good2 = conn.submit_query(SQL, [2])
        gate.set()
        assert conn.fetch_result(good1).scalar() == 10
        with pytest.raises(ParamCountError):
            conn.fetch_result(bad)
        assert conn.fetch_result(good2).scalar() == 10
        # All three still travelled in one batch.
        assert conn.stats.coalesced_batches == 1
        assert conn.stats.coalesced_queries == 3
        conn.close()

    def test_failed_binding_never_publishes_to_cache(self, grouped):
        cache = ResultCache(64)
        conn = grouped.connect(async_workers=1, coalesce=True, result_cache=cache)
        gate = hold_worker(conn)
        good = conn.submit_query(SQL, [0])
        bad = conn.submit_query(SQL, [1, 2])
        gate.set()
        assert conn.fetch_result(good).scalar() == 10
        with pytest.raises(ParamCountError):
            conn.fetch_result(bad)
        assert (SQL, (0,)) in cache
        assert (SQL, (1, 2)) not in cache
        conn.close()

    def test_coalesced_fill_serves_later_reads(self, grouped):
        cache = ResultCache(64)
        conn = grouped.connect(async_workers=1, coalesce=True, result_cache=cache)
        gate = hold_worker(conn)
        handles = [conn.submit_query(SQL, [g]) for g in (0, 1, 2)]
        gate.set()
        for h in handles:
            conn.fetch_result(h)
        hits_before = conn.stats.cache_hits
        assert conn.execute_query(SQL, [1]).scalar() == 10
        assert conn.stats.cache_hits == hits_before + 1
        conn.close()

    def test_duplicate_submits_single_flight_before_the_queue(self, grouped):
        cache = ResultCache(64)
        conn = grouped.connect(async_workers=1, coalesce=True, result_cache=cache)
        gate = hold_worker(conn)
        first = conn.submit_query(SQL, [0])
        second = conn.submit_query(SQL, [0])  # follower joins the lease
        gate.set()
        assert conn.fetch_result(first).scalar() == 10
        assert conn.fetch_result(second).scalar() == 10
        assert conn.stats.cache_hits == 1
        # Only the owner entered the queue: nothing to merge.
        assert conn.stats.coalesced_batches == 0
        conn.close()


class TestSpeculationInteraction:
    def test_queued_leaseless_speculation_abandons_outright(self, grouped):
        conn = grouped.connect(async_workers=1, coalesce=True)  # no cache
        gate = hold_worker(conn)
        executed_before = grouped.server.stats.statements_executed
        handle = conn.speculate_query(SQL, [0])
        assert handle.abandon()
        gate.set()
        conn.close()  # drains; the cancelled entry was dropped unexecuted
        assert handle.future.cancelled()
        assert grouped.server.stats.statements_executed == executed_before
        assert conn.stats.speculation_wasted == 1

    @pytest.mark.parametrize("coalesce", [False, True])
    def test_wasted_speculation_never_publishes_to_cache(self, grouped, coalesce):
        # One publication rule for both dispatches (CallPipeline.publish).
        cache = ResultCache(64)
        conn = grouped.connect(
            async_workers=1, coalesce=coalesce, result_cache=cache
        )
        gate = hold_worker(conn)
        handle = conn.speculate_query(SQL, [3])
        real = conn.submit_query(SQL, [1])  # coalesced: rides in the same batch
        assert handle.abandon()  # leased: not cancelled, still runs…
        gate.set()
        assert conn.fetch_result(real).scalar() == 10
        wait([handle.future], timeout=5)
        # …but its settled-as-waste value is not retained.
        assert (SQL, (3,)) not in cache
        assert (SQL, (1,)) in cache
        assert conn.stats.coalesced_batches == int(coalesce)
        conn.close()

    def test_fetched_coalesced_speculation_counts_a_hit(self, grouped):
        cache = ResultCache(64)
        conn = grouped.connect(async_workers=1, coalesce=True, result_cache=cache)
        gate = hold_worker(conn)
        handle = conn.speculate_query(SQL, [2])
        gate.set()
        assert conn.fetch_result(handle).scalar() == 10
        assert conn.stats.speculation_hits == 1
        # A consumed speculation's value is a legitimate fill.
        assert (SQL, (2,)) in cache
        conn.close()

    def test_close_drains_coalesced_speculations(self, grouped):
        conn = grouped.connect(async_workers=1, coalesce=True)
        gate = hold_worker(conn)
        conn.speculate_query(SQL, [0])
        conn.speculate_query(SQL, [1])
        gate.set()
        conn.close()
        stats = conn.stats
        assert stats.speculations == 2
        assert stats.speculation_hits + stats.speculation_wasted == 2


class TestTransactionInteraction:
    def test_transactional_reads_bypass_the_coalescer(self, grouped):
        conn = grouped.connect(async_workers=2, coalesce=True)
        txn = conn.begin()
        handles = [conn.submit_query(SQL, [g]) for g in (0, 1)]
        assert [conn.fetch_result(h).scalar() for h in handles] == [10, 10]
        assert conn.stats.coalesced_batches == 0
        assert conn.stats.coalesced_queries == 0
        conn.commit()
        conn.close()

    def test_coalesced_read_overlapping_open_txn_is_not_cached(self, grouped):
        cache = ResultCache(64)
        writer = grouped.connect(async_workers=1)
        reader = grouped.connect(async_workers=1, coalesce=True, result_cache=cache)
        writer.begin()
        writer.execute_update("UPDATE t SET a = 999 WHERE grp = 0")
        gate = hold_worker(reader)
        handles = [reader.submit_query(SQL, [g]) for g in (0, 1)]
        gate.set()
        for h in handles:
            reader.fetch_result(h)
        # Uncommitted foreign write: nothing may be retained.
        assert len(cache) == 0
        writer.rollback()
        writer.close()
        reader.close()

    def test_batched_updates_keep_commit_time_invalidation(self, grouped):
        """PR 2 semantics through the set-oriented batch path: an
        autocommit batched write is seen by the next cached read; a
        transactional blocking write only once it commits."""
        from repro.client.batching import BatchExecutor

        cache = ResultCache(64)
        conn = grouped.connect(async_workers=1, coalesce=True, result_cache=cache)
        count = lambda: cache_outcome(cache, lambda: conn.execute_query(SQL, [0]))
        assert count() == (10, "miss")
        assert count() == (10, "hit")
        batch = BatchExecutor(conn)
        batch.execute_batched_updates(
            "INSERT INTO t (a, grp) VALUES (?, ?)", [(400, 0), (401, 0)]
        )
        assert count() == (12, "miss")
        assert count() == (12, "hit")
        # Transactional write: while it is open the table bypasses the
        # cache and the entry stays; it lapses once the commit lands.
        conn.begin()
        conn.execute_update("INSERT INTO t (a, grp) VALUES (?, ?)", [402, 0])
        assert count() == (13, "bypass")
        assert (SQL, (0,)) in cache
        conn.commit()
        assert count() == (13, "miss")
        assert count() == (13, "hit")
        conn.close()


class TestSiteLedger:
    def test_site_stats_key_hits_and_wastes_per_label(self, grouped):
        conn = grouped.connect(async_workers=2)
        hit = conn.speculate_query(SQL, [0], site="card.detail")
        assert conn.fetch_result(hit).scalar() == 10
        waste = conn.speculate_query(SQL, [1], site="card.detail")
        waste.abandon()
        other = conn.speculate_query(SQL, [2], site="feed.preview")
        assert conn.fetch_result(other).scalar() == 10
        sites = conn.site_stats()
        card = sites["card.detail"]
        assert (card.speculations, card.hits, card.wasted) == (2, 1, 1)
        assert card.hit_rate == 0.5
        feed = sites["feed.preview"]
        assert (feed.speculations, feed.hits, feed.wasted) == (1, 1, 0)
        assert feed.hit_rate == 1.0
        conn.close()

    def test_default_site_label_is_statement_text(self, grouped):
        conn = grouped.connect(async_workers=2)
        handle = conn.speculate_query(SQL, [0])
        conn.fetch_result(handle)
        assert conn.site_stats()[SQL[:40]].hits == 1
        conn.close()

    def test_unsettled_sites_report_no_hit_rate(self, grouped):
        conn = grouped.connect(async_workers=1)
        gate = hold_worker(conn)
        conn.speculate_query(SQL, [0], site="pending")
        entry = conn.site_stats()["pending"]
        assert entry.speculations == 1
        assert entry.hit_rate is None
        gate.set()
        conn.close()

    def test_ledger_matches_pipeline_totals(self, grouped):
        conn = grouped.connect(async_workers=2, coalesce=True)
        for n in range(5):
            handle = conn.speculate_query(SQL, [n % 4], site=f"site{n % 2}")
            if n % 2:
                handle.abandon()
            else:
                conn.fetch_result(handle)
        conn.close()
        sites = conn.site_stats().values()
        stats = conn.stats
        assert sum(s.speculations for s in sites) == stats.speculations
        assert sum(s.hits for s in sites) == stats.speculation_hits
        assert sum(s.wasted for s in sites) == stats.speculation_wasted


class TestAioFrontEnd:
    def test_aio_submits_ride_the_same_coalescer(self, grouped):
        import asyncio

        from repro.runtime.aio import aio_connect

        async def main():
            aconn = aio_connect(grouped, max_in_flight=1, coalesce=True)
            gate = hold_worker(aconn.connection)
            handles = [aconn.submit_query(SQL, [g % 4]) for g in range(6)]
            gate.set()
            results = await aconn.gather(handles)
            stats = aconn.pipeline.stats
            assert [r.scalar() for r in results] == [10] * 6
            assert stats.coalesced_batches == 1
            assert stats.coalesced_queries == 6
            aconn.close()

        asyncio.run(main())


class TestBackendIdentity:
    """Two backends live in one process: statement ids are per-backend
    counters, so the coalescer must key batches by (origin, id) and the
    pipeline must re-prepare foreign handles — otherwise a batch built
    against one store can execute against the other."""

    def diverged(self, grouped):
        # Instantiate the sqlite mirror, then write through memory only
        # so the two stores answer the same SQL differently.
        grouped.backend("sqlite")
        with grouped.connect(async_workers=1, backend="memory") as admin:
            admin.execute_update("INSERT INTO t VALUES (100, 0)")
        return grouped

    def test_coalesced_batches_stay_per_backend(self, grouped):
        db = self.diverged(grouped)
        mem = db.connect(async_workers=1, coalesce=True, backend="memory")
        lite = db.connect(async_workers=1, coalesce=True, backend="sqlite")
        with mem, lite:
            gates = [hold_worker(mem), hold_worker(lite)]
            mem_handles = [mem.submit_query(SQL, [0]) for _ in range(4)]
            lite_handles = [lite.submit_query(SQL, [0]) for _ in range(4)]
            for gate in gates:
                gate.set()
            # grp 0 holds 10 seeded rows; only memory got the 11th.
            assert [
                mem.fetch_result(h).scalar() for h in mem_handles
            ] == [11] * 4
            assert [
                lite.fetch_result(h).scalar() for h in lite_handles
            ] == [10] * 4
            assert db.server.stats.batched_calls == 1
            assert db.backend("sqlite").stats.batched_calls == 1

    def test_foreign_prepared_handle_is_re_prepared(self, grouped):
        db = self.diverged(grouped)
        mem = db.connect(async_workers=1, backend="memory")
        lite = db.connect(async_workers=1, coalesce=True, backend="sqlite")
        with mem, lite:
            prepared = mem.prepare(SQL)
            gate = hold_worker(lite)
            handles = [lite.submit_query(prepared, [0]) for _ in range(3)]
            gate.set()
            # Routed to sqlite (the connection's backend), not to the
            # handle's origin server.
            assert [
                lite.fetch_result(h).scalar() for h in handles
            ] == [10] * 3
            assert db.backend("sqlite").stats.batched_calls == 1
            assert db.server.stats.batched_calls == 0

    def test_statement_ids_collide_across_backends(self, grouped):
        # The precondition that makes the (origin, id) key necessary:
        # both stores hand out the same ids independently.
        mem_prepared = grouped.server.prepare(SQL)
        lite_prepared = grouped.backend("sqlite").prepare(SQL)
        assert mem_prepared.statement_id == lite_prepared.statement_id
        assert mem_prepared.origin is grouped.server
        assert lite_prepared.origin is grouped.backend("sqlite")


class HandDrivenExecutor:
    """An executor whose queued tasks run only when the test says so,
    in the order the test picks — and which can be told to refuse the
    n-th task (optionally doing something first, standing in for a
    thread that slips in before the refusal is unwound)."""

    def __init__(self):
        self.tasks = []
        self.submitted = 0
        self.refuse_at = None
        self.before_refusing = None

    def submit(self, task):
        self.submitted += 1
        if self.submitted == self.refuse_at:
            if self.before_refusing is not None:
                self.before_refusing()
            raise RuntimeError("executor refused the task")
        self.tasks.append(task)
        return Future()

    def run_one(self, rng):
        self.tasks.pop(rng.randrange(len(self.tasks)))()

    def run_all(self, rng):
        while self.tasks:
            self.run_one(rng)


class TestFlushersArmedByNeed:
    """Outstanding flusher tasks x window >= queued entries, always: a
    burst costs ceil(N / window) executor tasks, and no entry is ever
    left without a flusher that will reach it."""

    KEY_SQL = "SELECT grp FROM t WHERE a = ?"
    WINDOW = 16

    def pipeline(self, db):
        executor = HandDrivenExecutor()
        pipeline = SubmissionPipeline(
            db.server, executor, coalesce=True, coalesce_window=self.WINDOW
        )
        return pipeline, executor

    def check_invariant(self, pipeline, executor):
        # One statement in play, so every queued task is a flusher for
        # the one group.
        for group in pipeline.coalescer._pending.values():
            assert len(executor.tasks) * self.WINDOW >= len(group.queue)
            assert group.flushers <= len(executor.tasks)

    def test_a_burst_queues_a_flusher_per_window_not_per_binding(self, grouped):
        pipeline, executor = self.pipeline(grouped)
        handles = [pipeline.submit(self.KEY_SQL, (i % 40,)) for i in range(64)]
        assert len(executor.tasks) == 4  # <= 8; one per binding was 64
        self.check_invariant(pipeline, executor)
        executor.run_all(random.Random(0))
        assert [pipeline.fetch(h).scalar() for h in handles] == [
            (i % 40) % 4 for i in range(64)
        ]
        assert pipeline.stats.coalesced_batches == 4
        assert pipeline.stats.coalesced_queries == 64
        assert grouped.server.stats.batched_bindings == 64
        assert not pipeline.coalescer._pending

    @pytest.mark.parametrize("seed", range(6))
    def test_every_handle_resolves_or_raises(self, grouped, seed):
        """Submits interleaved with flushers run in a random order,
        entries cancelled while queued, one flusher refused by the
        executor: the invariant holds after every step and, once the
        executor is drained, every handle has an outcome."""
        rng = random.Random(seed)
        pipeline, executor = self.pipeline(grouped)
        executor.refuse_at = rng.randrange(2, 6)
        handles, refused = {}, 0
        for step in range(200):
            key = rng.randrange(40)
            try:
                handles[step] = (key, pipeline.submit(self.KEY_SQL, (key,)))
            except RuntimeError:
                refused += 1
            self.check_invariant(pipeline, executor)
            if rng.random() < 0.1:
                rng.choice(list(handles.values()))[1].cancel()
            if executor.tasks and rng.random() < 0.15:
                executor.run_one(rng)
                self.check_invariant(pipeline, executor)
        executor.run_all(rng)
        assert not pipeline.coalescer._pending
        assert refused == 1
        cancelled = 0
        for key, handle in handles.values():
            assert handle.done()
            if handle.future.cancelled():
                cancelled += 1
            else:
                assert handle.result(timeout=0).scalar() == key % 4
        assert cancelled > 0
        # Armed by need: nowhere near one task per submit.
        assert executor.submitted < 100

    def test_an_entry_counting_on_a_refused_flusher_is_failed_not_stranded(
        self, grouped
    ):
        pipeline, executor = self.pipeline(grouped)
        executor.refuse_at = 1
        bystander = []
        executor.before_refusing = lambda: bystander.append(
            pipeline.submit(self.KEY_SQL, (5,))
        )
        with pytest.raises(RuntimeError, match="refused"):
            pipeline.submit(self.KEY_SQL, (4,))
        # The bystander enqueued while the refused flusher still counted
        # as outstanding, so it armed none of its own.
        assert executor.submitted == 1 and not executor.tasks
        assert not pipeline.coalescer._pending
        with pytest.raises(RuntimeError, match="refused"):
            bystander[0].result(timeout=0)
        # The coalescer is none the worse: the next submit arms afresh.
        handle = pipeline.submit(self.KEY_SQL, (6,))
        executor.run_all(random.Random(0))
        assert pipeline.fetch(handle).scalar() == 2
