"""Tests for the asyncio front end (repro.runtime.aio).

No pytest-asyncio in the environment: each test drives its own event
loop with ``asyncio.run``.
"""

import asyncio

import pytest

from repro.db import Database, INSTANT, DatabaseError
from repro.runtime.aio import (
    AioConnection,
    aio_connect,
    as_completed,
    for_each_completed,
)


@pytest.fixture()
def db():
    database = Database(INSTANT)
    database.create_table("t", ("id", "int"), ("v", "text"))
    database.bulk_load("t", [(i, f"row{i}") for i in range(20)])
    yield database
    database.close()


class TestAioConnection:
    def test_execute_query_awaitable(self, db):
        async def main():
            with aio_connect(db) as conn:
                result = await conn.execute_query(
                    "select v from t where id = ?", [3]
                )
                return result.scalar()

        assert asyncio.run(main()) == "row3"

    def test_submit_then_fetch_in_order(self, db):
        async def main():
            with aio_connect(db, max_in_flight=8) as conn:
                handles = [
                    conn.submit_query("select v from t where id = ?", [i])
                    for i in range(10)
                ]
                return [(await conn.fetch_result(h)).scalar() for h in handles]

        assert asyncio.run(main()) == [f"row{i}" for i in range(10)]

    def test_gather_preserves_submission_order(self, db):
        async def main():
            with aio_connect(db, max_in_flight=4) as conn:
                handles = [
                    conn.submit_query("select v from t where id = ?", [i])
                    for i in (7, 2, 9)
                ]
                results = await conn.gather(handles)
                return [r.scalar() for r in results]

        assert asyncio.run(main()) == ["row7", "row2", "row9"]

    def test_await_handle_directly(self, db):
        async def main():
            with aio_connect(db) as conn:
                handle = conn.submit_query("select count(id) from t")
                return (await handle).scalar()

        assert asyncio.run(main()) == 20

    def test_error_surfaces_at_await(self, db):
        async def main():
            with aio_connect(db) as conn:
                handle = conn.submit_query("select v from missing_table")
                with pytest.raises(DatabaseError):
                    await handle
                # the connection stays usable
                ok = await conn.execute_query("select v from t where id = ?", [0])
                return ok.scalar()

        assert asyncio.run(main()) == "row0"

    def test_update_roundtrip(self, db):
        async def main():
            with aio_connect(db) as conn:
                await conn.execute_update("insert into t values (99, 'new')")
                result = await conn.execute_query(
                    "select v from t where id = ?", [99]
                )
                return result.scalar()

        assert asyncio.run(main()) == "new"

    def test_stats_track_outcomes(self, db):
        async def main():
            with aio_connect(db) as conn:
                good = [conn.submit_query("select v from t where id = ?", [i]) for i in range(3)]
                bad = conn.submit_query("select nope from t")
                await asyncio.gather(*good)
                with pytest.raises(DatabaseError):
                    await bad
                # done-callbacks run on the loop; yield once to let them fire
                await asyncio.sleep(0)
                return conn.stats

        stats = asyncio.run(main())
        assert stats.submitted == 4
        assert stats.completed == 3
        assert stats.failed == 1

    def test_handle_metadata(self, db):
        async def main():
            with aio_connect(db) as conn:
                handle = conn.submit_query("select v from t where id = ?", [1])
                label = handle.label
                await handle
                return label, handle.done(), handle.age_s

        label, done, age = asyncio.run(main())
        assert label.startswith("select v from t")
        assert done
        assert age >= 0.0


class TestCallbackModel:
    def test_as_completed_yields_every_result(self, db):
        async def main():
            with aio_connect(db, max_in_flight=6) as conn:
                handles = [
                    conn.submit_query("select v from t where id = ?", [i])
                    for i in range(6)
                ]
                out = []
                async for result in as_completed(handles):
                    out.append(result.scalar())
                return out

        values = asyncio.run(main())
        assert sorted(values) == [f"row{i}" for i in range(6)]

    def test_for_each_completed_counts(self, db):
        async def main():
            with aio_connect(db, max_in_flight=4) as conn:
                handles = [
                    conn.submit_query("select v from t where id = ?", [i])
                    for i in range(5)
                ]
                seen = []
                count = await for_each_completed(
                    handles, lambda r: seen.append(r.scalar())
                )
                return count, seen

        count, seen = asyncio.run(main())
        assert count == 5
        assert sorted(seen) == [f"row{i}" for i in range(5)]

    def test_coroutine_callback_awaited(self, db):
        async def main():
            with aio_connect(db) as conn:
                handles = [
                    conn.submit_query("select v from t where id = ?", [i])
                    for i in range(3)
                ]
                seen = []

                async def record(result):
                    await asyncio.sleep(0)
                    seen.append(result.scalar())

                await for_each_completed(handles, record)
                return seen

        assert sorted(asyncio.run(main())) == ["row0", "row1", "row2"]


class TestNoLoopMeansNoSideEffect:
    """Calling submit/speculate outside a running loop must raise
    *before* dispatching anything (regression: the dispatch used to
    happen first, so a stray submit_update committed server-side)."""

    def test_submit_without_loop_dispatches_nothing(self):
        from repro.db import Database, INSTANT
        from repro.runtime.aio import AioConnection

        db = Database(INSTANT)
        db.create_table("t", ("k", "int"))
        db.bulk_load("t", [(1,)])
        conn = db.connect(async_workers=2)
        aconn = AioConnection(conn)
        try:
            with pytest.raises(RuntimeError):
                aconn.submit_update("INSERT INTO t (k) VALUES (?)", [2])
            with pytest.raises(RuntimeError):
                aconn.speculate_query("SELECT k FROM t WHERE k = ?", [1])
            assert conn.stats.async_submits == 0
            assert conn.stats.speculations == 0
            assert conn.execute_query("SELECT count(*) FROM t").scalar() == 1
        finally:
            aconn.close()
            db.close()
