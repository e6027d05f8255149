"""Unit tests: async executor, query handles, record tables."""

import threading
import time

import pytest

from repro.runtime.executor import AsyncExecutor
from repro.runtime.handles import QueryHandle, completed_handle, failed_handle
from repro.runtime.records import Record, RecordTable


class TestAsyncExecutor:
    def test_submit_and_result(self):
        with AsyncExecutor(2) as executor:
            handle = executor.submit(lambda: 21 * 2)
            assert handle.result() == 42

    def test_parallelism(self):
        gate = threading.Barrier(3, timeout=5)

        def task():
            gate.wait()  # needs 3 concurrent parties: 2 workers + main? no
            return 1

        # Two workers must run two tasks concurrently; the main thread
        # is the third barrier party.
        with AsyncExecutor(2) as executor:
            handles = [executor.submit(task) for _ in range(2)]
            gate.wait()
            assert [h.result() for h in handles] == [1, 1]

    def test_failure_counted_and_raised(self):
        def boom():
            raise ValueError("boom")

        with AsyncExecutor(1) as executor:
            handle = executor.submit(boom)
            with pytest.raises(ValueError):
                handle.result()

    def test_closed_executor_rejects(self):
        executor = AsyncExecutor(1)
        executor.close()
        with pytest.raises(RuntimeError):
            executor.submit(lambda: 1)

    def test_resize(self):
        executor = AsyncExecutor(2)
        executor.resize(5)
        assert executor.workers == 5
        assert executor.submit(lambda: 7).result() == 7
        executor.resize(5)  # no-op
        executor.close()

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            AsyncExecutor(0)
        executor = AsyncExecutor(1)
        with pytest.raises(ValueError):
            executor.resize(0)
        executor.close()

    def test_spawn_cost_charged_once(self):
        executor = AsyncExecutor(4, spawn_cost_s=0.01)
        started = time.perf_counter()
        executor.submit(lambda: 1).result()
        first = time.perf_counter() - started
        started = time.perf_counter()
        executor.submit(lambda: 1).result()
        second = time.perf_counter() - started
        executor.close()
        assert first >= 0.04
        assert second < 0.04


def _workers_alive(name):
    return [t for t in threading.enumerate() if t.name.startswith(f"{name}_")]


class TestAsyncExecutorLifecycle:
    """The executor owns its threads: started at the first submit, named
    ``name_N``, stopped by close/resize after the queued work, and never
    holding a process open."""

    def test_close_runs_the_queued_tasks_then_joins_the_workers(self):
        executor = AsyncExecutor(2, name="lifecycle-close")
        gate, ran = threading.Event(), []
        blockers = [executor.submit(lambda: gate.wait(5)) for _ in range(2)]
        queued = [executor.submit(lambda i=i: ran.append(i)) for i in range(5)]
        assert len(_workers_alive("lifecycle-close")) == 2
        gate.set()
        executor.close()
        assert sorted(ran) == [0, 1, 2, 3, 4]
        assert all(h.done() for h in blockers + queued)
        assert _workers_alive("lifecycle-close") == []

    def test_a_cancelled_queued_task_never_runs(self):
        executor = AsyncExecutor(1, name="lifecycle-cancel")
        gate, ran = threading.Event(), []
        executor.submit(lambda: gate.wait(5))
        queued = executor.submit(lambda: ran.append(1))
        assert queued.cancel()
        gate.set()
        executor.close()
        assert ran == []

    def test_resize_leaves_exactly_the_new_worker_count(self):
        executor = AsyncExecutor(2, name="lifecycle-resize")
        assert executor.submit(lambda: 1).result() == 1
        assert len(_workers_alive("lifecycle-resize")) == 2
        executor.resize(5)
        assert executor.submit(lambda: 2).result() == 2
        assert len(_workers_alive("lifecycle-resize")) == 5
        executor.resize(3)
        assert executor.submit(lambda: 3).result() == 3
        assert len(_workers_alive("lifecycle-resize")) == 3
        executor.close()
        assert _workers_alive("lifecycle-resize") == []

    def test_submits_racing_close_lose_no_accepted_task(self):
        """Four submitters (more threads than cores) race a close under
        a short switch interval: every submit either raises or its task
        runs exactly once before close returns."""
        import sys

        executor = AsyncExecutor(3, name="lifecycle-race")
        lock, ran, accepted = threading.Lock(), [], []

        def task(tag):
            with lock:
                ran.append(tag)

        def submitter(who):
            for i in range(300):
                try:
                    future = executor.submit(lambda tag=(who, i): task(tag))
                except RuntimeError:
                    return
                with lock:
                    accepted.append(future)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submitter, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            while not accepted:
                time.sleep(0.001)
            closer = threading.Thread(target=executor.close)
            closer.start()
            closer.join(timeout=10)
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not closer.is_alive()
        assert not any(thread.is_alive() for thread in threads)
        assert all(future.done() for future in accepted)
        assert len(ran) == len(set(ran)) == len(accepted)
        assert _workers_alive("lifecycle-race") == []

    def test_an_unclosed_connection_does_not_hold_the_process_open(self):
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        program = (
            "from repro import Database, INSTANT\n"
            "db = Database(INSTANT)\n"
            "db.create_table('t', ('a', 'int'))\n"
            "conn = db.connect(async_workers=4)\n"
            "handle = conn.submit_query('SELECT a FROM t')\n"
            "print(len(conn.fetch_result(handle).rows))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", program],
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"


class TestQueryHandle:
    def test_completed_handle(self):
        handle = completed_handle(99)
        assert handle.done()
        assert handle.result() == 99
        assert handle.exception() is None

    def test_failed_handle(self):
        handle = failed_handle(RuntimeError("nope"))
        assert handle.done()
        assert isinstance(handle.exception(), RuntimeError)
        with pytest.raises(RuntimeError):
            handle.result()

    def test_label_and_age(self):
        handle = completed_handle(1)
        assert handle.age_s >= 0
        assert handle.label == ""


class TestRecord:
    def test_attribute_roundtrip(self):
        record = Record(a=1)
        record.b = 2
        assert record.a == 1
        assert record.b == 2

    def test_unassigned_attribute_raises(self):
        record = Record()
        with pytest.raises(AttributeError):
            _ = record.missing


class TestRecordTable:
    def test_add_assigns_keys_in_order(self):
        table = RecordTable()
        keys = [table.add(table.new_record(v=i)) for i in range(5)]
        assert keys == [0, 1, 2, 3, 4]
        assert [record.v for record in table] == [0, 1, 2, 3, 4]
        assert [record.key for record in table] == keys

    def test_clear(self):
        table = RecordTable()
        table.add(table.new_record())
        table.clear()
        assert list(table) == []

    def test_iteration_while_producing_sees_a_key_order_prefix(self):
        table = RecordTable()
        snapshots = []

        def produce():
            for i in range(200):
                table.add(table.new_record(v=i))

        producer = threading.Thread(target=produce)
        producer.start()
        while producer.is_alive():  # read on this thread while it appends
            snapshots.append([record.v for record in table])
        producer.join()
        snapshots.append([record.v for record in table])
        assert snapshots[-1] == list(range(200))
        assert all(seen == list(range(len(seen))) for seen in snapshots)
