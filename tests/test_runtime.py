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
        assert "a" in record and "b" in record

    def test_unassigned_attribute_raises(self):
        record = Record()
        with pytest.raises(AttributeError):
            _ = record.missing

    def test_get_with_default(self):
        record = Record(a=1)
        assert record.get("a") == 1
        assert record.get("z", "fallback") == "fallback"

    def test_assigned_listing(self):
        record = Record(b=1, a=2)
        assert record.assigned() == ["a", "b"]


class TestRecordTable:
    def test_add_assigns_keys_in_order(self):
        table = RecordTable()
        keys = [table.add(table.new_record(v=i)) for i in range(5)]
        assert keys == [0, 1, 2, 3, 4]
        assert [record.v for record in table] == [0, 1, 2, 3, 4]
        assert [record.key for record in table] == keys

    def test_len_and_getitem(self):
        table = RecordTable()
        table.add(table.new_record(v=7))
        assert len(table) == 1
        assert table[0].v == 7

    def test_clear(self):
        table = RecordTable()
        table.add(table.new_record())
        table.clear()
        assert len(table) == 0

    def test_drain_fifo(self):
        table = RecordTable()
        for i in range(6):
            table.add(table.new_record(v=i))
        head = table.drain(2)
        assert [record.v for record in head] == [0, 1]
        assert len(table) == 4
        rest = table.drain()
        assert [record.v for record in rest] == [2, 3, 4, 5]
        assert len(table) == 0

    def test_concurrent_producer_consumer(self):
        table = RecordTable()
        consumed = []

        def producer():
            for i in range(200):
                table.add(table.new_record(v=i))

        def consumer():
            while len(consumed) < 200:
                for record in table.drain():
                    consumed.append(record.v)

        threads = [threading.Thread(target=producer), threading.Thread(target=consumer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert consumed == list(range(200))
