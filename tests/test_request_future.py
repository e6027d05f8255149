"""The request path's one-shot future keeps the standard-library
``Future`` contract.

Every case runs twice: on ``concurrent.futures.Future``, the reference,
and on :class:`~repro.runtime.future.RequestFuture`.  The races run
with the interpreter switching threads every microsecond.
"""

import asyncio
import concurrent.futures
import sys
import threading
import time
from concurrent.futures import (
    ALL_COMPLETED,
    FIRST_COMPLETED,
    CancelledError,
    Future,
    InvalidStateError,
    as_completed,
    wait,
)
from concurrent.futures._base import (
    CANCELLED_AND_NOTIFIED,
    FINISHED,
    PENDING,
    _FirstCompletedWaiter,
)
from queue import SimpleQueue

import pytest

from repro.prefetch import cache as cache_module
from repro.prefetch.cache import ResultCache
from repro.runtime.future import RequestFuture

TIMEOUT_S = 10


def claimed(cls):
    """A future of ``cls`` whose run was claimed at construction."""
    if cls is RequestFuture:
        return RequestFuture(running=True)
    future = cls()
    assert future.set_running_or_notify_cancel()
    return future


@pytest.fixture(params=[Future, RequestFuture], ids=["stdlib", "request"])
def cls(request):
    return request.param


@pytest.fixture
def switchy():
    """Switch threads every microsecond for the test's duration."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def run_in_thread(target, *args):
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


def join(thread):
    thread.join(TIMEOUT_S)
    assert not thread.is_alive()


class TestStates:
    def test_cancel_succeeds_only_while_pending(self, cls):
        pending = cls()
        assert pending.cancel() and pending.cancel()
        assert pending.cancelled() and pending.done()
        assert not pending.set_running_or_notify_cancel()
        with pytest.raises(CancelledError):
            pending.result()
        with pytest.raises(CancelledError):
            pending.exception()
        with pytest.raises(InvalidStateError):
            pending.set_result(1)

        running = cls()
        assert running.set_running_or_notify_cancel()
        assert running.running() and not running.done()
        assert not running.cancel()
        running.set_result(2)
        assert not running.cancel()
        assert running.result() == 2 and not running.cancelled()

    def test_a_second_claim_is_refused(self, cls):
        future = cls()
        assert future.set_running_or_notify_cancel()
        with pytest.raises(RuntimeError):
            future.set_running_or_notify_cancel()

    def test_a_future_completes_once(self, cls):
        future = cls()
        future.set_result(1)
        with pytest.raises(InvalidStateError):
            future.set_result(2)
        with pytest.raises(InvalidStateError):
            future.set_exception(ValueError())
        assert future.result() == 1

    def test_result_on_a_pending_future_times_out(self, cls):
        future = cls()
        for timeout in (0, 0.01):
            with pytest.raises(concurrent.futures.TimeoutError):
                future.result(timeout=timeout)
            with pytest.raises(concurrent.futures.TimeoutError):
                future.exception(timeout=timeout)
        future.set_result("late")
        assert future.result(timeout=0) == "late"

    def test_a_set_exception_is_raised_on_every_result(self, cls):
        future = claimed(cls)
        error = ValueError("boom")
        future.set_exception(error)
        for _ in range(3):
            with pytest.raises(ValueError) as raised:
                future.result()
            assert raised.value is error
        assert future.exception() is error and future.done()

    def test_a_cache_entrys_future_refuses_cancel(self, cls, monkeypatch):
        """Neither a follower's handle nor a hit's can cancel the
        entry's future under its owner."""
        monkeypatch.setattr(cache_module, "RequestFuture", lambda running: claimed(cls))
        cache = ResultCache(4)
        owner = cache.acquire("k", tables=["t"])
        follower = cache.acquire("k", tables=["t"])
        assert owner.is_owner and follower.is_follower
        assert type(follower.future) is cls
        assert not follower.future.cancel()
        cache.complete(owner, "v")
        hit = cache.acquire("k", tables=["t"])
        assert hit.is_hit and not hit.future.cancel()
        assert follower.future.result() == hit.future.result() == "v"


class TestCallbacks:
    def test_before_and_after_completion_each_run_once(self, cls):
        future = cls()
        calls = []
        future.add_done_callback(lambda done: calls.append(("before", done)))
        future.set_result(7)
        future.add_done_callback(lambda done: calls.append(("after", done)))
        assert calls == [("before", future), ("after", future)]

    def test_a_cancel_runs_the_callbacks(self, cls):
        future = cls()
        calls = []
        future.add_done_callback(calls.append)
        assert future.cancel()
        assert calls == [future]

    def test_a_failing_callback_does_not_stop_the_next(self, cls):
        future = cls()
        calls = []
        future.add_done_callback(lambda done: 1 / 0)
        future.add_done_callback(calls.append)
        future.set_result(None)
        assert calls == [future]

    def test_racing_completion_each_callback_runs_once(self, cls, switchy):
        for _ in range(500):
            future = claimed(cls)
            calls = []
            thread = run_in_thread(future.set_result, 1)
            future.add_done_callback(calls.append)
            join(thread)
            future.add_done_callback(calls.append)
            assert calls == [future, future]


class TestRaces:
    def test_cancel_racing_a_claim_has_one_winner(self, cls, switchy):
        trials = 3000
        futures = [cls() for _ in range(trials)]
        start = threading.Barrier(2, timeout=TIMEOUT_S)
        ran = []

        def work():
            for future in futures:
                start.wait()
                ran.append(future.set_running_or_notify_cancel())

        worker = run_in_thread(work)
        cancelled = []
        for trial, future in enumerate(futures):
            start.wait()
            if trial % 3 == 0:
                time.sleep(0)  # let the worker go first, mostly
            for _ in range(trial % 16):  # or give it 0-15 loop turns
                pass
            cancelled.append(future.cancel())
        join(worker)
        assert len(ran) == trials
        for future, did_cancel, did_run in zip(futures, cancelled, ran):
            assert did_cancel != did_run
            assert future.cancelled() is did_cancel
        assert any(cancelled) and any(ran), (sum(cancelled), sum(ran))

    @pytest.mark.parametrize("return_when", [ALL_COMPLETED, FIRST_COMPLETED])
    def test_completion_racing_wait_loses_no_wake_up(self, cls, switchy, return_when):
        for trial in range(400):
            futures = [claimed(cls) for _ in range(3)]

            def finish():
                for n, future in enumerate(futures):
                    future.set_result(n)

            thread = run_in_thread(finish)
            seen = SimpleQueue()  # a deadlocked wait fails the join, not the run
            join(run_in_thread(
                lambda: seen.put(wait(futures, timeout=TIMEOUT_S, return_when=return_when))
            ))
            join(thread)
            done, not_done = seen.get(timeout=0)
            if return_when == ALL_COMPLETED:
                assert done == set(futures) and not not_done, trial
            else:
                assert done and all(future.done() for future in done), trial

    def test_as_completed_yields_all_five(self, cls, switchy):
        for _ in range(100):
            futures = [claimed(cls) for _ in range(5)]
            futures[0].set_result(0)

            def finish():
                for n, future in enumerate(futures[1:], 1):
                    future.set_result(n)

            thread = run_in_thread(finish)
            results = sorted(
                future.result() for future in as_completed(futures, timeout=TIMEOUT_S)
            )
            join(thread)
            assert results == [0, 1, 2, 3, 4]

    def test_a_waiter_passes_when_another_thread_completes(self, cls, switchy):
        for _ in range(200):
            future = claimed(cls)
            waiters = [SimpleQueue() for _ in range(3)]
            threads = [
                run_in_thread(lambda out: out.put(future.result(TIMEOUT_S)), out)
                for out in waiters
            ]
            future.set_result("v")
            for thread in threads:
                join(thread)
            assert [out.get(timeout=TIMEOUT_S) for out in waiters] == ["v"] * 3

    def test_the_fields_wait_reads_under_the_condition(self, cls):
        """``wait`` and ``as_completed`` lock ``_condition``, read
        ``_state`` and append to ``_waiters``."""
        finished, cancelled = cls(), cls()
        with finished._condition:
            assert finished._state == PENDING and finished._waiters == []
        finished.set_result(1)
        assert cancelled.cancel()
        assert not cancelled.set_running_or_notify_cancel()
        with finished._condition, cancelled._condition:
            assert finished._state == FINISHED
            assert cancelled._state == CANCELLED_AND_NOTIFIED

    def test_wait_sees_a_cancelled_future_once_notified(self, cls):
        pending, cancelled = cls(), cls()
        assert cancelled.cancel()
        assert not cancelled.set_running_or_notify_cancel()
        done, not_done = wait([pending, cancelled], timeout=0)
        assert done == {cancelled} and not_done == {pending}


class TestLateWatcher:
    """``RequestFuture`` only: the stdlib class completes under its
    condition, so it has no such window.  A watcher that arrives after
    completion read ``_watched`` (False) but before it published
    ``_state`` must still be served: the watcher publishes."""

    class Late(RequestFuture):
        """Runs ``arrive`` right after completion reads the flag."""

        arrive = None

        @property
        def _watched(self):
            watched = self.__dict__.get("watched", False)
            arrive, self.arrive = self.arrive, None
            if arrive is not None:
                arrive(self)
            return watched

        @_watched.setter
        def _watched(self, value):
            self.__dict__["watched"] = value

    def test_a_callback_added_in_the_window_runs(self):
        future, calls = self.Late(running=True), []
        future.arrive = lambda late: late.add_done_callback(calls.append)
        future.set_result(1)
        assert calls == [future]

    def test_wait_in_the_window_counts_the_future_once(self):
        future, pending = self.Late(running=True), claimed(RequestFuture)
        seen = []
        future.arrive = lambda late: seen.append(
            wait([late, pending], timeout=0, return_when=ALL_COMPLETED)
        )
        future.set_result(1)
        assert seen == [({future}, {pending})]
        pending.set_result(2)
        assert wait([future, pending], timeout=TIMEOUT_S).not_done == set()


    def test_unlocking_after_completion_publishes_to_the_new_waiter(self):
        """``wait`` reads ``_condition`` again to unlock it.  A future
        that finished while ``wait`` held the lock is published then,
        by the thread that holds it, to the waiter ``wait`` installed;
        the completion blocked on the lock finds nothing left to do."""
        future, waiter = RequestFuture(running=True), _FirstCompletedWaiter()
        completer = []

        def wait_like():
            future._condition.acquire()
            future._waiters.append(waiter)
            completer.append(run_in_thread(future.set_result, 1))
            while not future.done():
                time.sleep(0.001)
            future._condition.release()

        join(run_in_thread(wait_like))
        join(completer[0])
        assert future._state == FINISHED and future.result() == 1
        assert waiter.event.is_set() and waiter.finished_futures == [future]


class TestAsyncio:
    def test_wrap_future_completed_from_another_thread(self, cls):
        async def main():
            ok, failed = claimed(cls), claimed(cls)
            loop = asyncio.get_running_loop()
            loop.call_soon(lambda: run_in_thread(ok.set_result, "v"))
            loop.call_soon(
                lambda: run_in_thread(failed.set_exception, KeyError("k"))
            )
            assert await asyncio.wait_for(asyncio.wrap_future(ok), TIMEOUT_S) == "v"
            with pytest.raises(KeyError):
                await asyncio.wait_for(asyncio.wrap_future(failed), TIMEOUT_S)

        asyncio.run(main())

    def test_cancelling_the_wrapper_cancels_a_pending_future(self, cls):
        async def main():
            inner = cls()
            outer = asyncio.wrap_future(inner)
            outer.cancel()
            with pytest.raises(asyncio.CancelledError):
                await outer
            return inner

        assert asyncio.run(main()).cancelled()
