"""Client-side asynchronous executor.

The analog of the ``java.util.concurrent`` Executor framework used by the
paper's transformed programs: a bounded pool of client threads, each of
which performs one blocking round trip at a time.  The pool size is the
"number of threads" axis in Figures 9, 10, 13 and 15.

This is the *dispatch arm* of the unified submission core
(:mod:`repro.core.submission`): the pipeline decides whether a request
needs a round trip at all (cache hit / single-flight follower) and only
then hands the dispatched task here.  Every runtime shares it — the
asyncio front end wraps the produced future rather than stacking a
second pool on top.

A dispatch crosses one queue: ``submit`` puts one ``(future, task)``
item on a C-level ``SimpleQueue`` and returns the future; the
``workers`` threads, all started at the first submit, drain it.  A
worker runs an item only if its future can still move to running, so a
task cancelled while queued (an abandoned speculation) never runs.
``close`` and ``resize`` stop the workers behind the work already
queued.  The threads are daemons, so a program that never closes its
connection still exits, and an executor garbage-collected unclosed
stops its workers.
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import Future
from queue import SimpleQueue
from typing import Any, Callable, List, Optional


def _work(tasks: "SimpleQueue") -> None:
    """One worker thread: run queued ``(future, task)`` items until the
    ``None`` stop, then pass the stop on to the next worker."""
    for future, task in iter(tasks.get, None):
        if future.set_running_or_notify_cancel():
            try:
                future.set_result(task())
            except BaseException as exc:
                future.set_exception(exc)
        # Hold nothing while parked: a task may reference the executor.
        future = task = None
    tasks.put(None)


class AsyncExecutor:
    """A resizable, closable thread pool with a simulated spawn cost."""

    def __init__(
        self,
        workers: int = 10,
        name: str = "async",
        spawn_cost_s: float = 0.0,
    ) -> None:
        """``spawn_cost_s`` is the simulated per-thread startup cost,
        charged once (``workers * spawn_cost_s``) on the first submit —
        the thread-creation overhead the paper blames for the
        transformed program losing at very small iteration counts."""
        if workers < 1:
            raise ValueError("need at least one worker thread")
        self._name = name
        self._workers = workers
        self._spawn_cost_s = spawn_cost_s
        #: The running workers and the queue they drain, both replaced
        #: at the first submit after a resize.
        self._threads: List[threading.Thread] = []
        self._tasks: Optional["SimpleQueue"] = None
        self._lock = threading.Lock()
        self._closed = False

    @property
    def workers(self) -> int:
        return self._workers

    def resize(self, workers: int) -> None:
        """Stop the current workers once the work already queued has run
        and start ``workers`` new ones at the next submit.

        Waits for in-flight work (correct handles matter more than a
        fast resize; benchmarks resize only between runs).
        """
        if workers < 1:
            raise ValueError("need at least one worker thread")
        if workers != self._workers:
            self._workers = workers
            self._stop(wait=True)

    def submit(self, task: Callable[[], Any]) -> "Future[Any]":
        """Queue ``task`` for a worker thread; returns its future."""
        future: "Future[Any]" = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            if not self._threads:
                self._start_locked()
            self._tasks.put((future, task))
        return future

    def close(self, wait: bool = True) -> None:
        """Refuse new work; the work already queued still runs."""
        self._closed = True
        self._stop(wait)

    def _start_locked(self) -> None:
        """Start ``workers`` threads on a fresh queue; the first start
        pays the spawn cost (lock held)."""
        if self._spawn_cost_s:
            from ..db.latency import precise_sleep

            precise_sleep(self._spawn_cost_s * self._workers)
            self._spawn_cost_s = 0.0
        tasks = self._tasks = SimpleQueue()
        weakref.finalize(self, tasks.put, None)
        for i in range(self._workers):
            thread = threading.Thread(
                target=_work, args=(tasks,), name=f"{self._name}_{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _stop(self, wait: bool) -> None:
        """Queue a stop behind the work already queued, then join the
        stopped workers when ``wait``."""
        with self._lock:
            threads, self._threads = self._threads, []
            if threads:
                self._tasks.put(None)
        if wait:
            for thread in threads:
                thread.join()

    def __enter__(self) -> "AsyncExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
