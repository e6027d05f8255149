"""Client-side asynchronous executor.

The analog of the ``java.util.concurrent`` Executor framework used by the
paper's transformed programs: a bounded pool of client threads, each of
which performs one blocking round trip at a time.  The pool size is the
"number of threads" axis in Figures 9, 10, 13 and 15.

This is the *dispatch arm* of the unified submission core
(:mod:`repro.core.submission`): the pipeline decides whether a request
needs a round trip at all (cache hit / single-flight follower) and only
then hands the request itself here.  Every runtime shares it — the
asyncio front end awaits the pipeline's own handles rather than
stacking a second pool on top.

A dispatch crosses one queue: ``execute`` puts one *job* — anything
with a ``run()`` method — on a C-level ``SimpleQueue``, and the
``workers`` threads, all started at the first job, drain it, calling
``run()`` on each job and nothing else.  A pipeline's job is the
request: it runs only if its worker wins the one claim token of the
request's :class:`~repro.runtime.future.RequestFuture`, which a
``cancel`` races for without a lock, and otherwise ends as cancelled
(see :meth:`repro.core.calls.Request.run`).  ``submit`` queues a plain
callable as a :class:`_Task` — the callable and its future in one
object, as ``java.util.concurrent``'s ``FutureTask`` — and returns that
future.  Completing a future releases its gate, so the hand-off costs
one lock section to arm and, when the fetch has to wait, one to pass.
``close`` and ``resize`` stop the workers behind the work already
queued.  The threads are daemons, so a program that never closes its
connection still exits, and an executor garbage-collected unclosed
stops its workers.
"""

from __future__ import annotations

import threading
import weakref
from queue import SimpleQueue
from typing import Any, Callable, List, Optional

from .future import RequestFuture


def _work(jobs: "SimpleQueue") -> None:
    """One worker thread: run queued jobs until the ``None`` stop, then
    pass the stop on to the next worker."""
    for job in iter(jobs.get, None):
        job.run()
        # Hold nothing while parked: a job may reference the executor.
        job = None
    jobs.put(None)


class _Task(RequestFuture):
    """A plain callable and its future in one: what :meth:`submit`
    queues.  Its worker runs the callable only if it wins the future's
    claim, so a task cancelled while queued never runs."""

    def __init__(self, fn: Callable[[], Any]) -> None:
        RequestFuture.__init__(self)
        self._fn = fn

    def run(self) -> None:
        fn, self._fn = self._fn, None  # the future outlives the callable
        if self.set_running_or_notify_cancel():
            try:
                self.set_result(fn())
            except BaseException as exc:
                self.set_exception(exc)


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
        #: at the first job after a resize.
        self._threads: List[threading.Thread] = []
        self._jobs: Optional["SimpleQueue"] = None
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

    def submit(self, fn: Callable[[], Any]) -> RequestFuture:
        """Queue ``fn`` for a worker thread; returns its future."""
        task = _Task(fn)
        self.execute(task)
        return task

    def execute(self, job) -> None:
        """Queue ``job`` for a worker thread, which calls ``job.run()``."""
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            if not self._threads:
                self._start_locked()
            self._jobs.put(job)

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
        jobs = self._jobs = SimpleQueue()
        weakref.finalize(self, jobs.put, None)
        for i in range(self._workers):
            thread = threading.Thread(
                target=_work, args=(jobs,), name=f"{self._name}_{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _stop(self, wait: bool) -> None:
        """Queue a stop behind the work already queued, then join the
        stopped workers when ``wait``."""
        with self._lock:
            threads, self._threads = self._threads, []
            if threads:
                self._jobs.put(None)
        if wait:
            for thread in threads:
                thread.join()

    def __enter__(self) -> "AsyncExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
