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
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable


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
        self._started = False
        self._pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix=name)
        self._lock = threading.Lock()
        self._closed = False

    @property
    def workers(self) -> int:
        return self._workers

    def resize(self, workers: int) -> None:
        """Replace the pool with one of a different size.

        Waits for in-flight work (correct handles matter more than a
        fast resize; benchmarks resize only between runs).
        """
        if workers < 1:
            raise ValueError("need at least one worker thread")
        if workers == self._workers:
            return
        old = self._pool
        self._pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix=self._name)
        self._workers = workers
        old.shutdown(wait=True)

    def submit(self, task: Callable[[], Any]) -> "Future[Any]":
        """Run ``task`` on a pool thread; returns the pool's future."""
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            charge_spawn = not self._started and self._spawn_cost_s > 0
            self._started = True
        if charge_spawn:
            from ..db.latency import precise_sleep

            precise_sleep(self._spawn_cost_s * self._workers)
        return self._pool.submit(task)

    def close(self, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "AsyncExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
