"""asyncio front end for the observer model.

The paper coordinates asynchronous submissions with client *threads*
(the Java ``Executor`` framework); the natural Python counterpart today
is ``asyncio``.  This module provides the same three primitives on an
event loop:

* ``await conn.execute_query(...)`` — the blocking call, made awaitable
  so it suspends the coroutine instead of the thread;
* ``conn.submit_query(...)`` — non-blocking submit returning the
  pipeline's own :class:`~repro.runtime.handles.QueryHandle`, which is
  awaitable;
* ``await conn.fetch_result(handle)`` — the blocking fetch.

A Rule A transformed loop therefore maps one-to-one onto coroutine
code::

    handles = [conn.submit_query(SQL, [c]) for c in categories]  # loop 1
    for handle in handles:                                       # loop 2
        total += (await conn.fetch_result(handle)).scalar()

and the unordered callback model (paper Section II) maps onto
:func:`as_completed`.

:class:`AioConnection` is a *front end*, not a runtime of its own: it
submits through the wrapped connection's
:class:`~repro.core.submission.SubmissionPipeline` — the same
cache-aware path the sync client and the thread-pool observer model use
— and hands back the very handle the pipeline built; it only counts
the handle's outcome into :class:`AioStats`.  A result cached by the
sync client is therefore a hit for the asyncio client (and vice versa),
resolving without a thread or task hop; the connection's
``async_workers`` pool bounds in-flight requests, so ``max_in_flight``
plays exactly the role of the paper's "number of threads" knob and
produces the same plateau curves.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, AsyncIterator, Callable, Iterable, List, Optional, Sequence

from .handles import QueryHandle


@dataclass
class AioStats:
    submitted: int = 0
    completed: int = 0
    failed: int = 0


class AioConnection:
    """asyncio adapter over a blocking :class:`repro.client.connection.Connection`.

    Construct from a database::

        conn = db.connect(async_workers=20, result_cache=cache)
        aconn = AioConnection(conn)

    or use :func:`aio_connect`.  Submissions go through the wrapped
    connection's submission pipeline, so the result cache (when
    attached) serves the asyncio client exactly as it serves the sync
    client: a hit returns an already-resolved handle, awaited with no
    thread or task hop.  ``max_in_flight`` (when given) resizes the
    wrapped connection's worker pool — one pool, not two stacked ones.
    """

    def __init__(self, connection, max_in_flight: Optional[int] = None) -> None:
        self._connection = connection
        if max_in_flight is not None and max_in_flight != connection.async_workers:
            connection.set_async_workers(max_in_flight)
        self.stats = AioStats()

    @property
    def connection(self):
        return self._connection

    @property
    def pipeline(self):
        """The shared submission pipeline (same object the sync client
        submits through)."""
        return self._connection.pipeline

    @property
    def max_in_flight(self) -> int:
        return self._connection.async_workers

    @property
    def result_cache(self):
        return self._connection.result_cache

    # ------------------------------------------------------------------
    # the three primitives
    # ------------------------------------------------------------------
    async def execute_query(self, query, params: Sequence = ()):
        """Awaitable blocking call: suspends the coroutine for the full
        round trip (the original program shape, minus a blocked thread)."""
        return await self.submit_query(query, params)

    async def execute_update(self, query, params: Sequence = ()):
        return await self.submit_query(query, params)

    def submit_query(self, query, params: Sequence = ()) -> QueryHandle:
        """Non-blocking submit; the paper's ``submitQuery``.

        Must be called from a running event loop (the handle's outcome
        is counted on it).
        """
        loop = asyncio.get_running_loop()  # before any side effect
        return self._count(loop, self._connection.submit_query(query, list(params)))

    submit_update = submit_query

    def speculate_query(self, query, params: Sequence = (), site: Optional[str] = None):
        """Speculative submit (see ``Connection.speculate_query``).

        Awaiting the returned handle consumes the speculation (a hit);
        an unawaited handle is abandoned when the connection closes.
        ``site`` labels the call site in the per-site speculation
        ledger.  Must be called from a running event loop.
        """
        loop = asyncio.get_running_loop()  # before any side effect
        return self._count(
            loop, self._connection.speculate_query(query, list(params), site=site)
        )

    def _count(self, loop, handle: QueryHandle) -> QueryHandle:
        """Count ``handle`` into :attr:`stats` on ``loop``: at once when it
        is already resolved, else when it completes — unless the loop
        has closed by then, and nobody is left to read the count.  The
        coroutine awaits the handle itself, so no blocking fetch records
        its latency or ends its root span: its completion does."""
        self.stats.submitted += 1
        pipeline = self._connection.pipeline
        span = handle.span
        if span is not None:
            span.set("runtime", "aio")
        observed = span is not None or pipeline.metrics is not None
        if handle.done():
            self._tally(handle.future)
            if observed:
                pipeline.note_completion(handle)
            return handle

        def completed(future) -> None:
            if observed:
                pipeline.note_completion(handle)
            try:
                loop.call_soon_threadsafe(self._tally, future)
            except RuntimeError:
                pass  # the loop is closed

        handle.future.add_done_callback(completed)
        return handle

    def _tally(self, future) -> None:
        if future.cancelled() or future.exception() is not None:
            self.stats.failed += 1
        else:
            self.stats.completed += 1

    async def fetch_result(self, handle: QueryHandle):
        """The paper's ``fetchResult``: await one handle."""
        return await handle

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    async def gather(self, handles: Iterable[QueryHandle]) -> List[Any]:
        """Fetch many handles, results in submission order."""
        return list(await asyncio.gather(*handles))

    def stats_snapshot(self) -> dict:
        """This front end's counters plus the wrapped connection's
        snapshot, as one plain dict."""
        snap = self._connection.stats_snapshot()
        snap["aio"] = {
            "submitted": self.stats.submitted,
            "completed": self.stats.completed,
            "failed": self.stats.failed,
        }
        return snap

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "AioConnection":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def aio_connect(
    database,
    max_in_flight: int = 10,
    result_cache=None,
    coalesce: bool = False,
    coalesce_window: Optional[int] = None,
    trace: bool = False,
    metrics=None,
    backend: Optional[str] = None,
) -> AioConnection:
    """Open an :class:`AioConnection` on a :class:`repro.db.Database`.

    ``result_cache`` attaches a shared
    :class:`~repro.prefetch.cache.ResultCache` exactly as
    ``Database.connect`` does — its entries are validated against the
    backend's write-epoch ledger at lookup.  ``coalesce`` /
    ``coalesce_window`` enable set-oriented dispatch on the wrapped
    connection's pipeline: coroutine submits queued behind the worker
    pool merge into batched server calls exactly as sync submits do
    (one coalescer, shared by both front ends).  ``trace`` / ``metrics``
    attach observability exactly as ``Database.connect`` does; the aio
    front end records completion latencies when each handle completes
    (no blocking fetch ever runs).  ``backend`` picks the statement store
    (``"memory"``/``"sqlite"``), again mirroring ``Database.connect``.
    """
    return AioConnection(
        database.connect(
            async_workers=max_in_flight,
            result_cache=result_cache,
            coalesce=coalesce,
            coalesce_window=coalesce_window,
            trace=trace,
            metrics=metrics,
            backend=backend,
        )
    )


async def as_completed(handles: Iterable[QueryHandle]) -> AsyncIterator[Any]:
    """Yield results in *completion* order — the paper's callback model
    (Section II), which fits "when the order of processing the results
    is unimportant"::

        async for result in as_completed(handles):
            process(result)
    """
    for future in asyncio.as_completed(handles):
        yield await future


async def for_each_completed(
    handles: Iterable[QueryHandle],
    callback: Callable[[Any], Any],
) -> int:
    """Invoke ``callback`` on each result as it completes; returns the
    number of callbacks run.  Coroutine callbacks are awaited."""
    count = 0
    async for result in as_completed(handles):
        outcome = callback(result)
        if asyncio.iscoroutine(outcome):
            await outcome
        count += 1
    return count
