"""asyncio front end for the observer model.

The paper coordinates asynchronous submissions with client *threads*
(the Java ``Executor`` framework); the natural Python counterpart today
is ``asyncio``.  This module provides the same three primitives on an
event loop:

* ``await conn.execute_query(...)`` — the blocking call, made awaitable
  so it suspends the coroutine instead of the thread;
* ``conn.submit_query(...)`` — non-blocking submit returning an
  :class:`AioQueryHandle` (awaitable, mirrors
  :class:`~repro.runtime.handles.QueryHandle`);
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
— and wraps the resulting future with ``asyncio.wrap_future``.  A
result cached by the sync client is therefore a hit for the asyncio
client (and vice versa), resolving without a thread or task hop; the
connection's ``async_workers`` pool bounds in-flight requests, so
``max_in_flight`` plays exactly the role of the paper's "number of
threads" knob and produces the same plateau curves.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, AsyncIterator, Callable, Iterable, List, Optional, Sequence


@dataclass
class AioStats:
    submitted: int = 0
    completed: int = 0
    failed: int = 0


def _book_keep(stats: AioStats) -> Callable[["asyncio.Future[Any]"], None]:
    """Done-callback recording one future's outcome into ``stats``."""

    def record(done: "asyncio.Future[Any]") -> None:
        if done.cancelled() or done.exception() is not None:
            stats.failed += 1
        else:
            stats.completed += 1

    return record


class AioQueryHandle:
    """Awaitable handle mirroring :class:`~repro.runtime.handles.QueryHandle`.

    ``await handle`` (or ``await conn.fetch_result(handle)``) yields the
    query result; errors re-raise at the await, in submission order when
    awaited in submission order — the observer-model contract.
    """

    __slots__ = ("_future", "_submitted_at", "_label")

    def __init__(self, future: "asyncio.Future[Any]", label: str = "") -> None:
        self._future = future
        self._submitted_at = time.perf_counter()
        self._label = label

    def __await__(self):
        return self._future.__await__()

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> bool:
        return self._future.cancel()

    def exception(self) -> Optional[BaseException]:
        """Exception of a *finished* handle (None when it succeeded)."""
        return self._future.exception()

    @property
    def age_s(self) -> float:
        return time.perf_counter() - self._submitted_at

    @property
    def label(self) -> str:
        return self._label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self._future.done() else "pending"
        label = f" {self._label!r}" if self._label else ""
        return f"<AioQueryHandle{label} {state}>"


class AioSpeculativeHandle(AioQueryHandle):
    """Awaitable speculative handle (asyncio face of
    :class:`repro.core.submission.SpeculativeHandle`).

    Awaiting it (directly or via ``fetch_result``) settles the
    underlying speculation as a hit; :meth:`abandon` settles it as
    wasted.  Dropped handles are drained when the wrapped connection
    closes, exactly like the sync client's.
    """

    __slots__ = ("_origin",)

    speculative = True

    def __init__(self, future, origin, label: str = "") -> None:
        super().__init__(future, label)
        self._origin = origin

    def __await__(self):
        # Consuming the result is the hit signal — claim before the
        # wait so a concurrent drain cannot misclassify it as wasted.
        self._origin.claim()
        return super().__await__()

    def abandon(self) -> bool:
        """Settle as wasted; do not await an abandoned handle."""
        return self._origin.abandon()


class AioConnection:
    """asyncio adapter over a blocking :class:`repro.client.connection.Connection`.

    Construct from a database::

        conn = db.connect(async_workers=20, result_cache=cache)
        aconn = AioConnection(conn)

    or use :func:`aio_connect`.  Submissions go through the wrapped
    connection's submission pipeline, so the result cache (when
    attached) serves the asyncio client exactly as it serves the sync
    client: a hit returns an already-resolved awaitable with no thread
    or task hop.  ``max_in_flight`` (when given) resizes the wrapped
    connection's worker pool — one pool, not two stacked ones.
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

    def submit_query(self, query, params: Sequence = ()) -> AioQueryHandle:
        """Non-blocking submit; the paper's ``submitQuery``.

        Must be called from a running event loop (the handle's future
        belongs to it).
        """
        loop = asyncio.get_running_loop()  # before any side effect
        handle = self._connection.submit_query(query, list(params))
        self._observe(handle)
        return AioQueryHandle(self._wrap(handle, loop), label=handle.label)

    submit_update = submit_query

    def speculate_query(
        self, query, params: Sequence = (), site: Optional[str] = None
    ) -> AioSpeculativeHandle:
        """Speculative submit (see ``Connection.speculate_query``).

        Awaiting the returned handle consumes the speculation (a hit);
        an unawaited handle is abandoned when the connection closes.
        ``site`` labels the call site in the per-site speculation
        ledger.  Must be called from a running event loop.
        """
        loop = asyncio.get_running_loop()  # before any side effect
        handle = self._connection.speculate_query(query, list(params), site=site)
        self._observe(handle)
        return AioSpeculativeHandle(
            self._wrap(handle, loop), handle, label=handle.label
        )

    def _observe(self, handle) -> None:
        """Close the observability loop for a handle no blocking fetch
        will ever touch: the coroutine awaits the wrapped future
        directly, so completion latency and root-span end are recorded
        from the pipeline future's done callback instead."""
        pipeline = self._connection.pipeline
        span = getattr(handle, "span", None)
        if span is None and pipeline.metrics is None:
            return
        if span is not None:
            span.set("runtime", "aio")
        handle.future.add_done_callback(
            lambda _done, h=handle: pipeline.note_completion(h)
        )

    def _wrap(self, handle, loop) -> "asyncio.Future[Any]":
        """Bridge a pipeline handle's future onto the running loop."""
        inner = handle.future
        if inner.done() and not inner.cancelled():
            # Cache hit (or failed resolve): materialize the result into
            # an already-done asyncio future so the handle resolves at
            # submit time — no thread hop, no task hop, no loop tick.
            future: "asyncio.Future[Any]" = loop.create_future()
            error = inner.exception()
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(inner.result())
        else:
            future = asyncio.wrap_future(inner, loop=loop)
        self.stats.submitted += 1
        future.add_done_callback(_book_keep(self.stats))
        return future

    async def fetch_result(self, handle: AioQueryHandle):
        """The paper's ``fetchResult``: await one handle."""
        return await handle

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    async def gather(self, handles: Iterable[AioQueryHandle]) -> List[Any]:
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
    front end records completion latencies from done callbacks (no
    blocking fetch ever runs).  ``backend`` picks the statement store
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


async def as_completed(
    handles: Iterable[AioQueryHandle],
) -> AsyncIterator[Any]:
    """Yield results in *completion* order — the paper's callback model
    (Section II), which fits "when the order of processing the results
    is unimportant"::

        async for result in as_completed(handles):
            process(result)
    """
    for future in asyncio.as_completed([handle._future for handle in handles]):
        yield await future


async def for_each_completed(
    handles: Iterable[AioQueryHandle],
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
