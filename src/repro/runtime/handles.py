"""Query handles: futures with observer-model semantics.

A handle wraps whatever future its request resolves on — on the
request path always a :class:`~repro.runtime.future.RequestFuture`:
a dispatched request's own, a cache entry's, or one built here already
resolved — so a fetch of a finished request takes no lock.  The same
handle serves every front end: a thread fetches it, a coroutine awaits
it.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Future
from typing import Any, Optional

from .future import RequestFuture


class QueryHandle:
    """Handle returned by ``submit_query``.

    Wraps a future, records timing, and guarantees the paper's
    observer-model contract: ``result()`` blocks until the submitted
    request finishes and re-raises any error exactly once per call, in
    the calling (application) thread; ``await handle``, on a running
    event loop, suspends the calling coroutine instead.
    """

    __slots__ = ("future", "_submitted_at", "_label", "span")

    def __init__(
        self, future: "Future[Any]", label: str = "", span: Any = None
    ) -> None:
        #: The underlying ``concurrent.futures.Future`` (on the request
        #: path, a :class:`~repro.runtime.future.RequestFuture`).
        self.future = future
        self._submitted_at = time.perf_counter()
        self._label = label
        #: Root trace span for this request (None unless tracing is on);
        #: the pipeline attaches it at dispatch and ends it at fetch.
        self.span = span

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the request completes; re-raises its error."""
        return self.future.result(timeout)

    def __await__(self):
        """Suspend the awaiting coroutine until the request completes
        and re-raise its error there; a finished request (a cache hit)
        resolves without a loop tick.  A cancelled one raises
        ``asyncio.CancelledError``, as any awaited future does."""
        future = self.future
        if not future.done() or future.cancelled():
            yield from asyncio.wrap_future(future)
        return future.result()

    def done(self) -> bool:
        """Non-blocking poll: has the request finished (ok or error)?"""
        return self.future.done()

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        return self.future.exception(timeout)

    def cancel(self) -> bool:
        """Try to cancel; only possible while still queued."""
        return self.future.cancel()

    @property
    def age_s(self) -> float:
        return time.perf_counter() - self._submitted_at

    @property
    def label(self) -> str:
        return self._label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done() else "pending"
        label = f" {self._label!r}" if self._label else ""
        return f"<QueryHandle{label} {state}>"


def resolved_future(value: Any) -> RequestFuture:
    """An already-completed future holding ``value``, for
    :func:`completed_handle`.  A cache hit does not use it: its handle
    wraps the cache entry's own, already resolved, future."""
    future = RequestFuture()
    future.set_result(value)
    return future


def completed_handle(value: Any) -> QueryHandle:
    """A handle that is already resolved.  Nothing under ``src/`` calls
    it: the test helpers' eager fake connection returns one per submit."""
    return QueryHandle(resolved_future(value))


def failed_handle(error: BaseException) -> QueryHandle:
    future = RequestFuture()
    future.set_exception(error)
    return QueryHandle(future)
