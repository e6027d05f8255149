"""Query handles: futures with observer-model semantics.

A handle wraps whatever future its request resolves on — on the
request path always a :class:`~repro.runtime.future.RequestFuture`:
the executor's, a cache entry's, a coalesced request's, or one built
here already resolved — so a fetch of a finished request takes no
lock.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Optional

from .future import RequestFuture


class QueryHandle:
    """Handle returned by ``submit_query``.

    Wraps a future, records timing, and guarantees the paper's
    observer-model contract: ``result()`` blocks until the submitted
    request finishes and re-raises any error exactly once per call, in
    the calling (application) thread.
    """

    __slots__ = ("_future", "_submitted_at", "_label", "span")

    def __init__(
        self, future: "Future[Any]", label: str = "", span: Any = None
    ) -> None:
        self._future = future
        self._submitted_at = time.perf_counter()
        self._label = label
        #: Root trace span for this request (None unless tracing is on);
        #: the pipeline attaches it at dispatch and ends it at fetch.
        self.span = span

    @property
    def future(self) -> "Future[Any]":
        """The underlying ``concurrent.futures.Future`` (on the request
        path, a :class:`~repro.runtime.future.RequestFuture`).

        This is the hand-off point between runtimes: the asyncio front
        end wraps it with ``asyncio.wrap_future`` so the same submission
        (and the same cache hit, already resolved) is awaitable.
        """
        return self._future

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the request completes; re-raises its error."""
        return self._future.result(timeout)

    def done(self) -> bool:
        """Non-blocking poll: has the request finished (ok or error)?"""
        return self._future.done()

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        return self._future.exception(timeout)

    def cancel(self) -> bool:
        """Try to cancel; only possible while still queued."""
        return self._future.cancel()

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
    """A handle that is already resolved (used by tests and by the
    synchronous fallback path of the transformed code)."""
    return QueryHandle(resolved_future(value))


def failed_handle(error: BaseException) -> QueryHandle:
    future = RequestFuture()
    future.set_exception(error)
    return QueryHandle(future)
