"""The one future a request's outcome is set on.

:class:`RequestFuture` is the future every stage of the request path
hands out: the executor's dispatch, a cache entry's flight, a coalesced
request's slot, an already-resolved handle.  It is a
``concurrent.futures.Future`` — ``asyncio.wrap_future``,
``concurrent.futures.wait`` and ``as_completed`` take it unchanged —
but it holds no ``Condition``.  Standard-library imports only, so a
store and the cache can import it without a cycle.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError, Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures._base import (
    CANCELLED, CANCELLED_AND_NOTIFIED, FINISHED, PENDING, RUNNING,
)
from typing import Any, Optional

_DONE = (FINISHED, CANCELLED)
#: The state ``wait`` and ``as_completed`` see for each terminal phase.
_TERMINAL = {FINISHED: FINISHED, CANCELLED: CANCELLED_AND_NOTIFIED}


class RequestFuture(Future):
    """A one-shot future: armed once, claimed once, completed once.

    Its life on the request path takes one lock section (two when the
    fetch has to wait).  Construction arms a *gate* — a
    ``threading.Lock`` acquired at once.  A worker claims the run by
    popping the one-token ``_token`` list, atomic under the interpreter
    lock, so a worker and a ``cancel`` that race for it cannot both
    win.  Completion writes the outcome and ``_phase``, then releases
    the gate.  A ``result()`` that finds the future finished takes no
    lock; one that has to wait acquires the gate and hands it straight
    back, so every waiter passes in turn.

    Only a watcher — a done-callback, or the ``_condition`` that
    ``concurrent.futures.wait`` and ``as_completed`` take — makes
    completion take a second lock: the watch lock, built by the first
    watcher.  A watcher sets ``_watched`` *before* it reads the state;
    completion writes ``_phase`` *before* it reads ``_watched``.  So
    at least one side sees the other: a watcher that saw the future
    pending is always found by its completion, which then tells the
    waiters under the watch lock and runs the callbacks; one that saw
    it done acts on its own.  Nothing waits *on* the watch lock —
    ``wait`` and ``as_completed`` only hold it while they read
    ``_state`` and edit ``_waiters`` — so a lock does what the
    stdlib's ``Condition`` did.  It is an ``RLock``: those functions
    read ``_condition`` again to release it, and a future that
    finished meanwhile is published right there, by the thread that
    already holds the lock, to the waiter it just installed.

    ``wait`` and ``as_completed`` read ``_state``, not ``_phase``:
    ``_state`` turns terminal only in the same section that tells
    ``_waiters`` (or, with nobody watching, at completion), so a
    waiter installed on a future those functions already counted as
    done is never told a second time.  A cancel tells the waiters at
    once (``CANCELLED_AND_NOTIFIED``); the worker that loses the token
    to it only learns ``set_running_or_notify_cancel() is False``.

    ``running=True`` builds the future already claimed: nobody holding
    it can cancel it, and only its owner's ``set_result`` /
    ``set_exception`` ends it (a cache entry's flight).
    """

    #: Set by the first watcher; a class default, so an unwatched
    #: future never writes it.
    _watched = False
    #: The watch lock, built by the first watcher (``_watch``).
    _watch_lock: Optional[threading.RLock] = None

    def __init__(self, running: bool = False) -> None:
        self._gate = gate = threading.Lock()
        gate.acquire()
        self._token = [] if running else [True]
        self._phase = RUNNING if running else PENDING
        self._state = PENDING
        self._result: Any = None
        self._exception: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # claiming and completing
    # ------------------------------------------------------------------
    def _claim(self) -> bool:
        """Pop the one token: True for exactly one caller, ever."""
        try:
            return self._token.pop()
        except IndexError:
            return False

    def set_running_or_notify_cancel(self) -> bool:
        if self._claim():
            self._phase = RUNNING
            return True
        with self._watch():  # a cancel holds it from its claim to its phase
            if self._phase is CANCELLED:
                return False
        raise RuntimeError("Future in unexpected state")

    def cancel(self) -> bool:
        with self._watch():  # one cancel at a time; a worker's claim never waits
            if self._phase is not PENDING or not self._claim():
                return self._phase is CANCELLED
            self._phase = CANCELLED
        self._finish(CANCELLED)
        return True

    def set_result(self, result: Any) -> None:
        self._take_token()
        self._result = result
        self._finish(FINISHED)

    def set_exception(self, exception: Optional[BaseException]) -> None:
        self._take_token()
        self._exception = exception
        self._finish(FINISHED)

    def _take_token(self) -> None:
        """The right to finish: the completer's own claim, or the token
        of a future completed without one."""
        phase = self._phase
        if phase is not RUNNING and not (phase is PENDING and self._claim()):
            raise InvalidStateError(f"{self._phase}: {self!r}")

    def _finish(self, phase: str) -> None:
        self._phase = phase
        self._gate.release()
        if not self._watched:
            self._state = _TERMINAL[phase]
            return
        with self._watch():
            self._publish()
        # Final: a registrant appends only under the watch lock, and
        # only while ``_state`` is not terminal.
        self._invoke_callbacks()

    # ------------------------------------------------------------------
    # watchers: done-callbacks, wait() and as_completed()
    # ------------------------------------------------------------------
    def _watch(self) -> threading.RLock:
        """Mark the future watched and return its watch lock, built on
        first use (``dict.setdefault`` is atomic, so racing watchers
        agree on one)."""
        self._watched = True
        lock = self._watch_lock
        if lock is None:
            fields = self.__dict__
            fields.setdefault("_waiters", [])
            fields.setdefault("_done_callbacks", [])
            lock = fields.setdefault("_watch_lock", threading.RLock())
        return lock

    @property
    def _condition(self) -> threading.RLock:
        """What ``concurrent.futures.wait`` and ``as_completed`` lock
        before they read ``_state`` and append to ``_waiters``, and
        read again to unlock (so the publish here may re-enter)."""
        lock = self._watch()
        if self._phase in _DONE and self._state is PENDING:
            with lock:
                self._publish()
        return lock

    def _publish(self) -> None:
        """Turn ``_state`` terminal and tell the waiters, once (the
        watch lock held, ``_phase`` terminal)."""
        if self._state is PENDING:
            self._state = _TERMINAL[self._phase]
            if self._phase is CANCELLED:
                tell = "add_cancelled"
            else:
                tell = "add_result" if self._exception is None else "add_exception"
            for waiter in self._waiters:
                getattr(waiter, tell)(self)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _await(self, timeout: Optional[float]) -> None:
        """Return once finished; raise if cancelled or out of time."""
        if self._phase not in _DONE:
            gate = self._gate
            if gate.acquire(True, -1 if timeout is None else max(timeout, 0)):
                gate.release()  # the next waiter passes too
        if self._phase is CANCELLED:
            raise CancelledError()
        if self._phase is not FINISHED:
            raise FutureTimeoutError()

    def result(self, timeout: Optional[float] = None) -> Any:
        if self._phase is not FINISHED:
            self._await(timeout)
        if self._exception is None:
            return self._result
        try:
            raise self._exception
        finally:
            self = None  # no cycle through the traceback's frame

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        if self._phase is not FINISHED:
            self._await(timeout)
        return self._exception

    def done(self) -> bool:
        return self._phase in _DONE

    def cancelled(self) -> bool:
        return self._phase is CANCELLED

    def running(self) -> bool:
        return self._phase is RUNNING
