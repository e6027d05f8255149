"""Set-oriented dispatch: the coalescer behind ``coalesce=True``.

:class:`DispatchCoalescer` is the other
:meth:`~repro.core.submission.SubmissionPipeline.start`: instead of one
executor task per request it queues the request record itself — no
second description of it — beside the others of its statement, and a
flusher answers each batch with one
:meth:`~repro.core.submission.SubmissionPipeline.round_trip` (one
:meth:`~repro.backends.base.Backend.execute_prepared_batch` call), made
in the flusher's own thread — one hand-off per round trip, the same as
a plain dispatch — then hands every outcome to
:meth:`~repro.core.calls.CallPipeline.settle`.  It is handed one
object, the pipeline it dispatches for — see
:mod:`repro.core.submission` for where it sits in the lifecycle.

Flusher tasks are armed **by need**, not per binding: beside each batch
key's FIFO the coalescer counts the flushers it has queued that have
not run yet, and queues another only when the FIFO has outgrown what
those will drain.  The invariant, for every key, always:

    outstanding flusher tasks × window ≥ queued entries

A flusher left over from a group that emptied may run against the
key's next group and make its count *under*-read the tasks really
outstanding — which arms one flusher too many, never one too few — so
no entry is ever stranded, and a burst of N submits costs ⌈N / window⌉
executor tasks instead of N.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import CancelledError, Future
from functools import partial
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from ..backends.base import PreparedStatement

if TYPE_CHECKING:  # pragma: no cover - the runtime import runs the other way
    from .submission import SqlRequest, SubmissionPipeline


class _Group:
    """One batch key's FIFO of queued requests and the number of
    flusher tasks armed for it that have not run yet."""

    __slots__ = ("queue", "flushers")

    def __init__(self) -> None:
        self.queue: Deque["SqlRequest"] = deque()
        self.flushers = 0


class DispatchCoalescer:
    """Set-oriented dispatch: merge outstanding same-statement submits
    into one batched server call.

    When several submits of the same prepared statement are queued
    behind the executor — exactly what a prefetch pass hoisting a
    submit loop, or a burst of speculative lifts, produces — executing
    them one per worker pays N round trips and N per-statement server
    costs.  The coalescer instead queues each submit's request keyed
    by ``statement_id`` and keeps enough *flusher* tasks
    queued to drain them (see the module docstring's invariant);
    whichever flusher runs first drains up to ``window`` entries and
    answers them with a single :meth:`Backend.execute_prepared_batch`
    call in its own thread (one round-trip charge, one statement
    execution via the binding-demux operator), demultiplexing
    per-binding outcomes back to the individual requests' futures.

    The coalescer is only a ``start`` for :meth:`CallPipeline.dispatch`
    (:meth:`enqueue`): the cache lease, hit/follower resolution, handle
    construction and speculation tracking all happened before a request
    reaches the queue, and every outcome goes back through
    :meth:`CallPipeline.settle`.  What it adds:

    * **fault isolation** — a binding that fails mid-batch fails only
      its own handle (the server returns per-binding outcomes);
    * **cancellation** — an entry whose future was cancelled while
      queued (an abandoned lease-less speculation, an explicit
      ``handle.cancel``) is dropped from the batch outright, its lease,
      if any, failed so followers re-dispatch;
    * **laziness** — no timers, no added latency: a submit that reaches
      an idle worker dispatches alone; batches only form while workers
      are busy, which is precisely when merging pays.

    Only autocommit reads are coalesced; transactional reads and writes
    dispatch one executor task each (their lock and invalidation
    semantics are per-statement).
    """

    #: Default cap on bindings merged into one batch.
    DEFAULT_WINDOW = 16

    def __init__(
        self, pipeline: "SubmissionPipeline", window: Optional[int] = None
    ) -> None:
        """``pipeline`` is the :class:`SubmissionPipeline` whose reads
        are coalesced: it does the round trip (one binding or many),
        settles every outcome, counts batches and owns the executor the
        flushers run on."""
        if window is None:
            window = self.DEFAULT_WINDOW
        if window < 2:
            raise ValueError(f"coalesce window must be >= 2, got {window}")
        self._pipeline = pipeline
        self._window = window
        self._lock = threading.Lock()
        #: (backend identity, statement_id) -> the key's :class:`_Group`
        #: (deleted when its FIFO empties).  Statement ids are
        #: per-backend counters, so
        #: the id alone would collide across two live backends and merge
        #: different statements — or the same text bound for different
        #: stores — into one batch; the backend identity in the key
        #: guarantees a coalesced batch never executes against the wrong
        #: store.
        self._pending: Dict[tuple, _Group] = {}

    def _batch_key(self, prepared: PreparedStatement) -> tuple:
        origin = prepared.origin or self._pipeline.server
        return (id(origin), prepared.statement_id)

    @property
    def window(self) -> int:
        return self._window

    # ------------------------------------------------------------------
    # queueing
    # ------------------------------------------------------------------
    def enqueue(self, request: "SqlRequest") -> "Future":
        """:meth:`SubmissionPipeline.start` for a coalescable read:
        queue the request — and a flusher task, if the ones already
        outstanding will not reach it — and return its future."""
        # Every submit still pays the executor hand-off overhead in the
        # submitting thread, exactly like the executor-task dispatch.
        request.charge()
        future = request.future = Future()
        span = request.span
        # Queue residency: started here, ended by the flusher with the
        # realized batch size.
        request.queue_span = span.child("coalesce") if span is not None else None
        batch_key = self._batch_key(request.prepared)
        with self._lock:
            group = self._pending.get(batch_key)
            if group is None:
                group = self._pending[batch_key] = _Group()
            group.queue.append(request)
            arm = len(group.queue) > group.flushers * self._window
            if arm:
                group.flushers += 1
        if arm:
            try:
                self._pipeline.executor.submit(partial(self._flush, batch_key))
            except BaseException as exc:
                # Never strand anyone — this request's single-flight
                # followers, or one that counted on this flusher — on a
                # task that could not be queued.
                for orphan in self._claim(self._disarm(batch_key, group, request)):
                    self._pipeline.settle(orphan, exc)
                raise
        return future

    def _disarm(
        self, batch_key: tuple, group: _Group, request: "SqlRequest"
    ) -> List["SqlRequest"]:
        """Take back the flusher ``request`` armed but could not queue;
        returns the requests no outstanding flusher covers any more:
        ``request`` itself unless a concurrent flusher already claimed
        it, and any enqueued meanwhile on the strength of the lost one."""
        with self._lock:
            if self._pending.get(batch_key) is not group:
                return []  # the group drained: every request was claimed
            group.flushers = max(group.flushers - 1, 0)
            queue = group.queue
            orphans: List["SqlRequest"] = []
            try:
                queue.remove(request)
                orphans.append(request)
            except ValueError:
                pass
            while len(queue) > group.flushers * self._window:
                orphans.append(queue.pop())
            if not queue:
                del self._pending[batch_key]
            return orphans

    # ------------------------------------------------------------------
    # flushing (runs on executor workers)
    # ------------------------------------------------------------------
    def _flush(self, batch_key: tuple) -> None:
        """Drain up to ``window`` requests of the key and answer them
        with one round trip."""
        pipeline = self._pipeline
        live = self._claim(self._take(batch_key))
        if not live:
            return
        for request in live:
            if request.queue_span is not None:
                request.queue_span.set("batch_size", len(live)).end()
        if len(live) > 1:
            pipeline.bump("coalesced_batches")
            pipeline.bump("coalesced_queries", len(live))
            pipeline.bump("round_trips_saved", len(live) - 1)
        try:
            outcomes = pipeline.round_trip(live)
        except BaseException as exc:
            outcomes = [exc] * len(live)  # surfaces at each handle's fetch
        for request, outcome in zip(live, outcomes):
            pipeline.settle(request, outcome)

    def _take(self, batch_key: tuple) -> List["SqlRequest"]:
        with self._lock:
            group = self._pending.get(batch_key)
            if group is None:
                return []
            # This flusher is no longer outstanding.  Clamped: it may
            # have been armed for an earlier group of the same key.
            group.flushers = max(group.flushers - 1, 0)
            queue = group.queue
            count = min(len(queue), self._window)
            batch = [queue.popleft() for _ in range(count)]
            if not queue:
                del self._pending[batch_key]
            return batch

    def _claim(self, requests: List["SqlRequest"]) -> List["SqlRequest"]:
        """The requests still wanted.  PENDING -> RUNNING bars late
        cancellation, so settling them cannot race a cancel; a request
        cancelled while queued (abandoned queued speculation, or an
        explicit handle.cancel) drops out here."""
        live: List["SqlRequest"] = []
        for request in requests:
            if request.future.set_running_or_notify_cancel():
                live.append(request)
            else:
                if request.queue_span is not None:
                    request.queue_span.set("cancelled", True).end()
                # Never strand followers of a cancelled owner.
                self._pipeline.publish(request, CancelledError())
        return live
