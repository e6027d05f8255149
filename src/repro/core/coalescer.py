"""Set-oriented dispatch: the coalescer behind ``coalesce=True``.

:class:`DispatchCoalescer` is one ``start`` for
:meth:`repro.core.calls.CallPipeline.submit`: it queues same-statement
submits and answers each batch with one
:meth:`~repro.backends.base.Backend.execute_prepared_batch` call, made
in the flusher's own thread — one hand-off per round trip, the same as
a plain dispatch.  It is handed exactly what it uses — the
:class:`CallPipeline`, the backend and the pipeline's round-trip
callable — see :mod:`repro.core.submission` for where it sits in the
lifecycle.

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
from typing import Any, Callable, Deque, Dict, List, Optional

from ..backends.base import Backend, PreparedStatement
from ..obs.trace import Span
from .calls import CallPipeline, SpeculativeHandle


class _PendingDispatch:
    """One enqueued submit awaiting a coalesced flush."""

    __slots__ = (
        "bound",
        "future",
        "lease",
        "still_valid",
        "watcher",
        "span",
        "queue_span",
    )

    def __init__(self, bound, lease, still_valid, watcher, span) -> None:
        self.bound = bound
        self.future: "Future" = Future()
        #: What :meth:`CallPipeline.publish` needs once the flusher has
        #: this binding's outcome (``watcher`` is the speculative handle
        #: of a speculative submit, else None).
        self.lease = lease
        self.still_valid = still_valid
        self.watcher: Optional[SpeculativeHandle] = watcher
        #: Root ``query`` span of the submit (None unless tracing).
        self.span: Optional[Span] = span
        #: ``coalesce`` child span covering queue residency: started at
        #: enqueue, ended by the flusher with the realized batch size.
        self.queue_span: Optional[Span] = (
            span.child("coalesce") if span is not None else None
        )


class _Group:
    """One batch key's statement, its FIFO of pending entries and the
    number of flusher tasks armed for it that have not run yet."""

    __slots__ = ("prepared", "queue", "flushers")

    def __init__(self, prepared: PreparedStatement) -> None:
        self.prepared = prepared
        self.queue: Deque[_PendingDispatch] = deque()
        self.flushers = 0


class DispatchCoalescer:
    """Set-oriented dispatch: merge outstanding same-statement submits
    into one batched server call.

    When several submits of the same prepared statement are queued
    behind the executor — exactly what a prefetch pass hoisting a
    submit loop, or a burst of speculative lifts, produces — executing
    them one per worker pays N round trips and N per-statement server
    costs.  The coalescer instead enqueues each submit as a pending
    entry keyed by ``statement_id`` and keeps enough *flusher* tasks
    queued to drain them (see the module docstring's invariant);
    whichever flusher runs first drains up to ``window`` entries and
    answers them with a single :meth:`Backend.execute_prepared_batch`
    call in its own thread (one round-trip charge, one statement
    execution via the binding-demux operator), demultiplexing
    per-binding outcomes back to the individual handle futures.

    The coalescer is only a ``start`` for :meth:`CallPipeline.submit`
    (:meth:`enqueue`): the cache lease, hit/follower resolution, handle
    construction and speculation tracking all happened before an entry
    reaches the queue, and every outcome goes back through
    :meth:`CallPipeline.publish`.  What it adds:

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
        self,
        calls: CallPipeline,
        backend: Backend,
        round_trip: Callable[..., Any],
        window: Optional[int] = None,
    ) -> None:
        """``calls`` publishes outcomes, counts batches and owns the
        executor the flushers run on; ``backend`` is the pipeline's
        store (charged for hand-offs, and the batch target of a
        statement without an ``origin``); ``round_trip(prepared, bound,
        txn, span=)`` dispatches a batch of one."""
        if window is None:
            window = self.DEFAULT_WINDOW
        if window < 2:
            raise ValueError(f"coalesce window must be >= 2, got {window}")
        self._calls = calls
        self._backend = backend
        self._round_trip = round_trip
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
        origin = prepared.origin or self._backend
        return (id(origin), prepared.statement_id)

    @property
    def window(self) -> int:
        return self._window

    # ------------------------------------------------------------------
    # queueing
    # ------------------------------------------------------------------
    def enqueue(
        self,
        prepared: PreparedStatement,
        bound: tuple,
        lease,
        still_valid: Optional[Callable[[], bool]],
        watcher: Optional[SpeculativeHandle],
        span: Optional[Span] = None,
    ) -> "Future":
        """The coalescer's ``start`` for :meth:`CallPipeline.submit`:
        queue one binding — and a flusher task, if the ones already
        outstanding will not reach it — and return its future."""
        backend = self._backend
        # Every submit still pays the executor hand-off overhead in the
        # submitting thread, exactly like the executor-task dispatch.
        backend.meter.charge("queue", backend.profile.send_overhead_s)
        entry = _PendingDispatch(bound, lease, still_valid, watcher, span)
        batch_key = self._batch_key(prepared)
        with self._lock:
            group = self._pending.get(batch_key)
            if group is None:
                group = self._pending[batch_key] = _Group(prepared)
            group.queue.append(entry)
            arm = len(group.queue) > group.flushers * self._window
            if arm:
                group.flushers += 1
        if arm:
            try:
                self._calls.executor.submit(lambda: self._flush(batch_key))
            except BaseException as exc:
                # Never strand anyone — this entry's single-flight
                # followers, or an entry that counted on this flusher —
                # on a task that could not be queued.
                for orphan in self._claim(self._disarm(batch_key, group, entry)):
                    self._fail(orphan, exc)
                raise
        return entry.future

    def _disarm(
        self, batch_key: tuple, group: _Group, entry: _PendingDispatch
    ) -> List[_PendingDispatch]:
        """Take back the flusher ``entry`` armed but could not queue;
        returns the entries no outstanding flusher covers any more:
        ``entry`` itself unless a concurrent flusher already claimed it,
        and any enqueued meanwhile on the strength of the lost one."""
        with self._lock:
            if self._pending.get(batch_key) is not group:
                return []  # the group drained: every entry was claimed
            group.flushers = max(group.flushers - 1, 0)
            queue = group.queue
            orphans: List[_PendingDispatch] = []
            try:
                queue.remove(entry)
                orphans.append(entry)
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
    def _flush(self, batch_key: tuple) -> int:
        prepared, batch = self._take(batch_key)
        if batch:
            self._execute(prepared, batch)
        return len(batch)

    def _take(self, batch_key: tuple):
        with self._lock:
            group = self._pending.get(batch_key)
            if group is None:
                return None, []
            # This flusher is no longer outstanding.  Clamped: it may
            # have been armed for an earlier group of the same key.
            group.flushers = max(group.flushers - 1, 0)
            queue = group.queue
            count = min(len(queue), self._window)
            batch = [queue.popleft() for _ in range(count)]
            if not queue:
                del self._pending[batch_key]
            return group.prepared, batch

    def _claim(self, entries: List[_PendingDispatch]) -> List[_PendingDispatch]:
        """The entries still wanted.  PENDING -> RUNNING bars late
        cancellation, so completing them cannot race a cancel; an entry
        cancelled while queued (abandoned queued speculation, or an
        explicit handle.cancel) drops out here."""
        live: List[_PendingDispatch] = []
        for entry in entries:
            if entry.future.set_running_or_notify_cancel():
                live.append(entry)
            else:
                if entry.queue_span is not None:
                    entry.queue_span.set("cancelled", True).end()
                # Never strand followers of a cancelled owner.
                self._calls.publish(entry.lease, CancelledError(), failed=True)
        return live

    def _execute(
        self, prepared: PreparedStatement, entries: List[_PendingDispatch]
    ) -> None:
        calls = self._calls
        live = self._claim(entries)
        if not live:
            return
        for entry in live:
            if entry.queue_span is not None:
                entry.queue_span.set("batch_size", len(live)).end()
        if len(live) == 1:
            entry = live[0]
            try:
                result = self._round_trip(
                    prepared, entry.bound, None, span=entry.span
                )
            except BaseException as exc:
                self._fail(entry, exc)  # surfaces at the handle's fetch
            else:
                self._complete(entry, result)
            return
        calls.bump("coalesced_batches")
        calls.bump("coalesced_queries", len(live))
        calls.bump("round_trips_saved", len(live) - 1)
        # One batched ``dispatch`` span covers the whole server call.  It
        # is the one deliberate deviation from a strict per-query tree:
        # it starts its own trace, links every member's root, and each
        # member root points back (``dispatch_span``), so N trees share
        # the single server-execute span without any of them owning it.
        batch_span: Optional[Span] = None
        tracer = calls.tracer
        if tracer is not None and tracer.enabled:
            roots = [entry.span for entry in live if entry.span is not None]
            if roots:
                batch_span = tracer.start(
                    "dispatch",
                    batched=True,
                    bindings=len(live),
                    statement=prepared.label,
                )
                for root in roots:
                    batch_span.link(root.span_id)
                    root.set("coalesced", True)
                    root.set("dispatch_span", batch_span.span_id)
        # The batch key pinned every entry to one backend; route the
        # batched call to the *statement's* backend, never another store
        # that happens to share the pipeline.
        server = prepared.origin or self._backend
        rtt = server.profile.network_rtt_s
        if rtt:
            server.meter.charge("network", rtt)  # ONE round trip, N queries
        try:
            outcomes = server.execute_prepared_batch(
                prepared,
                [entry.bound for entry in live],
                span=batch_span,
            )
        except BaseException as exc:
            if batch_span is not None:
                batch_span.set("error", repr(exc)).end()
            for entry in live:
                self._fail(entry, exc)
            return
        finally:
            if batch_span is not None:
                batch_span.end()
        for entry, outcome in zip(live, outcomes):
            if isinstance(outcome, BaseException):
                self._fail(entry, outcome)
            else:
                self._complete(entry, outcome)

    def _complete(self, entry: _PendingDispatch, result: Any) -> None:
        self._calls.publish(
            entry.lease, result, entry.still_valid, entry.watcher
        )
        entry.future.set_result(result)

    def _fail(self, entry: _PendingDispatch, error: BaseException) -> None:
        self._calls.publish(entry.lease, error, failed=True)
        entry.future.set_exception(error)
