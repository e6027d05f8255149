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

Flushers are armed **by need**, not per binding.  A batch key's
:class:`_Group` — its FIFO and the count of flushers queued for it that
have not run yet — is itself the executor job: queuing it once more
arms one more flusher, and a worker that runs it drains that group and
no other.  The coalescer queues the group again only when the FIFO has
outgrown what the flushers already queued will drain, and a group leaves
the table only when its FIFO is empty and no flusher of it is queued.
The invariant, for every group, always:

    outstanding flushers × window ≥ queued entries

so no entry is ever stranded, and a burst of N submits costs
⌈N / window⌉ executor jobs instead of N.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from ..backends.base import PreparedStatement

if TYPE_CHECKING:  # pragma: no cover - the runtime import runs the other way
    from .submission import SqlRequest, SubmissionPipeline


class _Group:
    """One batch key's FIFO of queued requests and the number of
    flushers armed for it that have not run yet — and the executor job
    that is one of those flushers."""

    __slots__ = ("coalescer", "key", "queue", "flushers")

    def __init__(self, coalescer: "DispatchCoalescer", key: tuple) -> None:
        self.coalescer = coalescer
        self.key = key
        self.queue: Deque["SqlRequest"] = deque()
        self.flushers = 0

    def run(self) -> None:
        """One flusher: answer up to ``window`` of this group's requests
        with one round trip."""
        self.coalescer._flush(self)


class DispatchCoalescer:
    """Set-oriented dispatch: merge outstanding same-statement submits
    into one batched server call.

    When several submits of the same prepared statement are queued
    behind the executor — exactly what a prefetch pass hoisting a
    submit loop, or a burst of speculative lifts, produces — executing
    them one per worker pays N round trips and N per-statement server
    costs.  The coalescer instead queues each submit's request keyed
    by ``statement_id`` and keeps enough *flushers*
    queued to drain them (see the module docstring's invariant);
    whichever flusher runs first drains up to ``window`` entries and
    answers them with a single :meth:`Backend.execute_prepared_batch`
    call in its own thread (one round-trip charge, one statement
    execution via the binding-demux operator), settling each binding's
    outcome on its own request.

    The coalescer is only a ``start`` for :meth:`CallPipeline.dispatch`
    (:meth:`enqueue`): the cache lease, hit/follower resolution, handle
    construction and speculation tracking all happened before a request
    reaches the queue, and every outcome goes back through
    :meth:`CallPipeline.settle`.  What it adds:

    * **fault isolation** — a binding that fails mid-batch fails only
      its own handle (the server returns per-binding outcomes);
    * **cancellation** — an entry whose future was cancelled while
      queued (an abandoned lease-less speculation, an explicit
      ``handle.cancel``) is dropped from the batch outright and settled
      as ``CancelledError``, as a cancelled executor job is;
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
        #: (deleted when its FIFO is empty and no flusher of it is
        #: queued).  Statement ids are per-backend counters, so
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
    def enqueue(self, request: "SqlRequest") -> None:
        """:meth:`SubmissionPipeline.start` for a coalescable read:
        queue the request — and a flusher, if the ones already
        outstanding will not reach it."""
        # Every submit still pays the executor hand-off overhead in the
        # submitting thread, exactly like the executor-task dispatch.
        request.charge()
        span = request.span
        # Queue residency: started here, ended by the flusher with the
        # realized batch size.
        request.queue_span = span.child("coalesce") if span is not None else None
        batch_key = self._batch_key(request.prepared)
        with self._lock:
            group = self._pending.get(batch_key)
            if group is None:
                group = self._pending[batch_key] = _Group(self, batch_key)
            group.queue.append(request)
            arm = len(group.queue) > group.flushers * self._window
            if arm:
                group.flushers += 1
        if arm:
            try:
                self._pipeline.executor.execute(group)
            except BaseException as exc:
                # Never strand anyone — this request's single-flight
                # followers, or one that counted on this flusher — on a
                # flusher that could not be queued.
                for orphan in self._claim(self._disarm(group, request)):
                    self._pipeline.settle(orphan, exc)
                raise

    def _disarm(self, group: _Group, request: "SqlRequest") -> List["SqlRequest"]:
        """Take back the flusher ``request`` armed but could not queue;
        returns the requests no outstanding flusher covers any more:
        ``request`` itself unless a concurrent flusher already claimed
        it, and any enqueued meanwhile on the strength of the lost one."""
        with self._lock:
            group.flushers -= 1
            queue = group.queue
            orphans: List["SqlRequest"] = []
            try:
                queue.remove(request)
                orphans.append(request)
            except ValueError:
                pass
            while len(queue) > group.flushers * self._window:
                orphans.append(queue.pop())
            self._retire(group)
            return orphans

    # ------------------------------------------------------------------
    # flushing (runs on executor workers)
    # ------------------------------------------------------------------
    def _flush(self, group: _Group) -> None:
        """Drain up to ``window`` requests of ``group`` and answer them
        with one round trip."""
        pipeline = self._pipeline
        live = self._claim(self._take(group))
        if not live:
            return
        for request in live:
            if request.queue_span is not None:
                request.queue_span.set("batch_size", len(live)).end()
        if len(live) > 1:
            # ``round_trips_saved`` is derived from these two on read.
            pipeline.bump("coalesced_queries", len(live))
            pipeline.bump("coalesced_batches")
        try:
            outcomes = pipeline.round_trip(live)
        except BaseException as exc:
            outcomes = [exc] * len(live)  # surfaces at each handle's fetch
        for request, outcome in zip(live, outcomes):
            pipeline.settle(request, outcome)

    def _take(self, group: _Group) -> List["SqlRequest"]:
        with self._lock:
            group.flushers -= 1  # this flusher is no longer outstanding
            queue = group.queue
            count = min(len(queue), self._window)
            batch = [queue.popleft() for _ in range(count)]
            self._retire(group)
            return batch

    def _retire(self, group: _Group) -> None:
        """Drop ``group`` from the table once nothing is queued in it and
        no flusher of it is outstanding (lock held)."""
        if not group.queue and not group.flushers:
            del self._pending[group.key]

    def _claim(self, requests: List["SqlRequest"]) -> List["SqlRequest"]:
        """The requests still wanted: those whose claim this flusher
        won, so settling them cannot race a cancel.  A request cancelled
        while queued (abandoned queued speculation, or an explicit
        handle.cancel) drops out here, already settled by its claim."""
        live: List["SqlRequest"] = []
        for request in requests:
            if request.claim():
                live.append(request)
            elif request.queue_span is not None:
                request.queue_span.set("cancelled", True).end()
        return live
