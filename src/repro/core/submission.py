"""The unified submission core: one cache-aware query path.

Every client runtime used to carry its own copy of the submit/fetch
lifecycle — blocking :meth:`Connection.execute_query`, the thread-pool
``submit_query`` path, and the asyncio front end (which bypassed the
result cache entirely).  This module owns that lifecycle once:

    normalize SQL + params
        → cache lookup (single-flight; hits resolve immediately)
        → dispatch to the :class:`~repro.backends.base.Backend`
        → record stats
        → populate the cache

The front ends differ only in how they *wait*:

* the sync client blocks on :meth:`SubmissionPipeline.execute`;
* :class:`~repro.runtime.handles.QueryHandle` wraps the future returned
  by :meth:`SubmissionPipeline.submit`;
* ``AioQueryHandle`` wraps the same future via ``asyncio.wrap_future``.

A cache hit therefore resolves without a thread (or task) hop in every
runtime: the handle comes back already completed.

Coherence is **pull-only**.  No write path knows a cache exists: the
backend keeps one write epoch per table, striped by key
(:class:`~repro.backends.ledger.WriteEpochLedger`), the pipeline takes
a *ticket* for the read's tables — and, when the statement is keyed
``col = ?``, for this binding's point (``prepared.point(bound)``) — when
it plans a cacheable request (no ticket while a writer the read could
observe is open → bypass), the cache validates entries against that
ticket at lookup, and publication retains the value only if the ticket
has not moved.  A write through *any* connection — cached, cache-less,
transactional (at commit; a rollback changes nothing a cache holds) or
asyncio — is therefore seen by every cached reader's next lookup, and
an autocommit point write by no reader keyed on another value of its
column.

**One request record.**  The front end builds the request once — a
:class:`SqlRequest` here, an HTTP-shaped :class:`Request` in the web
client — carrying the cache plan (key, read tables, ledger ticket), the
root trace span, the handle label and its transport's three verbs
(``round_trip``; ``charge``, what a real dispatch costs at submit;
``release``, what it owes at completion).  Every stage takes that record
whole and attaches what it learns to it (the cache ``lease``, the
speculative ``watcher``, a coalesced request's ``future``); nobody
re-describes it as keywords, a tuple or a closure.

**One non-blocking lifecycle.**  ``submit`` and ``speculate``, plain
or coalesced, are one path — :meth:`CallPipeline.dispatch`:

    lease (cache acquire)
        → hit / single-flight follower: resolved without a dispatch
        | :meth:`~CallPipeline.start` → the dispatch's future
        → handle (:class:`QueryHandle`, or a tracked
          :class:`SpeculativeHandle` — the request's *watcher*)
        → :meth:`CallPipeline.settle` when the outcome is known

Only ``start`` differs between transports: :meth:`CallPipeline.start`
queues one executor task that is :meth:`CallPipeline.run` on the
request (round trip, then settle), :meth:`SubmissionPipeline.start`
hands a coalescable read to the :class:`DispatchCoalescer`, which queues
the request itself for a batched flush.  Every round trip — the blocking
call's too — ends in ``settle``: the owner lease is published, the
dispatch's debt released, a coalesced request's future resolved; a
dispatch the executor refuses ends there as well, so no follower and no
transaction's in-flight count is stranded.  ``settle`` publishes through
:meth:`CallPipeline.publish`, which states the **retention
rule** once: followers are always served; the value is *retained* only
if the tables' ledger ticket is unchanged at publication time **and**
the speculation that fetched it did not settle as waste.  A
failed outcome propagates to followers and caches nothing.

**Cache-key semantics.**  The key is the normalized ``(sql, params)``
pair; it carries no connection or runtime identity, so any front end's
fill is any other front end's hit.  A request is *uncacheable* (the
pipeline bypasses the cache entirely) when it is a write, its params
are unhashable, it runs inside an explicit transaction, or a write it
could observe is open (an autocommit statement executing on its table
— for a keyed read: on its key, on another column's, or un-keyed — or a
transaction not yet finished).  Together with lookup validation and the
retention rule this guarantees a cached value is always a committed,
non-stale read.

**Speculative dispatch.**  :meth:`SubmissionPipeline.speculate` issues
a read whose consumer may never materialize (the prefetch pass's
unguarded mode).  The contract:

* the returned :class:`SpeculativeHandle` is tagged (``speculative`` is
  True) and tracked by the pipeline until *settled* — either consumed
  through ``fetch`` (a **hit**) or abandoned (a **waste**), each
  counted once in :class:`SubmissionStats`;
* an abandoned speculation that is still queued and invisible to other
  callers (no cache lease, no transaction accounting) is cancelled
  outright — a coalesced one drops out of its batch; otherwise it is
  left to finish — single-flight followers may be real reads — and the
  retention rule keeps its value out of the cache;
* :meth:`SubmissionPipeline.drain_speculations` (called by
  ``Connection.close``) abandons every unsettled handle and waits the
  in-flight ones out (under one overall deadline, so followers of
  another pipeline's never-completing loads cannot hang close), so
  dropped handles never leak executor work past the connection's
  lifetime.

**Set-oriented dispatch.**  With ``coalesce=True`` autocommit reads use
the :class:`DispatchCoalescer` as their ``start``: submits of the same
prepared statement that are outstanding behind the executor — exactly
what prefetch hoisting out of loops and bursts of speculative lifts
produce — merge into one :meth:`SubmissionPipeline.round_trip` over
many requests (one
:meth:`~repro.backends.base.Backend.execute_prepared_batch` call, the
binding-demux operator) and the per-binding outcomes are settled on
the individual requests.  One round-trip charge and one statement
execution answer the whole batch; a failing binding faults only its own
handle; publication stays per ``(key, tables)``.  Transactional reads
and writes always dispatch one executor task each.

:class:`CallPipeline` (:mod:`repro.core.calls`) is the
transport-agnostic half (the request record, cache lookup,
single-flight, dispatch, settle, speculation ledger, stats), so
cache-lookup logic exists in exactly one module; the
:class:`DispatchCoalescer` lives in :mod:`repro.core.coalescer`;
:class:`SubmissionPipeline`, here, *is* a ``CallPipeline`` — it adds
the SQL specifics (statement resolution or deferral, transaction rules,
the round trip and its network charges, the optional coalescer) and
this module re-exports the others' public names.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..backends.base import Backend, PreparedStatement
from ..db.errors import DatabaseError, TransactionStateError
from ..db.plan import QueryResult
from ..db.txn import Transaction
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Span, Tracer
from ..prefetch.cache import ResultCache
from ..runtime.handles import QueryHandle
from .calls import (
    CallPipeline,
    Request,
    SiteSpeculationStats,
    SpeculativeHandle,
    SubmissionStats,
)
from .coalescer import DispatchCoalescer

__all__ = [
    "CallPipeline",
    "DispatchCoalescer",
    "Request",
    "SiteSpeculationStats",
    "SpeculativeHandle",
    "SqlRequest",
    "SubmissionPipeline",
    "SubmissionStats",
]


class SqlRequest(Request):
    """One prepared statement bound to one parameter tuple, on its way
    to ``pipeline``'s store (inside ``txn``, when not None)."""

    __slots__ = (
        "pipeline", "prepared", "bound", "txn", "point", "inflight", "queue_span"
    )

    def __init__(
        self,
        pipeline: "SubmissionPipeline",
        prepared: PreparedStatement,
        bound: tuple,
        txn: Optional[Transaction],
        label: str,
        span: Optional[Span],
    ) -> None:
        Request.__init__(self, label, span)
        self.pipeline = pipeline
        self.prepared = prepared
        self.bound = bound
        self.txn = txn
        #: Did :meth:`charge` raise ``txn``'s in-flight count?
        self.inflight = False

    @property
    def private(self) -> bool:
        return self.txn is None

    def plan_cache(self) -> None:
        """Fill in the cache plan — key, read tables, ledger ticket —
        or leave it empty: the cache is bypassed.

        Bypassed: writes; unhashable params; reads inside an explicit
        transaction (they run under the transaction's locks and may
        observe its own uncommitted writes, neither of which may leak
        into shared cached results); and reads of a table with an open
        writer — the ledger issues no ticket, because the value observed
        may be uncommitted.  The ticket is scoped to the request's point
        when it has one, so only writers that could touch its rows count.

        The one ticket does both jobs: the lookup validates entries
        against it, and :meth:`still_valid` re-takes it at publication
        time — every write window that opened or closed in between
        moved it (or still withholds it), so a value that may have
        overlapped a write is served to its waiters but never retained.
        """
        prepared, bound = self.prepared, self.bound
        if self.txn is not None or prepared.write:
            return
        try:
            hash(bound)
        except TypeError:
            return
        self.point = prepared.point(bound)
        ticket = self.pipeline.server.ledger.ticket(prepared.tables, self.point)
        if ticket is not None:
            self.key = (prepared.sql, bound)
            self.tables = prepared.tables
            self.ticket = ticket

    def still_valid(self) -> bool:
        ledger = self.pipeline.server.ledger
        return ledger.ticket(self.tables, self.point) == self.ticket

    def round_trip(self) -> QueryResult:
        return self.pipeline.round_trip((self,))[0]

    def charge(self) -> None:
        """The executor hand-off overhead, paid in the submitting
        thread, and the transaction's in-flight count."""
        server = self.pipeline.server
        server.meter.charge("queue", server.profile.send_overhead_s)
        if self.txn is not None:
            self.txn.enter_async()
            self.inflight = True

    def release(self) -> None:
        if self.inflight:
            self.inflight = False
            self.txn.exit_async()


class SubmissionPipeline(CallPipeline):
    """The SQL submission pipeline over one :class:`Backend`.

    A :class:`CallPipeline` (cache protocol, dispatch, settle, ledger,
    stats) whose requests are :class:`SqlRequest` records: it adds
    statement normalization, the transaction rules from the paper's
    Discussion section, the simulated network charges and the optional
    set-oriented dispatch.
    """

    def __init__(
        self,
        server: Backend,
        executor,
        cache: Optional[ResultCache] = None,
        coalesce: bool = False,
        coalesce_window: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(executor, cache, tracer=tracer, metrics=metrics)
        self.server = server
        #: Set-oriented dispatch (off by default): autocommit reads are
        #: routed through a :class:`DispatchCoalescer` that merges
        #: same-statement submits queued behind the executor into one
        #: batched server call.
        self.coalescer = (
            DispatchCoalescer(self, window=coalesce_window) if coalesce else None
        )

    # ------------------------------------------------------------------
    # building the request
    # ------------------------------------------------------------------
    def resolve(self, query, params: Sequence) -> Tuple[PreparedStatement, tuple]:
        """Normalize any accepted query form to ``(prepared, bound)``.

        Accepts raw SQL text or a client-side prepared query (anything
        exposing ``server_statement`` / ``snapshot_params``); bind state
        is snapshotted here, so rebinding after submit is safe.
        """
        statement = getattr(query, "server_statement", None)
        if statement is not None:
            bound = tuple(params) if params else query.snapshot_params()
            origin = getattr(statement, "origin", None)
            if origin is not None and origin is not self.server:
                # The statement was prepared on a *different* backend
                # (two backends can be live in one process): re-prepare
                # on ours.  Statement ids are per-backend counters, so
                # forwarding the foreign handle would execute a
                # same-numbered stranger — or hand the coalescer a batch
                # pointed at the wrong store.
                statement = self.server.prepare(statement.sql)
            return statement, bound
        if isinstance(query, str):
            return self.server.prepare(query), tuple(params)
        raise DatabaseError(f"not a query: {query!r}")

    def request(
        self,
        prepared: PreparedStatement,
        bound: tuple,
        txn: Optional[Transaction],
        mode: str,
        site: Optional[str] = None,
    ) -> SqlRequest:
        """The one record the rest of the path works on: root ``query``
        span (None unless tracing is enabled, so the disabled-path cost
        is one attribute test), handle label (``site``, the speculation's
        call site, else the statement's) and cache plan."""
        label = site if site is not None else prepared.label
        span = None
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            span = tracer.start("query", sql=prepared.sql, mode=mode)
            if bound:
                span.set("params", repr(bound)[:80])
            if mode == "speculate":
                span.set("site", label)
        request = SqlRequest(self, prepared, bound, txn, label, span)
        if self.cache is not None:
            request.plan_cache()
        return request

    # ------------------------------------------------------------------
    # the three primitives
    # ------------------------------------------------------------------
    def execute(
        self, query, params: Sequence = (), txn: Optional[Transaction] = None
    ) -> QueryResult:
        """Submit and wait: the paper's ``executeQuery``."""
        prepared, bound = self.resolve(query, params)
        return self.call(self.request(prepared, bound, txn, "execute"))

    def submit(
        self, query, params: Sequence = (), txn: Optional[Transaction] = None
    ) -> QueryHandle:
        """Non-blocking submit: the paper's ``submitQuery``.

        Returns immediately with a handle; a cache hit comes back
        already resolved, otherwise one executor worker pays the round
        trip.
        """
        return self._submit(query, params, txn, "submit")

    def speculate(
        self,
        query,
        params: Sequence = (),
        txn: Optional[Transaction] = None,
        site: Optional[str] = None,
    ) -> "SpeculativeHandle":
        """Speculative submit: a read whose consumer may never run.

        Same request path as :meth:`submit` (cache single-flight,
        executor dispatch, publication validity checks), but the handle
        is tagged and tracked until fetched (a *hit*) or abandoned (a
        *waste*) — see the module docstring's speculation contract.
        ``site`` labels the call site for the per-site speculation
        ledger (:meth:`site_stats`); it defaults to the statement text.

        Writes are rejected outright: speculatively executing a write
        would change database state the original program might never
        have changed.  Inside an explicit transaction the speculation
        runs like any asynchronous read — under the transaction's
        shared locks, bypassing the cache — so an uncommitted value can
        never be published.
        """
        return self._submit(query, params, txn, "speculate", site)

    def _submit(
        self,
        query,
        params: Sequence,
        txn: Optional[Transaction],
        mode: str,
        site: Optional[str] = None,
    ) -> QueryHandle:
        """The shared body of :meth:`submit` and :meth:`speculate`
        (``mode`` names which): resolve the statement — or defer the
        error to fetch — refuse the writes the mode cannot take, build
        the request, dispatch it."""
        speculative = mode == "speculate"
        try:
            prepared, bound = self.resolve(query, params)
        except Exception as exc:
            # Observer-model contract: submission problems surface at
            # fetch_result, in iteration order (or vanish with an
            # abandoned speculation) — in a transaction too.
            return self.defer(exc, site or "", speculative)
        if prepared.write:
            if speculative:
                raise DatabaseError(
                    "refusing to speculate a write statement; speculation "
                    "is read-only by contract"
                )
            if txn is not None:
                # Discussion-section rule (DESIGN.md): asynchronous
                # *reads* may overlap an open transaction — they run
                # under its shared locks — but asynchronous *updates*
                # are rejected outright: their failures would be
                # observed after commit decisions.
                raise TransactionStateError(
                    "asynchronous updates inside an explicit transaction "
                    "are not supported; commit first or use blocking "
                    "execute_update"
                )
        return self.dispatch(
            self.request(prepared, bound, txn, mode, site), speculative
        )

    def start(self, request: SqlRequest):
        """Autocommit reads ride the coalescer when set-oriented
        dispatch is on: same-statement submits outstanding behind the
        executor merge into one batched server call.  Everything else
        is one executor task paying the round trip."""
        if (
            self.coalescer is not None
            and request.txn is None
            and not request.prepared.write
        ):
            return self.coalescer.enqueue(request)
        return super().start(request)

    # ------------------------------------------------------------------
    # the round trip
    # ------------------------------------------------------------------
    def round_trip(self, requests: Sequence[SqlRequest]) -> List[Any]:
        """One network round trip to the store plus server-side
        execution, for one request or a batch of one statement's
        (autocommit) requests; returns one outcome per request — for a
        batch, an exception instance where only that binding failed —
        and raises what the server call raised.

        The statement executes *in this thread* — the caller's for a
        blocking call, the executor worker's for a submit or a flush —
        holding one of the backend's admission slots, so a request
        crosses one thread boundary at most (the hand-off to the
        executor).

        The round trip appears as a ``dispatch`` span and the server
        hangs its ``server.execute`` span under that (the span object
        rides the call — no ambient context to lose).  A single
        request's is a child of its root span.  A batch's is the one
        deliberate deviation from a strict per-query tree: it starts its
        own trace, links every member's root, and each member root
        points back (``dispatch_span``), so N trees share the single
        server-execute span without any of them owning it.
        """
        first = requests[0]
        prepared = first.prepared
        # A coalesced batch was keyed by its statement's backend; route
        # the call there, never to another store sharing the pipeline.
        server = prepared.origin or self.server
        rtt = server.profile.network_rtt_s
        if rtt:
            server.meter.charge("network", rtt)  # ONE round trip, N queries
        batched = len(requests) > 1
        if batched:
            span = self._batch_span(requests)
        else:
            span = first.span.child("dispatch") if first.span is not None else None
        try:
            if batched:
                return server.execute_prepared_batch(
                    prepared, [request.bound for request in requests], span=span
                )
            return [server.execute_prepared(prepared, first.bound, first.txn, span)]
        except BaseException as exc:
            if span is not None:
                span.set("error", repr(exc))
            raise
        finally:
            if span is not None:
                span.end()

    def _batch_span(self, requests: Sequence[SqlRequest]) -> Optional[Span]:
        tracer = self.tracer
        roots = [r.span for r in requests if r.span is not None]
        if tracer is None or not tracer.enabled or not roots:
            return None
        span = tracer.start(
            "dispatch",
            batched=True,
            bindings=len(requests),
            statement=requests[0].prepared.label,
        )
        for root in roots:
            span.link(root.span_id)
            root.set("coalesced", True)
            root.set("dispatch_span", span.span_id)
        return span
