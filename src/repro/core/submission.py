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

**One non-blocking lifecycle.**  ``submit`` and ``speculate``, plain
or coalesced, are one path — :meth:`CallPipeline.submit`:

    lease (cache acquire)
        → hit / single-flight follower: resolved without a dispatch
        | ``start(lease, watcher)`` → the dispatch's future
        → handle (:class:`QueryHandle`, or a tracked
          :class:`SpeculativeHandle` — the *watcher*)
        → :meth:`CallPipeline.publish` when the outcome is known

Only ``start`` differs between transports: :meth:`CallPipeline.dispatch`
wraps an executor task around one round trip, the
:class:`DispatchCoalescer` enqueues the binding for a batched flush.
Every owner lease ends in ``publish``, which states the **retention
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
produce — merge into one batched server call
(:meth:`~repro.backends.base.Backend.execute_prepared_batch`, the
binding-demux operator) and the per-binding outcomes demultiplex back
to the individual handles.  One round-trip charge and one statement
execution answer the whole batch; a failing binding faults only its own
handle; publication stays per ``(key, tables)``.  Transactional reads
and writes always dispatch one executor task each.

:class:`CallPipeline` (:mod:`repro.core.calls`) is the
transport-agnostic half (cache lookup, single-flight, dispatch,
speculation ledger, stats), so cache-lookup logic exists in exactly one
module; the :class:`DispatchCoalescer` lives in
:mod:`repro.core.coalescer`; :class:`SubmissionPipeline`, here, layers
the SQL specifics (statement resolution, transaction rules, network
charges, the optional coalescer) on top and re-exports the others'
public names.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from ..backends.base import Backend, PreparedStatement
from ..db.errors import DatabaseError, TransactionStateError
from ..db.plan import QueryResult
from ..db.txn import Transaction
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Span, Tracer
from ..prefetch.cache import ResultCache
from ..runtime.handles import QueryHandle, failed_handle
from .calls import (
    CallPipeline,
    SiteSpeculationStats,
    SpeculativeHandle,
    SubmissionStats,
)
from .coalescer import DispatchCoalescer

__all__ = [
    "CallPipeline",
    "DispatchCoalescer",
    "SiteSpeculationStats",
    "SpeculativeHandle",
    "SubmissionPipeline",
    "SubmissionStats",
]


class SubmissionPipeline:
    """The SQL submission pipeline over one :class:`Backend`.

    Owns statement normalization, the transaction rules from the
    paper's Discussion section, the simulated network charges, and —
    through its inner :class:`CallPipeline` — the cache protocol and
    dispatch.
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
        self._server = server
        self._calls = CallPipeline(executor, cache, tracer=tracer, metrics=metrics)
        #: Set-oriented dispatch (off by default): autocommit reads are
        #: routed through a :class:`DispatchCoalescer` that merges
        #: same-statement submits queued behind the executor into one
        #: batched server call.
        self._coalescer = (
            DispatchCoalescer(
                self._calls, server, self._round_trip, window=coalesce_window
            )
            if coalesce
            else None
        )

    @property
    def coalescer(self) -> Optional[DispatchCoalescer]:
        """The set-oriented dispatch coalescer, when enabled."""
        return self._coalescer

    @property
    def server(self) -> Backend:
        return self._server

    @property
    def executor(self):
        return self._calls.executor

    @property
    def cache(self) -> Optional[ResultCache]:
        return self._calls.cache

    @property
    def stats(self) -> SubmissionStats:
        return self._calls.stats

    @property
    def tracer(self) -> Optional[Tracer]:
        return self._calls.tracer

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        return self._calls.metrics

    def stats_snapshot(self) -> Dict[str, Any]:
        """Every pipeline counter (and the per-site speculation ledger)
        as one plain dict — see :meth:`CallPipeline.stats_snapshot`."""
        return self._calls.stats_snapshot()

    def note_completion(self, handle: QueryHandle) -> None:
        """Record a handle consumed outside :meth:`fetch` (asyncio
        front end) — see :meth:`CallPipeline.note_completion`."""
        self._calls.note_completion(handle)

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def _trace_root(
        self,
        prepared: PreparedStatement,
        bound: tuple,
        mode: str,
        site: Optional[str] = None,
    ) -> Optional[Span]:
        """Root ``query`` span for one request — None unless tracing is
        enabled, so the disabled-path cost is one attribute test."""
        tracer = self._calls.tracer
        if tracer is None or not tracer.enabled:
            return None
        span = tracer.start("query", sql=prepared.sql, mode=mode)
        if bound:
            span.set("params", repr(bound)[:80])
        if site is not None:
            span.set("site", site)
        return span

    # ------------------------------------------------------------------
    # normalization
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
            if origin is not None and origin is not self._server:
                # The statement was prepared on a *different* backend
                # (two backends can be live in one process): re-prepare
                # on ours.  Statement ids are per-backend counters, so
                # forwarding the foreign handle would execute a
                # same-numbered stranger — or hand the coalescer a batch
                # pointed at the wrong store.
                statement = self._server.prepare(statement.sql)
            return statement, bound
        if isinstance(query, str):
            return self._server.prepare(query), tuple(params)
        raise DatabaseError(f"not a query: {query!r}")

    # ------------------------------------------------------------------
    # the three primitives
    # ------------------------------------------------------------------
    def execute(
        self, query, params: Sequence = (), txn: Optional[Transaction] = None
    ) -> QueryResult:
        """Submit and wait: the paper's ``executeQuery``."""
        prepared, bound = self.resolve(query, params)
        key, tables, ticket, still_valid = self._cache_plan(prepared, bound, txn)
        root = self._trace_root(prepared, bound, "execute")
        return self._calls.call(
            lambda: self._round_trip(prepared, bound, txn, span=root),
            key=key,
            tables=tables,
            still_valid=still_valid,
            span=root,
            ticket=ticket,
        )

    def submit(
        self, query, params: Sequence = (), txn: Optional[Transaction] = None
    ) -> QueryHandle:
        """Non-blocking submit: the paper's ``submitQuery``.

        Returns immediately with a handle; a cache hit comes back
        already resolved, otherwise one executor worker pays the round
        trip.
        """
        if txn is not None:
            # Discussion-section rule (DESIGN.md): asynchronous *reads*
            # may overlap an open transaction — they run under its
            # shared locks — but asynchronous *updates* are rejected
            # outright: their failures would be observed after commit
            # decisions.
            prepared, bound = self.resolve(query, params)
            if prepared.write:
                raise TransactionStateError(
                    "asynchronous updates inside an explicit transaction "
                    "are not supported; commit first or use blocking "
                    "execute_update"
                )
        else:
            try:
                prepared, bound = self.resolve(query, params)
            except Exception as exc:
                # Observer-model contract: submission problems surface
                # at fetch_result, in iteration order.
                self._calls.bump("async_submits")
                return failed_handle(exc)
        return self._dispatch(prepared, bound, txn, prepared.label, "submit")

    def _dispatch(
        self,
        prepared: PreparedStatement,
        bound: tuple,
        txn: Optional[Transaction],
        label: str,
        mode: str,
    ) -> QueryHandle:
        """The shared tail of :meth:`submit` and :meth:`speculate`
        (``mode`` names which): trace root, cache plan, then
        :meth:`CallPipeline.submit` with the coalescer's enqueue as the
        dispatch for autocommit reads when set-oriented dispatch is on,
        else one executor task paying the round trip."""
        speculative = mode == "speculate"
        root = self._trace_root(
            prepared, bound, mode, site=label if speculative else None
        )
        key, tables, ticket, still_valid = self._cache_plan(prepared, bound, txn)
        coalescer = self._coalescer
        if coalescer is not None and txn is None and not prepared.write:
            # Same-statement submits outstanding behind the executor
            # merge into one batched server call.
            return self._calls.submit(
                lambda lease, watcher: coalescer.enqueue(
                    prepared, bound, lease, still_valid, watcher, root
                ),
                key=key,
                tables=tables,
                label=label,
                span=root,
                speculative=speculative,
                private=True,
                ticket=ticket,
            )

        def on_dispatch() -> None:
            self._server.meter.charge(
                "queue", self._server.profile.send_overhead_s
            )
            if txn is not None:
                txn.enter_async()

        return self._calls.dispatch(
            lambda: self._round_trip(prepared, bound, txn, span=root),
            key=key,
            tables=tables,
            label=label,
            on_dispatch=on_dispatch,
            cleanup=(txn.exit_async if txn is not None else None),
            still_valid=still_valid,
            span=root,
            speculative=speculative,
            ticket=ticket,
        )

    def fetch(self, handle: QueryHandle) -> QueryResult:
        """Blocking fetch: the paper's ``fetchResult``."""
        return self._calls.fetch(handle)

    # ------------------------------------------------------------------
    # speculation
    # ------------------------------------------------------------------
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
        try:
            prepared, bound = self.resolve(query, params)
        except Exception as exc:
            # Mirror submit's observer-model contract: resolution
            # problems surface at fetch time (or vanish if abandoned).
            return self._calls.speculate_failed(exc, label=site or "")
        if prepared.write:
            raise DatabaseError(
                "refusing to speculate a write statement; speculation is "
                "read-only by contract"
            )
        label = site if site is not None else prepared.label
        return self._dispatch(prepared, bound, txn, label, "speculate")

    def site_stats(self) -> Dict[str, SiteSpeculationStats]:
        """Per-call-site speculation ledger (see
        :meth:`CallPipeline.site_stats`)."""
        return self._calls.site_stats()

    def abandon(self, handle: "SpeculativeHandle") -> bool:
        """Settle a speculative handle as wasted (idempotent)."""
        return self._calls.abandon(handle)

    def drain_speculations(
        self, wait: bool = True, timeout_s: Optional[float] = None
    ) -> int:
        """Abandon every unsettled speculation (connection close calls
        this so dropped handles never leak executor work); the wait
        shares one overall deadline — see
        :meth:`CallPipeline.drain_speculations`."""
        return self._calls.drain_speculations(wait=wait, timeout_s=timeout_s)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _round_trip(
        self,
        prepared: PreparedStatement,
        bound: tuple,
        txn: Optional[Transaction],
        span: Optional[Span] = None,
    ) -> QueryResult:
        """One full network round trip plus server-side execution.

        The statement executes *in this thread* — the caller's for a
        blocking call, the executor worker's for a submit — holding one
        of the backend's admission slots, so a request crosses one
        thread boundary at most (the submit's hand-off to the executor).

        ``span`` is the request's root span: the round trip appears as
        a ``dispatch`` child, and the server hangs its ``server.execute``
        span under that (the span object rides the call — no ambient
        context to lose).
        """
        rtt = self._server.profile.network_rtt_s
        if rtt:
            self._server.meter.charge("network", rtt)
        dispatch_span = span.child("dispatch") if span is not None else None
        try:
            return self._server.execute_prepared(
                prepared, bound, txn, dispatch_span
            )
        except BaseException as exc:
            if dispatch_span is not None:
                dispatch_span.set("error", repr(exc))
            raise
        finally:
            if dispatch_span is not None:
                dispatch_span.end()

    _BYPASS = (None, None, None, None)

    def _cache_plan(
        self, prepared: PreparedStatement, bound: tuple, txn: Optional[Transaction]
    ):
        """``(cache key, read tables, ledger ticket, publication validity
        check)`` for this request, all None when the cache must be
        bypassed.

        Bypassed: writes; unhashable params; reads inside an explicit
        transaction (they run under the transaction's locks and may
        observe its own uncommitted writes, neither of which may leak
        into shared cached results); and reads of a table with an open
        writer — the ledger issues no ticket, because the value observed
        may be uncommitted.  The ticket is scoped to the request's point
        when it has one, so only writers that could touch its rows count.

        The one ticket does both jobs: the lookup validates entries
        against it, and the validity check re-takes it at publication
        time — every write window that opened or closed in between
        moved it (or still withholds it), so a value that may have
        overlapped a write is served to its waiters but never retained.
        """
        if self.cache is None or txn is not None or prepared.write:
            return self._BYPASS
        try:
            hash(bound)
        except TypeError:
            return self._BYPASS
        tables = prepared.tables
        point = prepared.point(bound)
        take_ticket = self._server.ledger.ticket
        ticket = take_ticket(tables, point)
        if ticket is None:
            return self._BYPASS
        return (
            (prepared.sql, bound),
            tables,
            ticket,
            lambda: take_ticket(tables, point) == ticket,
        )
