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

Invalidation is **not** handled here.  Writes invalidate server-side:
the pipeline registers its cache with the server
(:meth:`Backend.register_cache`), and the server broadcasts
per-table invalidations from its write path — inside the
transaction-commit boundary for transactional writes — so a write
through *any* connection (cached, cache-less, or transactional)
invalidates every registered cache.

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
if the tables' write-version token is unchanged at publication time
**and** the speculation that fetched it did not settle as waste.  A
failed outcome propagates to followers and caches nothing.

**Cache-key semantics.**  The key is the normalized ``(sql, params)``
pair; it carries no connection or runtime identity, so any front end's
fill is any other front end's hit.  A request is *uncacheable* (the
pipeline bypasses the cache entirely) when it is a write, its params
are unhashable, it runs inside an explicit transaction, or another
transaction holds uncommitted writes against its tables.  Together with
the retention rule this guarantees a cached value is always a
committed, non-stale read.

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
(:meth:`~repro.backends.base.Backend.submit_prepared_batch`, the
binding-demux operator) and the per-binding outcomes demultiplex back
to the individual handles.  One round-trip charge and one statement
execution answer the whole batch; a failing binding faults only its own
handle; publication stays per ``(key, tables)``.  Transactional reads
and writes always dispatch one executor task each.

:class:`CallPipeline` is the transport-agnostic half (cache lookup,
single-flight, dispatch, speculation ledger, stats);
:class:`SubmissionPipeline` layers the SQL specifics (statement
resolution, transaction rules, network charges, the optional
coalescer) on top.  Both live here so cache-lookup logic exists in
exactly one module.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import asdict, dataclass, replace
from functools import partialmethod
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..db.errors import DatabaseError, TransactionStateError
from ..db.plan import QueryResult
from ..backends.base import Backend, PreparedStatement
from ..db.txn import Transaction
from ..obs.metrics import Histogram, MetricsRegistry
from ..obs.trace import Span, Tracer
from ..prefetch.cache import ResultCache
from ..runtime.handles import QueryHandle, failed_handle, resolved_future


@dataclass
class SubmissionStats:
    """Counters for one pipeline (shared by all its front ends)."""

    blocking_calls: int = 0
    async_submits: int = 0
    fetches: int = 0
    cache_hits: int = 0
    #: Speculative dispatches issued (``speculate``).  Every speculation
    #: eventually settles as exactly one hit or one waste; handles still
    #: unsettled (neither fetched nor abandoned yet) account for the
    #: difference ``speculations - speculation_hits - speculation_wasted``.
    speculations: int = 0
    #: Speculations whose handle was consumed by a fetch — the guard
    #: turned out true and the hidden round trip paid off.
    speculation_hits: int = 0
    #: Speculations abandoned unconsumed — explicitly, by the drain on
    #: connection close, or by the ledger's high-water sweep of
    #: completed-but-unclaimed handles — the guard turned out false.
    #: A sweep that misjudged a merely-slow consumer is corrected on the
    #: late fetch: the settle moves from here to ``speculation_hits``.
    speculation_wasted: int = 0
    #: Set-oriented dispatch: batches the coalescer merged (two or more
    #: same-statement submits answered by one server call) …
    coalesced_batches: int = 0
    #: … the submits those batches carried …
    coalesced_queries: int = 0
    #: … and the round trips that merging avoided (queries − batches).
    round_trips_saved: int = 0


@dataclass
class SiteSpeculationStats:
    """Per-call-site speculation ledger entry.

    Keyed by the speculation's site label (the generated code's call
    site, defaulting to the statement text).  This is the measurement
    the ROADMAP's adaptive-speculation feedback loop needs: compare a
    site's realized ``hit_rate`` against the cost model's breakeven
    probability and stop speculating where the guess ran hot.
    """

    speculations: int = 0
    hits: int = 0
    wasted: int = 0

    @property
    def settled(self) -> int:
        return self.hits + self.wasted

    @property
    def hit_rate(self) -> Optional[float]:
        """Realized hit fraction over settled speculations (None until
        at least one has settled)."""
        if not self.settled:
            return None
        return self.hits / self.settled


class SpeculativeHandle(QueryHandle):
    """A :class:`QueryHandle` whose consumer may never materialize.

    Returned by the ``speculate`` path; the prefetch pass's unguarded
    lift assigns it unconditionally and fetches it only on the guarded
    path.  ``abandon()`` settles it as wasted (idempotent; a no-op once
    fetched); unsettled handles are swept by
    :meth:`CallPipeline.drain_speculations`.
    """

    __slots__ = ("_pipeline", "_cancellable", "_swept", "_wasted")

    #: Class-level tag: lets front ends and tests recognize speculative
    #: handles without importing this module's internals.
    speculative = True

    def __init__(
        self,
        future,
        label: str = "",
        pipeline: Optional["CallPipeline"] = None,
        span: Optional[Span] = None,
    ) -> None:
        super().__init__(future, label=label, span=span)
        self._pipeline = pipeline
        self._cancellable = False
        #: Set when the high-water sweep settled this handle as wasted;
        #: a later claim corrects the ledger (see ``claim``).
        self._swept = False
        #: Set while the handle stands settled as wasted (abandon or
        #: sweep); cleared by a late claim's reclassification.
        #: :meth:`CallPipeline.publish` reads it: a speculation that
        #: settled as waste never has its value retained in the cache.
        self._wasted = False

    def _attach(self, future, cancellable: bool) -> None:
        """Bind the dispatch this handle watches.  ``CallPipeline.submit``
        creates the handle first — the dispatch's publication reads its
        waste state — and attaches the future before anyone can see it."""
        self._future = future
        self._cancellable = cancellable

    @property
    def wasted(self) -> bool:
        """Is this speculation currently settled as wasted?"""
        return self._wasted

    @property
    def cancellable(self) -> bool:
        """May an abandon cancel the underlying dispatch outright?

        Only when nobody else can observe it: no single-flight cache
        lease (a follower may be a real read) and no transaction
        in-flight accounting to unwind.
        """
        return self._cancellable

    def abandon(self) -> bool:
        """Settle this speculation as wasted.

        Returns True when this call did the settling; False when the
        handle was already fetched or abandoned.  Do not fetch an
        abandoned handle: a still-queued dispatch may have been
        cancelled, making ``result()`` raise ``CancelledError``.
        """
        if self._pipeline is None:
            return False
        return self._pipeline._settle_speculation(self, hit=False)

    def claim(self) -> bool:
        """Settle this speculation as a hit without blocking on it.

        ``fetch`` claims implicitly; front ends that wait through their
        own machinery (the asyncio adapter awaits the wrapped future
        directly) claim before waiting so a concurrent drain cannot
        misclassify a consumed handle as wasted.

        A handle the high-water sweep already settled as wasted is
        *reclassified* here (wasted decrements, hits increments): the
        consumer was merely slow, not absent.  The call still returns
        False — the settling itself happened earlier.
        """
        if self._pipeline is None:
            return False
        return self._pipeline._settle_speculation(self, hit=True)


class CallPipeline:
    """Transport-agnostic submission core.

    Owns the cache protocol (lookup, single-flight join, populate,
    failure propagation), the dispatch to a bounded
    :class:`~repro.runtime.executor.AsyncExecutor`, and the stats.  The
    *transport* — what a round trip actually is — arrives as the
    ``invoke`` callable; the web-service client reuses this class
    directly with HTTP-shaped invokes.
    """

    def __init__(
        self,
        executor,
        cache: Optional[ResultCache] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._executor = executor
        self._cache = cache
        self.stats = SubmissionStats()
        #: Guards every non-speculation counter of ``stats``.  The
        #: speculation_* counters stay under ``_spec_lock`` (they must
        #: move in lockstep with the ledger); everything else moves
        #: through :meth:`bump` so concurrent front ends never lose an
        #: increment.
        self._stats_lock = threading.Lock()
        self._tracer = tracer
        self._metrics = metrics
        self._blocking_hist: Optional[Histogram] = None
        self._query_hist: Optional[Histogram] = None
        if metrics is not None:
            self._blocking_hist = metrics.histogram("submission.blocking_s")
            self._query_hist = metrics.histogram("submission.query_s")
            metrics.register_source("submission", self.stats_snapshot)
        self._spec_lock = threading.Lock()
        #: Unsettled speculative handles (strong refs: a handle dropped
        #: by the application must still be abandonable by the drain).
        self._speculations: Set[SpeculativeHandle] = set()
        #: Per-site speculation ledger, keyed by handle label (see
        #: :class:`SiteSpeculationStats`); guarded by ``_spec_lock``.
        self._site_ledger: Dict[str, SiteSpeculationStats] = {}

    #: Ledger high-water mark: past this many unsettled speculations,
    #: completed-but-unclaimed handles are swept as wasted so a
    #: long-lived connection that never fetches its guard-false handles
    #: cannot grow the ledger without bound.
    SPECULATION_HIGH_WATER = 1024

    @property
    def cache(self) -> Optional[ResultCache]:
        return self._cache

    @property
    def executor(self):
        return self._executor

    @property
    def tracer(self) -> Optional[Tracer]:
        return self._tracer

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        return self._metrics

    def bump(self, field: str, n: int = 1) -> None:
        """Increment one non-speculation stats counter under its lock."""
        with self._stats_lock:
            setattr(self.stats, field, getattr(self.stats, field) + n)

    # ------------------------------------------------------------------
    # blocking path
    # ------------------------------------------------------------------
    def call(
        self,
        invoke: Callable[[], Any],
        key: Any = None,
        tables: Optional[Iterable[str]] = None,
        still_valid: Optional[Callable[[], bool]] = None,
        span: Optional[Span] = None,
    ) -> Any:
        """Submit and wait in the calling thread.

        A cache hit pays no round trip; concurrent identical calls share
        one in-flight execution (the follower blocks on the owner's
        future instead of re-executing).  ``still_valid`` is re-checked
        at publication time: if the read may have overlapped a data
        change, waiters are served but the value is not retained.
        """
        self.bump("blocking_calls")
        started = time.perf_counter()
        try:
            lease = self._acquire_traced(key, tables, span)
            if lease is None:
                return invoke()
            if lease.is_hit:
                self.bump("cache_hits")
                return lease.value
            if lease.is_follower:
                self.bump("cache_hits")
                return lease.wait()
            try:
                result = invoke()
            except BaseException as exc:
                self.publish(lease, exc, failed=True)
                raise
            self.publish(lease, result, still_valid)
            return result
        except BaseException as exc:
            if span is not None:
                span.set("error", repr(exc))
            raise
        finally:
            if self._blocking_hist is not None:
                self._blocking_hist.observe(time.perf_counter() - started)
            if span is not None:
                span.end()

    # ------------------------------------------------------------------
    # non-blocking path: lease → hit/follower | start → handle → publish
    # ------------------------------------------------------------------
    def submit(
        self,
        start: Callable[[Any, Optional["SpeculativeHandle"]], "Future"],
        key: Any = None,
        tables: Optional[Iterable[str]] = None,
        label: str = "",
        span: Optional[Span] = None,
        speculative: bool = False,
        private: bool = False,
    ) -> QueryHandle:
        """The one non-blocking lifecycle; returns a handle at once.

        A cache hit comes back already resolved (no thread hop) and a
        single-flight follower shares the owner's in-flight future —
        both count as cache hits and neither dispatches.  Otherwise
        ``start(lease, watcher)`` begins the real dispatch and returns
        its future; whoever completes that future hands the outcome to
        :meth:`publish` with the same ``lease`` and ``watcher``.
        ``start`` is all that differs between transports (an executor
        task in :meth:`dispatch`, an enqueue in
        :class:`DispatchCoalescer`).

        ``speculative`` returns a tracked :class:`SpeculativeHandle`
        (the ``watcher``) and counts a speculation instead of an async
        submit.  ``private`` says nothing besides a cache lease can
        observe the dispatch, so abandoning a lease-less speculation may
        cancel it outright.
        """
        if not speculative:
            self.bump("async_submits")
        lease = self._acquire_traced(key, tables, span)
        watcher = (
            SpeculativeHandle(None, label=label, pipeline=self, span=span)
            if speculative
            else None
        )
        cancellable = False
        if lease is not None and not lease.is_owner:
            self.bump("cache_hits")
            future = (
                resolved_future(lease.value) if lease.is_hit else lease.future
            )
        else:
            future = start(lease, watcher)
            cancellable = private and lease is None
        if watcher is None:
            return QueryHandle(future, label=label, span=span)
        watcher._attach(future, cancellable)
        return self._track(watcher)

    def publish(
        self,
        lease,
        outcome: Any,
        still_valid: Optional[Callable[[], bool]] = None,
        watcher: Optional["SpeculativeHandle"] = None,
        failed: bool = False,
    ) -> None:
        """The one publication rule: every owner lease ends here.

        ``failed`` propagates ``outcome`` (an exception) to the lease's
        followers and caches nothing.  Otherwise followers are served
        ``outcome``, and it is *retained* only if ``still_valid`` says
        the tables' write version is unchanged since the read was
        planned **and** the speculation that fetched it (``watcher``)
        did not settle as waste.  A no-op without a lease.
        """
        if lease is None:
            return
        if failed:
            self._cache.fail(lease, outcome)
            return
        retain = (still_valid is None or still_valid()) and not (
            watcher is not None and watcher.wasted
        )
        self._cache.complete(lease, outcome, retain=retain)

    def dispatch(
        self,
        invoke: Callable[[], Any],
        key: Any = None,
        tables: Optional[Iterable[str]] = None,
        label: str = "",
        on_dispatch: Optional[Callable[[], None]] = None,
        cleanup: Optional[Callable[[], None]] = None,
        still_valid: Optional[Callable[[], bool]] = None,
        span: Optional[Span] = None,
        speculative: bool = False,
    ) -> QueryHandle:
        """:meth:`submit` with an executor task around ``invoke`` as the
        dispatch — the transport-agnostic entry the web client uses.

        ``on_dispatch`` runs only when a real dispatch happens (overhead
        charges, transaction in-flight accounting); ``cleanup`` is its
        guaranteed counterpart, run when the dispatched task finishes —
        or immediately, if the dispatch itself fails.
        """

        def start(lease, watcher) -> "Future":
            if on_dispatch is not None:
                on_dispatch()

            def task() -> Any:
                try:
                    try:
                        result = invoke()
                    except BaseException as exc:
                        self.publish(lease, exc, failed=True)
                        raise
                    self.publish(lease, result, still_valid, watcher)
                    return result
                finally:
                    if cleanup is not None:
                        cleanup()

            try:
                return self._executor.submit(task)
            except BaseException as exc:
                # Never strand single-flight followers (or a transaction's
                # in-flight count) on a submission that could not be queued.
                if cleanup is not None:
                    cleanup()
                self.publish(lease, exc, failed=True)
                raise

        return self.submit(
            start,
            key=key,
            tables=tables,
            label=label,
            span=span,
            speculative=speculative,
            private=cleanup is None,
        )

    #: Dispatch a read whose handle may be dropped (see the module
    #: docstring's speculation contract): ``dispatch`` returning a
    #: tracked :class:`SpeculativeHandle`.
    speculate = partialmethod(dispatch, speculative=True)

    def speculate_failed(
        self, error: BaseException, label: str = ""
    ) -> SpeculativeHandle:
        """Record a speculation that failed before dispatch.

        Owns the same counting + ledger contract as :meth:`speculate`
        (the hits+wasted==speculations invariant), for callers whose
        request could not even be resolved: the error surfaces at fetch
        time, or vanishes if the handle is abandoned.
        """
        return self._track(
            SpeculativeHandle(
                failed_handle(error).future, label=label, pipeline=self
            )
        )

    def abandon(self, handle: SpeculativeHandle) -> bool:
        """Settle a speculative handle as wasted (see ``abandon``)."""
        return handle.abandon()

    #: Overall bound on the drain's wait.  A speculation that joined
    #: another pipeline's in-flight load as a single-flight follower may
    #: never complete if the owning pipeline was torn down without its
    #: cache fail path running; connection close must not hang on it.
    SPECULATION_DRAIN_TIMEOUT_S = 30.0

    def drain_speculations(
        self, wait: bool = True, timeout_s: Optional[float] = None
    ) -> int:
        """Abandon every unsettled speculation; returns how many.

        ``wait=True`` (the default; used by connection close) blocks
        until the non-cancelled ones finish, so no executor work
        outlives the caller.  The wait shares one deadline, ``timeout_s``
        (default :attr:`SPECULATION_DRAIN_TIMEOUT_S`) from entry, across
        every handle: this pipeline's own dispatches run on its bounded
        executor and finish, but handles following another pipeline's
        in-flight loads may never resolve, and close must not stack
        their waits.  Failures and timeouts of abandoned speculations
        are swallowed — nobody is left to observe them.
        """
        if timeout_s is None:
            timeout_s = self.SPECULATION_DRAIN_TIMEOUT_S
        with self._spec_lock:
            pending = list(self._speculations)
        for handle in pending:
            handle.abandon()
        if wait:
            deadline = time.monotonic() + timeout_s
            for handle in pending:
                try:
                    handle.exception(
                        timeout=max(0.0, deadline - time.monotonic())
                    )
                except (CancelledError, FutureTimeoutError):
                    pass
        return len(pending)

    def site_stats(self) -> Dict[str, SiteSpeculationStats]:
        """Snapshot of the per-site speculation ledger.

        One entry per distinct speculation label; counters move in
        lockstep with the pipeline-wide ``speculation_*`` stats (same
        lock).  Read-only: the returned entries are copies.
        """
        with self._spec_lock:
            return {
                site: replace(entry)
                for site, entry in self._site_ledger.items()
            }

    def _site_entry(self, handle: SpeculativeHandle) -> SiteSpeculationStats:
        """This handle's ledger entry (caller holds ``_spec_lock``)."""
        return self._site_ledger.setdefault(
            handle.label, SiteSpeculationStats()
        )

    def _track(self, handle: SpeculativeHandle) -> SpeculativeHandle:
        with self._spec_lock:
            # The dispatch counter moves with the ledger, under the same
            # lock as the hit/waste counters, so the invariant
            # speculations == hits + wasted + unsettled never
            # transiently misreads under concurrent front ends.
            self.stats.speculations += 1
            self._site_entry(handle).speculations += 1
            self._speculations.add(handle)
            excess = len(self._speculations) - self.SPECULATION_HIGH_WATER
            stale: list = []
            if excess > 0:
                # Sweep only the *oldest* completed handles (freshly
                # issued ones may be about to be fetched — abandoning
                # them would misreport profitable speculation as waste).
                done = [
                    h
                    for h in self._speculations
                    if h is not handle and h.done()
                ]
                done.sort(key=lambda h: h.age_s, reverse=True)
                stale = done[:excess]
        for old in stale:
            # Completed long ago and never claimed: almost certainly a
            # guard-false handle the generated code dropped.  Settling
            # it as wasted bounds the ledger; a later fetch still
            # returns the result, and its claim reclassifies the settle
            # as a hit (the consumer was slow, not absent).
            self._settle_speculation(old, hit=False, swept=True)
        return handle

    def _settle_speculation(
        self, handle: SpeculativeHandle, hit: bool, swept: bool = False
    ) -> bool:
        with self._spec_lock:
            if handle not in self._speculations:
                if hit and handle._swept:
                    # The high-water sweep misjudged a merely-slow
                    # consumer as absent; move the settle from waste to
                    # hit so SpeculationPolicy-relevant rates stay true.
                    handle._swept = False
                    handle._wasted = False
                    self.stats.speculation_wasted -= 1
                    self.stats.speculation_hits += 1
                    site = self._site_entry(handle)
                    site.wasted -= 1
                    site.hits += 1
                    if handle.span is not None:
                        # The recorded span stays truthful too (the
                        # buffer holds the object, not a serialization).
                        handle.span.set("wasted", False)
                return False  # already settled (fetch/abandon race)
            self._speculations.discard(handle)
            site = self._site_entry(handle)
            if hit:
                self.stats.speculation_hits += 1
                site.hits += 1
            else:
                self.stats.speculation_wasted += 1
                site.wasted += 1
                handle._wasted = True
                if swept:
                    handle._swept = True
        span = handle.span
        if span is not None:
            # The settle is the last trace event a wasted speculation
            # ever sees (nobody will fetch it), so end its root here;
            # a hit's root ends at fetch / note_completion as usual.
            span.set("wasted", not hit)
            if not hit:
                span.end()
        if not hit and handle.cancellable:
            # Still-queued and invisible to anyone else: skip the round
            # trip entirely.  A task already running just completes.
            handle.future.cancel()
        return True

    # ------------------------------------------------------------------
    def fetch(self, handle: QueryHandle) -> Any:
        """Blocking fetch: the paper's ``fetchResult``.

        Consuming a speculative handle settles it as a hit — the guard
        turned out true and the speculated work was wanted.
        """
        self.bump("fetches")
        if isinstance(handle, SpeculativeHandle):
            handle.claim()
        span = getattr(handle, "span", None)
        fetch_span = span.child("fetch") if span is not None else None
        try:
            result = handle.result()
        except BaseException as exc:
            if span is not None:
                span.set("error", repr(exc))
            raise
        finally:
            if fetch_span is not None:
                fetch_span.end()
            if span is not None:
                span.end()
            if self._query_hist is not None:
                self._query_hist.observe(handle.age_s)
        return result

    def note_completion(self, handle: QueryHandle) -> None:
        """Record a handle consumed outside :meth:`fetch`.

        The asyncio front end awaits the wrapped future directly (no
        blocking fetch ever runs), so it calls this from a done
        callback: the submit→result latency lands in the query
        histogram and the root span is closed.
        """
        if self._query_hist is not None:
            self._query_hist.observe(handle.age_s)
        span = getattr(handle, "span", None)
        if span is not None:
            span.end()

    # ------------------------------------------------------------------
    def _acquire(self, key: Any, tables: Optional[Iterable[str]]):
        if key is None or self._cache is None:
            return None
        return self._cache.acquire(key, tables)

    def _acquire_traced(
        self, key: Any, tables: Optional[Iterable[str]], span: Optional[Span]
    ):
        """:meth:`_acquire` plus a ``cache`` child span recording the
        lookup outcome (also mirrored onto the root as ``cache:``)."""
        if span is None:
            return self._acquire(key, tables)
        with span.child("cache") as cache_span:
            lease = self._acquire(key, tables)
            if lease is None:
                outcome = "bypass"
            elif lease.is_hit:
                outcome = "hit"
            elif lease.is_follower:
                outcome = "follower"
            else:
                outcome = "miss"
            cache_span.set("outcome", outcome)
        span.set("cache", outcome)
        return lease

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, Any]:
        """Every counter of this pipeline as one plain dict.

        Non-speculation counters are read under ``_stats_lock``, the
        speculation counters and per-site ledger under ``_spec_lock``
        (their owning lock), so the snapshot never tears an invariant.
        """
        with self._stats_lock:
            snap: Dict[str, Any] = asdict(self.stats)
        with self._spec_lock:
            for field in (
                "speculations",
                "speculation_hits",
                "speculation_wasted",
            ):
                snap[field] = getattr(self.stats, field)
            snap["speculation_sites"] = {
                site: {
                    "speculations": entry.speculations,
                    "hits": entry.hits,
                    "wasted": entry.wasted,
                    "hit_rate": entry.hit_rate,
                }
                for site, entry in self._site_ledger.items()
            }
        return snap


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


class DispatchCoalescer:
    """Set-oriented dispatch: merge outstanding same-statement submits
    into one batched server call.

    When several submits of the same prepared statement are queued
    behind the executor — exactly what a prefetch pass hoisting a
    submit loop, or a burst of speculative lifts, produces — executing
    them one per worker pays N round trips and N per-statement server
    costs.  The coalescer instead enqueues each submit as a pending
    entry keyed by ``statement_id`` plus one *flusher* task; whichever
    flusher runs first drains up to ``window`` entries and answers them
    with a single :meth:`Backend.submit_prepared_batch` call
    (one round-trip charge, one statement execution via the
    binding-demux operator), demultiplexing per-binding outcomes back
    to the individual handle futures.

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
        #: (backend identity, statement_id) -> (prepared, FIFO of
        #: pending entries).  Statement ids are per-backend counters, so
        #: the id alone would collide across two live backends and merge
        #: different statements — or the same text bound for different
        #: stores — into one batch; the backend identity in the key
        #: guarantees a coalesced batch never executes against the wrong
        #: store.
        self._pending: Dict[
            tuple, Tuple[PreparedStatement, Deque[_PendingDispatch]]
        ] = {}

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
        queue one binding plus one flusher task, return its future."""
        backend = self._backend
        # Every submit still pays the executor hand-off overhead in the
        # submitting thread, exactly like the executor-task dispatch.
        backend.meter.charge("queue", backend.profile.send_overhead_s)
        entry = _PendingDispatch(bound, lease, still_valid, watcher, span)
        batch_key = self._batch_key(prepared)
        with self._lock:
            group = self._pending.get(batch_key)
            if group is None:
                group = (prepared, deque())
                self._pending[batch_key] = group
            group[1].append(entry)
        try:
            self._calls.executor.submit(lambda: self._flush(batch_key))
        except BaseException as exc:
            # Never strand single-flight followers on a submission that
            # could not be queued.  Only unwind if no concurrent flusher
            # already claimed the entry.
            if self._discard(batch_key, entry):
                self._calls.publish(entry.lease, exc, failed=True)
            raise
        return entry.future

    def _discard(self, batch_key: tuple, entry: _PendingDispatch) -> bool:
        with self._lock:
            group = self._pending.get(batch_key)
            if group is None:
                return False
            try:
                group[1].remove(entry)
            except ValueError:
                return False
            if not group[1]:
                del self._pending[batch_key]
            return True

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
            prepared, queue = group
            count = min(len(queue), self._window)
            batch = [queue.popleft() for _ in range(count)]
            if not queue:
                del self._pending[batch_key]
            return prepared, batch

    def _execute(
        self, prepared: PreparedStatement, entries: List[_PendingDispatch]
    ) -> None:
        calls = self._calls
        live: List[_PendingDispatch] = []
        for entry in entries:
            # PENDING -> RUNNING bars late cancellation, so completion
            # below cannot race a cancel; a cancelled entry (abandoned
            # queued speculation, or an explicit handle.cancel) drops
            # out of the batch here.
            if entry.future.set_running_or_notify_cancel():
                live.append(entry)
            else:
                if entry.queue_span is not None:
                    entry.queue_span.set("cancelled", True).end()
                # Never strand followers of a cancelled owner.
                calls.publish(entry.lease, CancelledError(), failed=True)
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
            outcomes = server.submit_prepared_batch(
                prepared,
                [entry.bound for entry in live],
                span=batch_span,
            ).result()
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


class SubmissionPipeline:
    """The SQL submission pipeline over one :class:`Backend`.

    Owns statement normalization, the transaction rules from the
    paper's Discussion section, the simulated network charges, and —
    through its inner :class:`CallPipeline` — the cache protocol and
    dispatch.  Constructing a pipeline with a cache registers that cache
    with the server for write-driven invalidation broadcasts.
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
        if cache is not None:
            server.register_cache(cache)

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
        key, tables, still_valid = self._cache_plan(prepared, bound, txn)
        root = self._trace_root(prepared, bound, "execute")
        return self._calls.call(
            lambda: self._round_trip(prepared, bound, txn, span=root),
            key=key,
            tables=tables,
            still_valid=still_valid,
            span=root,
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
        key, tables, still_valid = self._cache_plan(prepared, bound, txn)
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

        ``span`` is the request's root span: the round trip appears as
        a ``dispatch`` child, and the server hangs its ``server.execute``
        span under that (the span object rides the submit call across
        the thread boundary — no ambient context to lose).
        """
        rtt = self._server.profile.network_rtt_s
        if rtt:
            self._server.meter.charge("network", rtt)
        dispatch_span = span.child("dispatch") if span is not None else None
        try:
            return self._server.submit_prepared(
                prepared,
                bound,
                txn=txn,
                span=dispatch_span,
            ).result()
        except BaseException as exc:
            if dispatch_span is not None:
                dispatch_span.set("error", repr(exc))
            raise
        finally:
            if dispatch_span is not None:
                dispatch_span.end()

    _BYPASS = (None, None, None)

    def _cache_plan(
        self, prepared: PreparedStatement, bound: tuple, txn: Optional[Transaction]
    ):
        """``(cache key, read tables, publication validity check)`` for
        this request, all None when the cache must be bypassed.

        Bypassed: writes; unhashable params; reads inside an explicit
        transaction (they run under the transaction's locks and may
        observe its own uncommitted writes, neither of which may leak
        into shared cached results); and reads of tables another
        transaction has uncommitted writes against (the value observed
        may be dirty, and a rollback never broadcasts an invalidation).

        The validity check re-reads the tables' write-version token at
        publication time; every write statement and every rollback undo
        bumps it.  The token is captured *before* the uncommitted-write
        check, so a transactional write landing between the two is
        caught by one or the other — a dirty value can never be
        retained.
        """
        if self.cache is None or txn is not None or prepared.write:
            return self._BYPASS
        try:
            hash(bound)
        except TypeError:
            return self._BYPASS
        tables = prepared.tables
        token = self._server.read_validity(tables)
        if self._server.has_uncommitted_writes(tables):
            return self._BYPASS
        return (
            (prepared.sql, bound),
            tables,
            lambda: self._server.read_validity(tables) == token,
        )
