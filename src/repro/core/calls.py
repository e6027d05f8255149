"""The transport-agnostic half of the submission core.

A front end builds one :class:`Request` — the cache plan, the trace
span, the label and its transport's three verbs (``round_trip``,
``charge``, ``release``) — and :class:`CallPipeline` passes that record
whole through every stage: the cache protocol (lookup, single-flight
join, the one publication rule), the dispatch onto the bounded
executor, :meth:`~CallPipeline.settle` (where every round trip ends),
the speculation ledger (:class:`SpeculativeHandle`,
:class:`SiteSpeculationStats`) and the counters
(:class:`SubmissionStats`).  It knows nothing about SQL: what a round
trip *is* is the request's business, which is how the web-service
client reuses it.  The lifecycle narrative lives in
:mod:`repro.core.submission`, which re-exports everything here.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import asdict, dataclass, replace
from operator import attrgetter
from typing import Any, Dict, Optional, Set

from ..obs.metrics import CellField, Cells, Histogram, MetricsRegistry
from ..obs.trace import Span, Tracer
from ..prefetch.cache import ResultCache
from ..runtime.future import RequestFuture
from ..runtime.handles import QueryHandle, failed_handle

_AGE = attrgetter("age_s")


@dataclass
class SubmissionStats:
    """Counters for one pipeline (shared by all its front ends).

    The request-path counters named in :attr:`COUNTED` live in
    per-thread :class:`~repro.obs.metrics.Cells` (``cells``;
    :meth:`CallPipeline.bump` adds to the caller's cell without a lock)
    and read live as attributes.  The speculation counters are plain
    fields that move under the pipeline's ``_spec_lock`` with its
    ledger.
    """

    #: The request-path counters, in cell-slot order.
    COUNTED = (
        "blocking_calls", "async_submits", "fetches", "cache_hits",
        "coalesced_batches", "coalesced_queries",
    )
    blocking_calls = CellField()
    async_submits = CellField()
    fetches = CellField()
    cache_hits = CellField()
    #: Set-oriented dispatch: batches the coalescer merged (two or more
    #: same-statement submits answered by one server call) …
    coalesced_batches = CellField()
    #: … and the submits those batches carried.
    coalesced_queries = CellField()
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

    def __post_init__(self) -> None:
        self.cells = Cells((0,) * len(self.COUNTED))

    def counts(self) -> Dict[str, int]:
        """The :attr:`COUNTED` counters and ``round_trips_saved``, from
        one pass over the cells."""
        counts = dict(zip(self.COUNTED, self.cells.sums()))
        counts["round_trips_saved"] = (
            counts["coalesced_queries"] - counts["coalesced_batches"]
        )
        return counts

    @property
    def round_trips_saved(self) -> int:
        """The round trips coalescing avoided (queries − batches);
        derived, so it never disagrees with the other two."""
        return self.counts()["round_trips_saved"]


_SLOT = {field: slot for slot, field in enumerate(SubmissionStats.COUNTED)}


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
        """Bind the dispatch this handle watches.  ``CallPipeline.dispatch``
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


class Request:
    """One request through the submission core, built once by its front
    end and passed whole to every stage: the cache plan (``key`` /
    ``tables`` / ``ticket``; a None key bypasses the cache), the root
    trace ``span``, the handle ``label``, and what the core attaches on
    the way — the cache ``lease``, the speculative ``watcher``, the
    ``pipeline`` that dispatched it and, for a request resolved by
    someone else's task (a coalesced batch), the ``future`` its outcome
    is set on.

    A transport subclasses it with its three verbs: :meth:`round_trip`
    (do one), :meth:`charge` (what a real dispatch costs at submit) and
    :meth:`release` (give back whatever ``charge`` took; a no-op for a
    request that was never charged — a blocking call).

    A dispatched request is itself the executor task: calling it is
    :meth:`CallPipeline.run`, and :meth:`cancelled` is how the executor
    reports dropping it.
    """

    __slots__ = (
        "key", "tables", "ticket", "span", "label", "lease", "watcher",
        "future", "pipeline",
    )

    #: Can nothing but a cache lease observe the dispatch (``release``
    #: owes nothing)?  Then abandoning a lease-less speculation may
    #: cancel it outright.
    private = True

    def __init__(self, label: str = "", span: Optional[Span] = None) -> None:
        self.key = self.tables = self.ticket = None
        self.lease = self.watcher = self.future = self.pipeline = None
        self.label = label
        self.span = span

    def __call__(self) -> Any:
        return self.pipeline.run(self)

    def cancelled(self) -> None:
        """Its future was cancelled while queued, so it never runs: it
        still ends in :meth:`CallPipeline.settle`, as a
        ``CancelledError`` — an owner lease's followers get that error,
        nothing is retained, and ``release`` gives back the charge."""
        self.pipeline.settle(self, CancelledError())

    def round_trip(self) -> Any:
        """One full round trip, in the calling thread."""
        raise NotImplementedError

    def charge(self) -> None:
        """A real dispatch is about to be queued (submitting thread)."""

    def release(self) -> None:
        """The charged dispatch finished, or could not be queued."""

    def still_valid(self) -> bool:
        """Is ``ticket`` still what the store would issue?  Re-checked
        at publication; a transport without a write ledger has nothing
        that could have moved."""
        return True


def _cache_outcome(lease) -> str:
    if lease is None:
        return "bypass"
    if lease.is_hit:
        return "hit"
    return "follower" if lease.is_follower else "miss"


class CallPipeline:
    """Transport-agnostic submission core.

    Owns the cache protocol (lookup, single-flight join, populate,
    failure propagation), the dispatch to a bounded
    :class:`~repro.runtime.executor.AsyncExecutor`, and the stats.  The
    *transport* — what a round trip actually is — arrives with each
    :class:`Request`; the web-service client reuses this class directly
    with HTTP-shaped requests.
    """

    def __init__(
        self,
        executor,
        cache: Optional[ResultCache] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.executor = executor
        self.cache = cache
        self.tracer = tracer
        self.metrics = metrics
        self.stats = SubmissionStats()
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

    def bump(self, field: str, n: int = 1) -> None:
        """Add ``n`` to one of ``stats``' request-path counters, in the
        calling thread's cell (no lock)."""
        self.stats.cells.mine()[_SLOT[field]] += n

    # ------------------------------------------------------------------
    # blocking path
    # ------------------------------------------------------------------
    def call(self, request: Request) -> Any:
        """Submit and wait in the calling thread.

        A cache hit pays no round trip; concurrent identical calls share
        one in-flight execution (the follower blocks on the owner's
        future instead of re-executing); otherwise :meth:`run` pays the
        round trip here.
        """
        self.bump("blocking_calls")
        started = time.perf_counter()
        span = request.span
        try:
            lease = self._acquire(request)
            if lease is None or lease.is_owner:
                return self.run(request)
            self.bump("cache_hits")
            return lease.value if lease.is_hit else lease.wait()
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
    # the one way a round trip ends: run → settle → publish
    # ------------------------------------------------------------------
    def run(self, request: Request) -> Any:
        """One round trip in this thread — the caller's for a blocking
        call, an executor worker's for a dispatch — then :meth:`settle`;
        returns the result or re-raises the failure."""
        try:
            outcome = request.round_trip()
        except BaseException as exc:
            self.settle(request, exc)
            raise
        self.settle(request, outcome)
        return outcome

    def settle(self, request: Request, outcome: Any) -> None:
        """Every request that owns its round trip ends here, whoever ran
        it (:meth:`run`, a coalesced flush) and also when its dispatch
        could not be queued at all: the lease is published (``outcome``
        an exception → failed), the dispatch's debt released, and the
        request's own future, if it carries one, resolved."""
        try:
            self.publish(request, outcome)
        finally:
            request.release()
        future = request.future
        if future is not None:
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    def publish(self, request: Request, outcome: Any) -> None:
        """The one publication rule: every owner lease ends here.

        An exception propagates to the lease's followers and caches
        nothing.  Otherwise followers are served ``outcome``, and it is
        *retained* only if the request's ledger ticket is still the one
        the read was planned with **and** the speculation that fetched
        it (``request.watcher``) did not settle as waste.  A no-op
        without a lease.
        """
        lease = request.lease
        if lease is None:
            return
        if isinstance(outcome, BaseException):
            self.cache.fail(lease, outcome)
            return
        watcher = request.watcher
        retain = request.still_valid() and not (
            watcher is not None and watcher.wasted
        )
        self.cache.complete(lease, outcome, retain=retain)

    # ------------------------------------------------------------------
    # non-blocking path: lease → hit/follower | start → handle → settle
    # ------------------------------------------------------------------
    def dispatch(self, request: Request, speculative: bool = False) -> QueryHandle:
        """The one non-blocking lifecycle; returns a handle at once.

        A cache hit and a single-flight follower both get the cache
        entry's own future — already resolved for a hit (no thread hop,
        nothing built), the owner's in-flight one for a follower; both
        count as cache hits, neither dispatches, and neither handle can
        cancel the entry (only the owner resolves it — with
        ``CancelledError`` if the owner's own dispatch is cancelled while
        queued).  Otherwise
        :meth:`start` begins the real dispatch and returns its future;
        whoever learns the outcome hands it to :meth:`settle`.

        ``speculative`` returns a tracked :class:`SpeculativeHandle`
        (the request's ``watcher``) and counts a speculation instead of
        an async submit.
        """
        cell = self.stats.cells.mine()  # one lookup for both counts
        if not speculative:
            cell[_SLOT["async_submits"]] += 1
        lease = self._acquire(request)
        watcher = None
        if speculative:
            watcher = request.watcher = SpeculativeHandle(
                None, label=request.label, pipeline=self, span=request.span
            )
        cancellable = False
        if lease is None or lease.is_owner:
            future = self.start(request)
            cancellable = lease is None and request.private
        else:
            cell[_SLOT["cache_hits"]] += 1
            future = lease.future  # the entry's own: resolved for a hit
        if watcher is None:
            return QueryHandle(future, label=request.label, span=request.span)
        watcher._attach(future, cancellable)
        return self._track(watcher)

    def start(self, request: Request) -> RequestFuture:
        """Begin the real dispatch — the request as an executor task,
        running :meth:`run` — and return its future.  All that differs
        between transports (:class:`SubmissionPipeline` routes
        coalescable reads to its :class:`DispatchCoalescer` instead)."""
        request.charge()
        request.pipeline = self
        try:
            return self.executor.submit(request)
        except BaseException as exc:
            # Never strand single-flight followers (or a transaction's
            # in-flight count) on a submission that could not be queued.
            self.settle(request, exc)
            raise

    def defer(
        self, error: BaseException, label: str = "", speculative: bool = False
    ) -> QueryHandle:
        """A request that failed before it could be built (its statement
        did not resolve): counted like the dispatch it would have been —
        an async submit, or a tracked speculation under the same
        hits + wasted == speculations contract — and the error surfaces
        at fetch time, or vanishes with an abandoned speculation."""
        handle = failed_handle(error)
        if not speculative:
            self.bump("async_submits")
            return handle
        return self._track(
            SpeculativeHandle(handle.future, label=label, pipeline=self)
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
                done.sort(key=_AGE, reverse=True)
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
    def _acquire(self, request: Request):
        """Take the request's cache lease — None when its plan says
        bypass or there is no cache — and record it on the request; when
        traced, under a ``cache`` child span carrying the lookup outcome
        (also mirrored onto the root as ``cache:``)."""
        span = request.span
        if span is None:
            lease = self._lookup(request)
        else:
            with span.child("cache") as cache_span:
                lease = self._lookup(request)
                outcome = _cache_outcome(lease)
                cache_span.set("outcome", outcome)
            span.set("cache", outcome)
        request.lease = lease
        return lease

    def _lookup(self, request: Request):
        if request.key is None or self.cache is None:
            return None
        return self.cache.acquire(request.key, request.tables, request.ticket)

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, Any]:
        """Every counter of this pipeline as one plain dict.

        The request-path counters come from one pass over their cells,
        the speculation counters and per-site ledger from under
        ``_spec_lock`` (their owning lock), so the snapshot never tears
        an invariant.
        """
        snap: Dict[str, Any] = self.stats.counts()
        with self._spec_lock:
            snap.update(asdict(self.stats))
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
