"""Database client connection: the blocking/async front end.

Latency accounting: every *blocking* call pays one full network round
trip in the calling thread before the server result is visible — this is
the per-iteration cost that dominates the original (untransformed)
programs.  ``submit_query`` pays only a tiny submit overhead in the
calling thread; the round trip is paid by one of the connection's async
worker threads, overlapping with the application and with other
requests.

The connection itself is deliberately thin: the whole submission
lifecycle (normalization, cache lookup with single-flight, dispatch,
stats, cache population) lives in
:class:`repro.core.submission.SubmissionPipeline`, shared verbatim with
the asyncio front end (:mod:`repro.runtime.aio`).  What remains here is
connection *state*: open/closed, the current explicit transaction, and
the prepared-statement convenience wrapper.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Union

from contextlib import contextmanager

from ..core.submission import (
    SpeculativeHandle,
    SubmissionPipeline,
    SubmissionStats,
)
from ..db.errors import DatabaseError, TransactionStateError
from ..db.plan import QueryResult
from ..backends.base import PreparedStatement
from ..db.server import DatabaseServer
from ..db.txn import Transaction
from ..prefetch.cache import ResultCache
from ..runtime.executor import AsyncExecutor
from ..runtime.handles import QueryHandle


class PreparedQuery:
    """Client-side prepared statement with JDBC-style 1-based binding.

    Mirrors the paper's Example 2 usage::

        qt = conn.prepare("select count(part_key) from part where category_id = ?")
        qt.bind(1, category)
        part_count = conn.execute_query(qt).scalar()

    Bind state is snapshotted at submit time, so rebinding inside the
    submit loop (the transformed programs do exactly that) is safe.
    """

    def __init__(self, connection: "Connection", prepared: PreparedStatement) -> None:
        self._connection = connection
        self._prepared = prepared
        self._params: List[Any] = [None] * prepared.param_count

    @property
    def sql(self) -> str:
        return self._prepared.sql

    @property
    def server_statement(self) -> PreparedStatement:
        return self._prepared

    def bind(self, position: int, value: Any) -> "PreparedQuery":
        """Bind the 1-based parameter ``position`` to ``value``."""
        if position < 1 or position > len(self._params):
            raise DatabaseError(
                f"bind position {position} out of range 1..{len(self._params)}"
            )
        self._params[position - 1] = value
        return self

    def bind_all(self, values: Sequence[Any]) -> "PreparedQuery":
        if len(values) != len(self._params):
            raise DatabaseError(
                f"expected {len(self._params)} values, got {len(values)}"
            )
        self._params = list(values)
        return self

    def snapshot_params(self) -> tuple:
        return tuple(self._params)


Query = Union[str, PreparedQuery]


class Connection:
    """A client connection to one statement store.

    ``server`` is any :class:`repro.backends.base.Backend` — the
    simulated in-memory :class:`~repro.db.server.DatabaseServer` (the
    default) or a DB-API store like
    :class:`repro.backends.sqlite.SqliteBackend`; everything below
    (cache protocol, coalescing, speculation, tracing, metrics) is
    backend-agnostic, which `tests/test_backend_differential.py`
    enforces by diffing the two stores statement by statement.

    ``async_workers`` sets the size of the client-side thread pool used
    for asynchronous submissions — the "number of threads" knob in the
    paper's experiments.  ``result_cache`` attaches a shared
    :class:`~repro.prefetch.cache.ResultCache`; every lookup is
    validated against the server's write-epoch ledger, so a write to a
    table — including one issued through *another* connection — is seen
    by the next cached read of it.  ``coalesce`` (off by
    default) enables set-oriented dispatch: autocommit reads queued
    behind the executor merge with other outstanding submits of the
    same statement into one batched server call, ``coalesce_window``
    bounding how many merge (default
    :attr:`~repro.core.submission.DispatchCoalescer.DEFAULT_WINDOW`).

    Observability is opt-in: ``tracer`` (a
    :class:`~repro.obs.trace.Tracer`) makes every request emit a span
    tree, and ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
    collects per-query latency histograms and registers this
    connection's stats surfaces as snapshot sources.  Both default to
    off, in which case the hot path pays a single ``None`` test.
    """

    def __init__(
        self,
        server: DatabaseServer,
        async_workers: int = 10,
        result_cache: Optional[ResultCache] = None,
        coalesce: bool = False,
        coalesce_window: Optional[int] = None,
        tracer=None,
        metrics=None,
    ) -> None:
        self._server = server
        self._executor = AsyncExecutor(
            async_workers,
            name="client-async",
            spawn_cost_s=server.profile.thread_spawn_s,
        )
        self._pipeline = SubmissionPipeline(
            server,
            self._executor,
            cache=result_cache,
            coalesce=coalesce,
            coalesce_window=coalesce_window,
            tracer=tracer,
            metrics=metrics,
        )
        if metrics is not None and result_cache is not None:
            metrics.register_source("cache", result_cache.stats_snapshot)
        self._closed = False
        self._txn: Optional[Transaction] = None

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    @property
    def async_workers(self) -> int:
        return self._executor.workers

    def set_async_workers(self, workers: int) -> None:
        self._executor.resize(workers)

    @property
    def server(self) -> DatabaseServer:
        return self._server

    @property
    def executor(self) -> AsyncExecutor:
        return self._executor

    @property
    def pipeline(self) -> SubmissionPipeline:
        """The shared submission pipeline (also used by the asyncio
        front end wrapping this connection)."""
        return self._pipeline

    @property
    def stats(self) -> SubmissionStats:
        return self._pipeline.stats

    @property
    def result_cache(self) -> Optional[ResultCache]:
        """The shared query-result cache, when one is attached."""
        return self._pipeline.cache

    @property
    def tracer(self):
        """The attached :class:`~repro.obs.trace.Tracer` (None when
        tracing is off)."""
        return self._pipeline.tracer

    @property
    def metrics(self):
        """The attached :class:`~repro.obs.metrics.MetricsRegistry`
        (None when metrics collection is off)."""
        return self._pipeline.metrics

    def site_stats(self):
        """Per-call-site speculation ledger (hits/wastes keyed by site
        label) — see :meth:`SubmissionPipeline.site_stats`."""
        return self._pipeline.site_stats()

    def stats_snapshot(self) -> dict:
        """This connection's counters as one nested plain dict:
        the pipeline's counters (with the per-site speculation ledger)
        plus the attached cache's, when one is present."""
        snap: dict = {"submission": self._pipeline.stats_snapshot()}
        cache = self._pipeline.cache
        if cache is not None:
            snap["cache"] = cache.stats_snapshot()
        return snap

    # ------------------------------------------------------------------
    # preparation
    # ------------------------------------------------------------------
    def prepare(self, sql: str) -> PreparedQuery:
        """Prepare a statement (parse/plan once; paper Example 2 `s0`)."""
        return PreparedQuery(self, self._server.prepare(sql))

    # ------------------------------------------------------------------
    # blocking API (original programs)
    # ------------------------------------------------------------------
    def execute_query(self, query: Query, params: Sequence = ()) -> QueryResult:
        """Submit and wait: the paper's ``executeQuery``.

        Pays one full network round trip plus the server-side execution
        time, in the calling thread.  With a :class:`ResultCache`
        attached, repeated reads outside transactions are served locally
        (a hit pays no round trip at all) and concurrent identical reads
        share one in-flight execution.
        """
        self._ensure_open()
        return self._pipeline.execute(query, params, txn=self._txn)

    def execute_update(self, query: Query, params: Sequence = ()) -> QueryResult:
        """Blocking DML execution (alias kept distinct so the transform
        registry can attach different external-effect metadata)."""
        return self.execute_query(query, params)

    # ------------------------------------------------------------------
    # non-blocking API (transformed programs)
    # ------------------------------------------------------------------
    def submit_query(self, query: Query, params: Sequence = ()) -> QueryHandle:
        """Non-blocking submit: the paper's ``submitQuery``.

        Returns immediately with a handle; a cache hit comes back
        already resolved, otherwise one async worker thread pays the
        round trip and runs the request to completion.
        """
        self._ensure_open()
        return self._pipeline.submit(query, params, txn=self._txn)

    def submit_update(self, query: Query, params: Sequence = ()) -> QueryHandle:
        return self.submit_query(query, params)

    def speculate_query(
        self, query: Query, params: Sequence = (), site: Optional[str] = None
    ) -> SpeculativeHandle:
        """Speculative submit: issue a read whose consumer may never run.

        The prefetch pass's unguarded mode emits this for a submit
        hoisted above a conditional whose outcome is still unknown.
        Fetch the handle to consume the result (counted as a
        speculation hit), or drop it — unconsumed handles are abandoned
        and drained when the connection closes, and an abandoned or
        failed speculation never publishes a value to the result cache.
        ``site`` labels the call site in the per-site speculation
        ledger (:meth:`site_stats`); it defaults to the statement text.
        """
        self._ensure_open()
        return self._pipeline.speculate(query, params, txn=self._txn, site=site)

    def abandon(self, handle: SpeculativeHandle) -> bool:
        """Explicitly settle a speculative handle as wasted (optional;
        dropped handles are drained at close)."""
        return self._pipeline.abandon(handle)

    def fetch_result(self, handle: QueryHandle) -> QueryResult:
        """Blocking fetch: the paper's ``fetchResult``."""
        return self._pipeline.fetch(handle)

    # ------------------------------------------------------------------
    # explicit transactions (Discussion-section substrate)
    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        return self._txn is not None and self._txn.is_active

    def begin(self) -> Transaction:
        """Open an explicit transaction on this connection.

        Every subsequent blocking call, and every asynchronous *read*
        submitted before commit/rollback, runs under it.
        """
        self._ensure_open()
        if self.in_transaction:
            raise TransactionStateError(
                "a transaction is already open on this connection"
            )
        self._txn = self._server.begin_transaction()
        return self._txn

    def commit(self) -> None:
        """Commit the open transaction (drains in-flight async reads).

        The written tables' write windows close inside the commit
        boundary: cached entries reading them lapse at their next
        lookup.
        """
        txn = self._require_txn()
        try:
            txn.commit()
        finally:
            self._txn = None

    def rollback(self) -> None:
        """Roll back the open transaction, undoing its writes.

        Rolled-back writes leave cached entries valid: the
        pre-transaction data — which is what caches hold — is restored.
        """
        txn = self._require_txn()
        try:
            txn.rollback()
        finally:
            self._txn = None

    @contextmanager
    def transaction(self):
        """``with conn.transaction():`` — commit on success, roll back
        on any exception."""
        self.begin()
        try:
            yield self._txn
        except BaseException:
            if self.in_transaction:
                self.rollback()
            raise
        else:
            self.commit()

    def _require_txn(self) -> Transaction:
        if self._txn is None:
            raise TransactionStateError("no transaction is open")
        return self._txn

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise DatabaseError("connection is closed")

    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            # Outstanding speculations first: abandoned handles must not
            # leak executor work (or transaction in-flight accounting)
            # past the connection's lifetime.
            self._pipeline.drain_speculations(wait=True)
            if self.in_transaction:
                # Mirror real drivers: an unfinished transaction rolls
                # back on close, releasing its locks.
                self.rollback()
            self._closed = True
            self._executor.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
