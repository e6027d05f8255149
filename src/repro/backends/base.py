"""The backend contract under the submission pipeline.

The client stack — :class:`repro.client.connection.Connection`, the
:class:`repro.core.submission.SubmissionPipeline`, the result cache, the
dispatch coalescer, speculation, tracing, metrics — is transport
agnostic: it needs a *store* that can prepare statements, execute them
(one at a time or set-oriented), open transactions, and cooperate with
the cache-consistency protocol.  :class:`Backend` names that surface.

Two implementations ship today:

* :class:`repro.backends.memory.InMemoryBackend` — the simulated
  database server (:class:`repro.db.server.DatabaseServer`), which
  doubles as the differential-test oracle;
* :class:`repro.backends.sqlite.SqliteBackend` — stdlib ``sqlite3``
  behind the same interface, the first real (honest-latency) store.

Invalidation semantics are part of the contract, not an in-memory
accident, so the bookkeeping lives here in
:class:`CacheInvalidationLedger`: per-table write versions (the
optimistic publication token), uncommitted-write marks (reads of dirty
tables bypass the cache) and the registered-cache broadcast.  The
in-memory backend drives the ledger from its server-side write path; a
DB-API backend, which cannot push invalidations from the real server,
drives it from the client-tracked write path — either way the cache
observes identical behavior, which the invalidation-equivalence tests
assert.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Dict, List, Optional, Sequence

#: Backend kinds selectable via ``Database.connect(backend=...)`` /
#: ``aio_connect(backend=...)`` / the ``REPRO_BACKEND`` environment
#: variable / the workload driver's ``--backend`` flag.
BACKENDS = ("memory", "sqlite")


def resolve_backend_name(backend: Optional[str] = None) -> str:
    """Validate a backend name, defaulting from ``REPRO_BACKEND``.

    ``None`` defers to the ``REPRO_BACKEND`` environment variable (the
    CI backend matrix sets it), else ``"memory"``.

    >>> resolve_backend_name("memory")
    'memory'
    >>> resolve_backend_name("sqlite")
    'sqlite'
    """
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND", "").strip() or "memory"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} (expected one of {BACKENDS})"
        )
    return backend


class CacheInvalidationLedger:
    """Cache-consistency bookkeeping shared by every backend.

    Three coupled mechanisms (see docs/BACKENDS.md for the protocol
    table):

    * **Registered caches.**  Result caches register weakly; every
      executed write broadcasts a per-table invalidation to all of them
      — transactional writes at commit, never at rollback.
    * **Write versions.**  Every data change (including a rollback's
      restore) bumps the written table's version.  Cached readers
      capture a token before executing and publish only if it is
      unchanged — the optimistic check that keeps a read overlapping
      *any* data change out of the cache.
    * **Uncommitted marks.**  Tables with open transactional writes are
      marked (refcounted per transaction); reads of marked tables
      bypass the cache, because the value observed may be dirty and a
      rolled-back write never broadcasts.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Weak references: a cache lives exactly as long as some client
        #: holds it; no unregistration bookkeeping on connection close.
        self._caches: "weakref.WeakSet" = weakref.WeakSet()
        self._write_versions: Dict[str, int] = {}
        self._writes_total = 0
        self._uncommitted: Dict[Optional[str], int] = {}

    # -- cache registry ------------------------------------------------
    def register_cache(self, cache) -> None:
        with self._lock:
            self._caches.add(cache)

    def unregister_cache(self, cache) -> None:
        with self._lock:
            self._caches.discard(cache)

    @property
    def cache_count(self) -> int:
        with self._lock:
            return len(self._caches)

    def broadcast_invalidation(self, table: Optional[str]) -> int:
        """Drop entries reading ``table`` from every registered cache
        (``None`` drops everything); returns total entries dropped."""
        with self._lock:
            caches = list(self._caches)
        dropped = 0
        for cache in caches:
            dropped += cache.invalidate_table(table)
        return dropped

    # -- write versioning ----------------------------------------------
    def note_data_change(self, table: Optional[str]) -> None:
        """Bump the write version of ``table`` (None = unknown target)."""
        with self._lock:
            key = table if table is not None else "*"
            self._write_versions[key] = self._write_versions.get(key, 0) + 1
            self._writes_total += 1

    def read_validity(self, tables) -> int:
        """A token that changes whenever any of ``tables`` may have
        changed (the wildcard observes every write)."""
        with self._lock:
            if "*" in tables:
                return self._writes_total
            return self._write_versions.get("*", 0) + sum(
                self._write_versions.get(table, 0) for table in tables
            )

    # -- uncommitted-write marks ---------------------------------------
    def mark_uncommitted(self, table: Optional[str]) -> None:
        with self._lock:
            self._uncommitted[table] = self._uncommitted.get(table, 0) + 1

    def clear_uncommitted(self, table: Optional[str]) -> None:
        with self._lock:
            count = self._uncommitted.get(table, 0) - 1
            if count > 0:
                self._uncommitted[table] = count
            else:
                self._uncommitted.pop(table, None)

    def has_uncommitted_writes(self, tables) -> bool:
        """Is any of ``tables`` under an open transaction's write?"""
        with self._lock:
            if not self._uncommitted:
                return False
            if None in self._uncommitted or "*" in tables:
                return True
            return any(table in self._uncommitted for table in tables)


class Backend:
    """Base class for executable statement stores.

    Concrete backends must provide::

        prepare(sql) -> PreparedStatement-like   (statement_id, sql, ast,
                                                  plan, origin attributes)
        submit(sql, params, txn) -> Future[QueryResult]
        submit_prepared(prepared, params, txn=, span=)
            -> Future[QueryResult]
        submit_prepared_batch(prepared, bindings, txn=, span=)
            -> Future[List[BindingOutcome]]
        begin_transaction() -> Transaction
        stats / stats_snapshot() / shutdown(wait=) / is_shutdown
        profile / meter / catalog properties

    plus whatever the concrete transport needs.  The ledger delegation
    and the blocking convenience calls are shared here.
    """

    #: Short selectable name (a :data:`BACKENDS` member).
    backend_name = "abstract"

    def __init__(self) -> None:
        self.ledger = CacheInvalidationLedger()

    # ------------------------------------------------------------------
    # invalidation-ledger delegation
    # ------------------------------------------------------------------
    def register_cache(self, cache) -> None:
        """Register a result cache for write-driven invalidation.

        Every write executed by this backend — through any connection,
        cached or cache-less, autocommit or transactional — broadcasts a
        per-table invalidation to every registered cache; transactional
        writes broadcast at commit, never at rollback.  Registration is
        idempotent and weak: the backend never keeps a cache alive.
        """
        self.ledger.register_cache(cache)

    def unregister_cache(self, cache) -> None:
        self.ledger.unregister_cache(cache)

    @property
    def registered_cache_count(self) -> int:
        return self.ledger.cache_count

    def broadcast_invalidation(self, table: Optional[str]) -> int:
        return self.ledger.broadcast_invalidation(table)

    def note_data_change(self, table: Optional[str]) -> None:
        self.ledger.note_data_change(table)

    def read_validity(self, tables) -> int:
        return self.ledger.read_validity(tables)

    def mark_uncommitted(self, table: Optional[str]) -> None:
        self.ledger.mark_uncommitted(table)

    def clear_uncommitted(self, table: Optional[str]) -> None:
        self.ledger.clear_uncommitted(table)

    def has_uncommitted_writes(self, tables) -> bool:
        return self.ledger.has_uncommitted_writes(tables)

    # ------------------------------------------------------------------
    # blocking conveniences over the async primitives
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Sequence = (), txn=None):
        """Synchronous execution (still bounded by the worker pool)."""
        return self.submit(sql, params, txn).result()

    def execute_prepared_batch(
        self,
        prepared,
        bindings: Sequence[Sequence],
        txn=None,
    ) -> List:
        """Blocking set-oriented execution: one statement over N binding
        sets; one outcome (result or exception) per binding, in order."""
        return self.submit_prepared_batch(prepared, bindings, txn).result()
