"""Shared query-result cache with single-flight deduplication.

The prefetch transformation moves ``submit_query`` calls to the earliest
safe program point; under heavy read-mostly traffic many of those
submissions repeat the same ``(sql, params)`` pair.  :class:`ResultCache`
turns the repeats into client-local lookups:

* **single-flight** — concurrent identical submissions share one
  in-flight computation: the first caller becomes the *owner* and
  executes the query, every other caller becomes a *follower* waiting on
  the owner's future (the classic groupcache/singleflight protocol);
* **bounded LRU** — completed entries are kept up to ``capacity``,
  least-recently-used evicted first; in-flight entries are pinned;
* **validated at lookup** — a caller that knows its store's write epoch
  (kept per table, striped by key) passes the *ticket* it took when it
  planned the read
  (:meth:`repro.backends.ledger.WriteEpochLedger.ticket`); an entry
  planned under another ticket *lapses* — it is dropped, counted in
  ``invalidations``, and the caller re-executes — so no write path ever
  has to find the caches, and how finely the store scopes a ticket (a
  table, one key of it) is none of the cache's business: it compares
  the tickets it is handed.  :meth:`ResultCache.invalidate_table` /
  :meth:`~ResultCache.invalidate_all` remain as the explicit API for
  callers without a ledger (results whose table set is unknown carry
  the wildcard and are dropped on *any* table);
* **optional TTL** — ``ttl_s`` bounds the age of a served entry: an
  expired entry counts as a miss (and an ``expirations`` stat), and the
  caller re-executes.  Useful where no ticket exists (the web-service
  client, external writers) or as a staleness bound on top of one;
* **stats** — hits, misses, evictions, invalidations, expirations and
  single-flight joins, plus a derived hit rate for benchmark reporting.

The cache stores whatever result object the executor produces and hands
the *same object* back on a hit — callers must treat cached results as
read-only (our ``QueryResult`` is only ever consumed that way).

A single instance may be shared by any number of connections **to the
same server**: keys are ``(sql, params)`` and carry no server identity.

Thread-safety: one lock guards the entry map; waiting for an in-flight
result happens on a ``concurrent.futures.Future`` outside the lock.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Hashable, Iterable, Optional, Tuple

#: Table marker for results whose read set could not be determined.
#: Wildcard entries are invalidated by a write to *any* table.
WILDCARD_TABLE = "*"

#: The ticket of a caller without a ledger: equal only to itself, so
#: such callers see exactly the explicit-invalidation + TTL behaviour.
_NO_TICKET = (None, None)


@dataclass
class CacheStats:
    """Counters exposed for benchmark reporting and tests."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Entries dropped because they outlived the cache's TTL; each one
    #: also counts as a miss for the lookup that found it expired.
    expirations: int = 0
    #: Hits that joined an in-flight computation instead of reading a
    #: completed entry (single-flight shares).
    shared_flights: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0


class _Entry:
    """One cached (or in-flight) result."""

    __slots__ = (
        "key",
        "tables",
        "ticket",
        "future",
        "value",
        "doomed",
        "published",
        "expires_at",
    )

    def __init__(
        self, key: Hashable, tables: FrozenSet[str], ticket: Tuple
    ) -> None:
        self.key = key
        self.tables = tables
        #: ``(epoch, committed)`` the owning read was planned under
        #: (``(None, None)`` for a caller without a ledger).
        self.ticket = ticket
        #: Resolved only by the owner's ``complete`` / ``fail``.  Marked
        #: running from the start, so no handle sharing it — a hit's, a
        #: follower's — can cancel it under the owner.
        self.future: "Future[Any]" = Future()
        self.future.set_running_or_notify_cancel()
        #: The result, stored by ``complete`` before the future resolves;
        #: a hit reads it here instead of through the future.
        self.value: Any = None
        #: Set when the entry leaves the map while the load is still in
        #: flight: current waiters are served, but the value is not kept.
        self.doomed = False
        #: Set (under the cache lock) once the value is retained — the
        #: authority for the completed-entry count and evictability.
        self.published = False
        #: Monotonic deadline after which the entry no longer serves
        #: hits (None = no TTL); stamped at publication time.
        self.expires_at: Optional[float] = None


class Lease:
    """Outcome of one :meth:`ResultCache.acquire` call.

    Exactly one of three states, each carrying its entry:

    * ``is_hit`` — ``value`` holds the cached result, and ``future`` is
      the entry's own, already resolved;
    * ``is_owner`` — the caller must execute the query and then call
      :meth:`ResultCache.complete` (or :meth:`ResultCache.fail`);
    * otherwise the caller is a *follower*: ``wait()`` blocks until the
      owner finishes (``future`` can instead be wrapped in a handle).
    """

    __slots__ = ("_state", "entry")

    _HIT = "hit"
    _OWNER = "owner"
    _FOLLOWER = "follower"

    def __init__(self, state: str, entry: _Entry):
        self._state = state
        self.entry = entry

    @property
    def is_hit(self) -> bool:
        return self._state == self._HIT

    @property
    def is_owner(self) -> bool:
        return self._state == self._OWNER

    @property
    def is_follower(self) -> bool:
        return self._state == self._FOLLOWER

    @property
    def value(self) -> Any:
        if not self.is_hit:
            raise ValueError("lease is not a hit")
        return self.entry.value

    @property
    def future(self) -> "Future[Any]":
        return self.entry.future

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Block until the owning computation finishes; re-raises its
        error (followers observe the owner's failure, like any caller
        of the underlying request)."""
        return self.future.result(timeout)


class ResultCache:
    """Bounded LRU cache of query results keyed by ``(sql, params)``.

    The single-flight protocol in miniature — the first caller owns the
    load, completes it, and later lookups hit until the entry lapses
    (the caller's ticket moved) or, as here, is invalidated explicitly:

    >>> cache = ResultCache(capacity=2)
    >>> lease = cache.acquire(("SELECT ...", (1,)), tables=["users"])
    >>> lease.is_owner
    True
    >>> cache.complete(lease, "row-1")
    'row-1'
    >>> cache.acquire(("SELECT ...", (1,)), tables=["users"]).value
    'row-1'
    >>> cache.invalidate_table("users")
    1
    >>> cache.acquire(("SELECT ...", (1,)), tables=["users"]).is_owner
    True
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s must be > 0, got {ttl_s}")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        #: Entries in ``_entries`` whose value is published (complete and
        #: retained) — the population the LRU capacity bounds.  In-flight
        #: entries are excluded: they are pinned, not evictable.
        self._completed = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # the single-flight protocol
    # ------------------------------------------------------------------
    def acquire(
        self,
        key: Hashable,
        tables: Optional[Iterable[str]] = None,
        ticket: Optional[Tuple[int, int]] = None,
    ) -> Lease:
        """Look up ``key``; returns a hit, a follower join, or ownership.

        ``tables`` names the tables the query reads (used by the
        explicit invalidation API); None means unknown → wildcard.
        ``ticket`` is the ``(epoch, committed)`` pair the caller's store
        reported for those tables when the read was planned.  A
        published entry is a hit iff its ``committed`` equals the
        caller's (a rolled-back transaction moves only ``epoch``, and
        what was cached before it is still right); an in-flight entry is
        joined iff the whole ticket is equal (its value may have been
        read inside a window this caller must not see through).
        Anything else *lapses*: it leaves the map, counts as an
        invalidation, and the caller becomes the owner.
        """
        ticket = ticket or _NO_TICKET
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if not entry.published and entry.ticket == ticket:
                    # In flight (or resolved, its retention not yet
                    # decided): share the owner's outcome.
                    self.stats.hits += 1
                    self.stats.shared_flights += 1
                    return Lease(Lease._FOLLOWER, entry)
                if entry.published and entry.ticket[1] == ticket[1]:
                    if not self._expired_locked(entry):
                        self._entries.move_to_end(key)
                        self.stats.hits += 1
                        return Lease(Lease._HIT, entry)
                    self.stats.expirations += 1
                else:
                    self.stats.invalidations += 1
                self._drop_locked(entry)
            self.stats.misses += 1
            table_set = frozenset(tables or ()) or frozenset((WILDCARD_TABLE,))
            entry = _Entry(key, table_set, ticket)
            self._entries[key] = entry
            return Lease(Lease._OWNER, entry)

    def complete(self, lease: Lease, value: Any, retain: bool = True) -> Any:
        """Owner callback: publish ``value`` and retain it (LRU-bounded).

        ``retain=False`` serves the waiters but keeps nothing — used
        when the caller's validity check says the read may have
        overlapped a data change.  Returns ``value`` so the call can
        tail a computation.
        """
        entry = self._require_owned(lease)
        entry.value = value
        entry.future.set_result(value)
        with self._lock:
            if entry.doomed or self._entries.get(entry.key) is not entry:
                # Invalidated (or displaced) while in flight: waiters were
                # served, but the value must not outlive the write.
                return value
            if not retain:
                del self._entries[entry.key]
                entry.doomed = True
                return value
            self._entries.move_to_end(entry.key)
            entry.published = True
            if self.ttl_s is not None:
                entry.expires_at = self._clock() + self.ttl_s
            self._completed += 1
            self._trim_locked()
        return value

    def fail(self, lease: Lease, error: BaseException) -> None:
        """Owner callback: propagate ``error`` to followers, cache nothing."""
        entry = self._require_owned(lease)
        with self._lock:
            if self._entries.get(entry.key) is entry:
                del self._entries[entry.key]
        entry.future.set_exception(error)

    @staticmethod
    def _require_owned(lease: Lease) -> _Entry:
        if not lease.is_owner:
            raise ValueError("complete/fail require an owner lease")
        return lease.entry

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate_table(self, table: Optional[str]) -> int:
        """Drop every entry whose read set intersects ``table``.

        ``None`` or the wildcard invalidates everything (a write whose
        target table is unknown must be treated as touching all).
        Returns the number of entries dropped.
        """
        if table is None or table == WILDCARD_TABLE:
            return self.invalidate_all()
        dropped = 0
        with self._lock:
            for key in list(self._entries):
                entry = self._entries[key]
                if table in entry.tables or WILDCARD_TABLE in entry.tables:
                    del self._entries[key]
                    entry.doomed = True
                    if entry.published:
                        self._completed -= 1
                    dropped += 1
            self.stats.invalidations += dropped
        return dropped

    def invalidate_all(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            for entry in self._entries.values():
                entry.doomed = True
            self._entries.clear()
            self._completed = 0
            self.stats.invalidations += dropped
        return dropped

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            return (
                entry is not None
                and entry.future.done()
                and entry.future.exception() is None
                and not self._expired_locked(entry)
            )

    def keys(self) -> Tuple[Hashable, ...]:
        with self._lock:
            return tuple(self._entries)

    def clear_stats(self) -> None:
        self.stats = CacheStats()

    def stats_snapshot(self) -> dict:
        """Every cache counter (plus occupancy) as one plain dict —
        the shape ``MetricsRegistry`` sources and benchmarks consume
        instead of peeking at ``cache.stats`` attributes."""
        with self._lock:
            stats = self.stats
            return {
                "hits": stats.hits,
                "misses": stats.misses,
                "lookups": stats.lookups,
                "hit_rate": stats.hit_rate,
                "evictions": stats.evictions,
                "invalidations": stats.invalidations,
                "expirations": stats.expirations,
                "shared_flights": stats.shared_flights,
                "size": len(self._entries),
                "completed": self._completed,
                "capacity": self.capacity,
                "ttl_s": self.ttl_s,
            }

    # ------------------------------------------------------------------
    def _expired_locked(self, entry: _Entry) -> bool:
        """Has a published entry outlived the TTL? (lock held)"""
        return entry.expires_at is not None and self._clock() >= entry.expires_at

    def _drop_locked(self, entry: _Entry) -> None:
        """Remove one entry, keeping the completed count exact (lock held)."""
        del self._entries[entry.key]
        entry.doomed = True
        if entry.published:
            self._completed -= 1

    def _trim_locked(self) -> None:
        """Evict LRU *published* entries down to capacity (lock held)."""
        while self._completed > self.capacity:
            for entry in self._entries.values():
                if entry.published:  # in-flight entries are pinned
                    break
            self._drop_locked(entry)
            self.stats.evictions += 1
