"""Explicit transactions: strict two-phase locking plus an undo log.

The paper's Discussion section leaves "the interaction between
asynchronous queries and transaction semantics" as future work; this
module supplies the substrate needed to explore it.  The model is
deliberately classical:

* **Table-granularity strict 2PL.**  A transaction takes a shared lock
  on every table it reads and an exclusive lock on every table it
  writes; all locks are held until commit or rollback.  Lock waits time
  out (:class:`~repro.db.errors.TransactionTimeoutError`) rather than
  running deadlock detection — with table-granularity locks and the
  short transactions of the paper's workloads, timeouts are simpler and
  observably equivalent.
* **Logical undo.**  Every INSERT / UPDATE / DELETE executed under a
  transaction appends an undo entry; rollback replays the entries in
  reverse, restoring both heap rows and index entries.  Because the
  writer holds the table exclusively for the whole transaction, reverse
  replay is sufficient — no other transaction can have interleaved.
* **Autocommit unchanged.**  Statements executed without an explicit
  transaction behave exactly as before (single-statement atomicity via
  the per-table readers/writer latch); none of the paper's benchmarks
  pay any new cost.

The asynchronous-submission rules (what the Discussion section asks
about) are enforced by :class:`repro.client.connection.Connection`:
asynchronous *reads* may be in flight under an open transaction — they
run under the transaction's shared locks on the connection's executor
threads — but
asynchronous *updates* are rejected, because their failure order would
be unobservable before commit.  Commit and rollback drain in-flight
asynchronous reads first.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .catalog import Catalog
from .errors import (
    TransactionStateError,
    TransactionTimeoutError,
)

#: Lock modes, ordered by strength.
SHARED = "S"
EXCLUSIVE = "X"

#: Transaction states.
ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


@dataclass(frozen=True)
class UndoEntry:
    """One logical undo step: how to reverse a single row mutation.

    ``kind`` is ``insert`` / ``update`` / ``delete`` (the *forward*
    operation).  ``row`` is the pre-image for updates and deletes, the
    inserted row for inserts; ``new_row`` is the post-image of updates.
    """

    kind: str
    table: str
    row_id: int
    row: Tuple[Any, ...]
    new_row: Optional[Tuple[Any, ...]] = None


class _TableLock:
    """One table's transaction lock: multiple sharers or one owner.

    Supports upgrade from shared to exclusive when the requester is the
    sole sharer (the common read-then-update pattern).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._sharers: Dict[int, int] = {}  # txn id -> hold count
        self._owner: Optional[int] = None  # txn id holding exclusive
        self._owner_count = 0

    def acquire(self, txn_id: int, mode: str, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while not self._grantable(txn_id, mode):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(remaining):
                    raise TransactionTimeoutError(
                        f"transaction {txn_id} timed out waiting for "
                        f"{mode} lock"
                    )
            self._grant(txn_id, mode)

    def _grantable(self, txn_id: int, mode: str) -> bool:
        if self._owner == txn_id:
            return True  # already exclusive; any request is redundant
        if mode == SHARED:
            return self._owner is None
        # exclusive request: no owner and no sharers other than self
        others = [tid for tid in self._sharers if tid != txn_id]
        return self._owner is None and not others

    def _grant(self, txn_id: int, mode: str) -> None:
        if self._owner == txn_id:
            self._owner_count += 1
            return
        if mode == SHARED:
            self._sharers[txn_id] = self._sharers.get(txn_id, 0) + 1
            return
        # exclusive: absorb our own shared holds into the ownership
        self._sharers.pop(txn_id, None)
        self._owner = txn_id
        self._owner_count += 1

    def release_all(self, txn_id: int) -> None:
        """Drop every hold ``txn_id`` has on this table."""
        with self._cond:
            self._sharers.pop(txn_id, None)
            if self._owner == txn_id:
                self._owner = None
                self._owner_count = 0
            self._cond.notify_all()

    def held_by(self, txn_id: int) -> Optional[str]:
        with self._cond:
            if self._owner == txn_id:
                return EXCLUSIVE
            if txn_id in self._sharers:
                return SHARED
            return None


class LockManager:
    """Transaction-scoped table locks (logical layer above the per-table
    physical latch in :mod:`repro.db.concurrency`)."""

    def __init__(self, timeout_s: float = 5.0) -> None:
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._tables: Dict[str, _TableLock] = {}

    def _table_lock(self, table: str) -> _TableLock:
        with self._lock:
            lock = self._tables.get(table)
            if lock is None:
                lock = self._tables[table] = _TableLock()
            return lock

    def acquire(
        self, txn: "Transaction", table: str, mode: str, timeout_s: Optional[float] = None
    ) -> None:
        held = self._table_lock(table).held_by(txn.txn_id)
        if held == EXCLUSIVE or held == mode:
            return  # re-entrant / already strong enough
        self._table_lock(table).acquire(
            txn.txn_id, mode, self.timeout_s if timeout_s is None else timeout_s
        )
        txn._note_lock(table)

    def release_all(self, txn: "Transaction") -> None:
        for table in txn._held_tables():
            self._table_lock(table).release_all(txn.txn_id)

    def mode_held(self, txn: "Transaction", table: str) -> Optional[str]:
        return self._table_lock(table).held_by(txn.txn_id)


class Transaction:
    """One explicit transaction: identity, state, locks, undo log.

    Created by :meth:`TransactionManager.begin`; finished by
    :meth:`TransactionManager.commit` / :meth:`rollback` (the client
    :class:`~repro.client.connection.Connection` wraps these).
    """

    def __init__(self, txn_id: int, manager: "TransactionManager") -> None:
        self.txn_id = txn_id
        self._manager = manager
        self._state_lock = threading.Lock()
        self._state = ACTIVE
        self._undo: List[UndoEntry] = []
        self._locked_tables: Dict[str, None] = {}
        #: Tables this transaction wrote (None = unknown target): each
        #: has a write window open in the backend's ledger, closed at
        #: commit/rollback.
        self._write_tables: Dict[Optional[str], None] = {}
        self._drained = threading.Condition(self._state_lock)
        self._in_flight = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._state_lock:
            return self._state

    @property
    def is_active(self) -> bool:
        return self.state == ACTIVE

    def _require_active(self) -> None:
        state = self.state
        if state != ACTIVE:
            raise TransactionStateError(
                f"transaction {self.txn_id} is {state}, not active"
            )

    # ------------------------------------------------------------------
    # async-read accounting (Connection increments around submits)
    # ------------------------------------------------------------------
    def enter_async(self) -> None:
        with self._state_lock:
            if self._state != ACTIVE:
                raise TransactionStateError(
                    f"transaction {self.txn_id} is {self._state}; "
                    "cannot submit new work"
                )
            self._in_flight += 1

    def exit_async(self) -> None:
        with self._state_lock:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._drained.notify_all()

    @property
    def in_flight(self) -> int:
        with self._state_lock:
            return self._in_flight

    def _wait_drained(self) -> None:
        with self._state_lock:
            while self._in_flight:
                self._drained.wait()

    # ------------------------------------------------------------------
    # write-set tracking (server write path calls this)
    # ------------------------------------------------------------------
    def note_write(self, table: Optional[str]) -> bool:
        """Record a table this transaction wrote; returns True on the
        first note of ``table`` (the backend opens its write window
        exactly once)."""
        with self._state_lock:
            if table in self._write_tables:
                return False
            self._write_tables[table] = None
            return True

    def written_tables(self) -> List[Optional[str]]:
        with self._state_lock:
            return list(self._write_tables)

    # ------------------------------------------------------------------
    # undo log (ExecutionContext records through these)
    # ------------------------------------------------------------------
    def record_insert(self, table: str, row_id: int, row: Tuple) -> None:
        self._undo.append(UndoEntry("insert", table, row_id, tuple(row)))

    def record_update(
        self, table: str, row_id: int, old_row: Tuple, new_row: Tuple
    ) -> None:
        self._undo.append(
            UndoEntry("update", table, row_id, tuple(old_row), tuple(new_row))
        )

    def record_delete(self, table: str, row_id: int, row: Tuple) -> None:
        self._undo.append(UndoEntry("delete", table, row_id, tuple(row)))

    @property
    def undo_depth(self) -> int:
        return len(self._undo)

    # ------------------------------------------------------------------
    # lock bookkeeping (LockManager calls these)
    # ------------------------------------------------------------------
    def _note_lock(self, table: str) -> None:
        with self._state_lock:
            self._locked_tables[table] = None

    def _held_tables(self) -> List[str]:
        with self._state_lock:
            return list(self._locked_tables)

    # ------------------------------------------------------------------
    # convenience pass-throughs
    # ------------------------------------------------------------------
    def commit(self) -> None:
        self._manager.commit(self)

    def rollback(self) -> None:
        self._manager.rollback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Transaction(id={self.txn_id}, state={self.state})"


class TransactionManager:
    """Begins, commits and rolls back transactions over one catalog.

    ``commit``/``rollback`` fix the completion order once — drain
    async reads → :meth:`_apply` → state → end the written tables'
    write windows → release locks — so a store-specific manager
    overrides only ``begin`` and ``_apply``."""

    def __init__(self, catalog: Catalog, lock_timeout_s: float = 5.0) -> None:
        self._catalog = catalog
        self.locks = LockManager(lock_timeout_s)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._active: Dict[int, Transaction] = {}
        #: Installed by the owning backend: called with ``(table,
        #: committed)`` for every table the transaction wrote, inside
        #: the commit/rollback boundary — after the store applied it,
        #: before the table locks are released.  A rollback's restore
        #: is a data change too, so it is reported like a commit, just
        #: with ``committed=False``.
        self.end_write_hook: Optional[Callable[[Optional[str], bool], Any]] = None

    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        txn = Transaction(next(self._ids), self)
        with self._lock:
            self._active[txn.txn_id] = txn
        return txn

    @property
    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    # ------------------------------------------------------------------
    # statement-time lock acquisition (server calls this)
    # ------------------------------------------------------------------
    def lock_for_statement(self, txn: Transaction, table: str, write: bool) -> None:
        txn._require_active()
        self.locks.acquire(txn, table, EXCLUSIVE if write else SHARED)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def commit(self, txn: Transaction) -> None:
        self._complete(txn, commit=True)

    def rollback(self, txn: Transaction) -> None:
        self._complete(txn, commit=False)

    def _complete(self, txn: Transaction, commit: bool) -> None:
        txn._require_active()
        txn._wait_drained()
        self._apply(txn, commit)
        with txn._state_lock:
            txn._state = COMMITTED if commit else ABORTED
        if self.end_write_hook is not None:
            for table in txn.written_tables():
                self.end_write_hook(table, commit)
        self.locks.release_all(txn)
        with self._lock:
            self._active.pop(txn.txn_id, None)

    def _apply(self, txn: Transaction, commit: bool) -> None:
        """Make ``txn``'s writes permanent or reverse them in the store
        — the one step of completion that differs per store (a DB-API
        manager issues a real COMMIT/ROLLBACK here).  In memory: commit
        drops the undo log, rollback replays it first."""
        if not commit:
            # The txn still holds exclusive locks on every table it
            # wrote, so reverse replay cannot interleave with other
            # transactions.  Consecutive entries against the same table
            # replay under one physical latch acquisition (global
            # reverse order preserved).
            run: List[UndoEntry] = []
            for entry in reversed(txn._undo):
                if run and run[-1].table != entry.table:
                    self._undo_run(run)
                    run = []
                run.append(entry)
            if run:
                self._undo_run(run)
        txn._undo.clear()

    # ------------------------------------------------------------------
    # undo application
    # ------------------------------------------------------------------
    def _undo_run(self, entries: List[UndoEntry]) -> None:
        """Replay a run of undo entries against one table under a single
        write-latch acquisition (entries are already in replay order)."""
        info = self._catalog.table(entries[0].table)
        with info.heap.lock.writing():
            for entry in entries:
                if entry.kind == "insert":
                    info.heap.delete(entry.row_id)
                    self._catalog.on_delete(info, entry.row_id, entry.row)
                elif entry.kind == "update":
                    info.heap.update(entry.row_id, entry.row)
                    self._catalog.on_update(
                        info, entry.row_id, entry.new_row, entry.row
                    )
                elif entry.kind == "delete":
                    info.heap.restore(entry.row_id, entry.row)
                    self._catalog.on_insert(info, entry.row_id, entry.row)
                else:  # pragma: no cover - UndoEntry kinds are closed
                    raise TransactionStateError(
                        f"unknown undo kind {entry.kind!r}"
                    )
