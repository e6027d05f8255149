"""Cache coherence, pull-only: one write epoch per table, striped by key.

A store never touches a result cache.  It keeps, per table and under one
lock, ``(epoch, committed, open writers)`` and brackets every write with
:meth:`WriteEpochLedger.begin_write` / :meth:`~WriteEpochLedger.end_write`;
a cached reader takes a :meth:`~WriteEpochLedger.ticket` when it plans
the read and compares tickets — at lookup, to decide whether an entry is
still fresh, and at publication, to decide whether its own value may be
retained.  A read or write that provably touches only the rows with
``column = value`` names that *point* — ``(table, column,
stripe_of(value))`` — and a point read's ticket then skips the point
writes on the same column's other stripes.  See docs/BACKENDS.md for
the event table and the footprint rule.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

#: ``(epoch, committed)`` summed over the scopes a read observes.
Ticket = Tuple[int, int]

#: ``(table, column, stripe)``: the footprint of a keyed read or write.
Point = Tuple[str, str, int]

#: Stripes per ``(table, column)`` — a power of two.  Bounds the
#: ledger's memory; two keys sharing a stripe only over-invalidate.
STRIPES = 1024

#: The state of a stripe no point write has named yet.
_UNMOVED = (0, 0, 0)


def stripe_of(value: Hashable) -> int:
    """The stripe a key value falls in (equal values share one)."""
    return hash(value) & (STRIPES - 1)


class WriteEpochLedger:
    """Per-table write epochs for one backend, striped by key.

    ``epoch`` counts every finished write window (a rollback's restore
    is a data change too); ``committed`` counts only the ones whose data
    stayed.  Two equal tickets therefore mean *no write this read could
    observe began or ended in between*; equal ``committed`` alone means
    the committed data is the same (entries published before a
    rolled-back transaction stay fresh).  The table ``None`` stands for
    "every table" (a new table or index, an unknown write target).

    Three kinds of state, same triple each: **T** per table, moved by
    every write to it; **C** per ``(table, column)`` and **S** per point,
    moved only by writes that name a point on that column.  A read
    keyed on a point takes ``T - C + S`` — every write except the point
    writes on its own column's *other* stripes; a read without a point
    takes ``T``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: T of "every table" (the table ``None``), which every read
        #: observes, and table -> T for each named table:
        #: ``[epoch, committed, open writers]``.
        self._every = [0, 0, 0]
        self._tables: Dict[str, List[int]] = {}
        #: (table, column) -> C and (table, column, stripe) -> S
        self._points: Dict[tuple, List[int]] = {}
        #: Write windows closed with / without a point, and the C and S
        #: states in use (``Backend.stats_snapshot`` reports all three).
        self.point_writes = 0
        self.table_writes = 0
        self.stripes = 0

    def ticket(
        self, tables: Iterable[str], point: Optional[Point] = None
    ) -> Optional[Ticket]:
        """The current ``(epoch, committed)`` of what a read of
        ``tables`` keyed on ``point`` observes, or None while any of it
        has an open writer — the data the read would see may be
        uncommitted, so it must neither be served from nor published to
        a cache.  The wildcard ``"*"`` observes every table.

        A point ticket is returned complemented (negative): ``1``,
        ``1.0`` and ``True`` are one cache key but only the first names
        a point, and tickets counted over different scopes must never
        compare equal.
        """
        with self._lock:
            states = self._tables
            epoch, committed, writers = self._every
            for table in states if "*" in tables else tables:
                state = states.get(table)
                if state is not None:
                    epoch += state[0]
                    committed += state[1]
                    writers += state[2]
            points = self._points
            if point is not None and points:
                column = points.get(point[:2])
                if column is not None:  # else no point write on it yet: T
                    stripe = points.get(point, _UNMOVED)
                    epoch += stripe[0] - column[0]
                    committed += stripe[1] - column[1]
                    writers += stripe[2] - column[2]
            if writers:
                return None
            return (epoch, committed) if point is None else (~epoch, ~committed)

    def begin_write(
        self, table: Optional[str], point: Optional[Point] = None
    ) -> None:
        """Open a write window on ``table``: before an autocommit write
        executes, at a transaction's first write to the table.  With a
        ``point`` the write touches only rows in that stripe (and leaves
        them there)."""
        with self._lock:
            for state in self._moved(table, point):
                state[2] += 1

    def end_write(
        self,
        table: Optional[str],
        committed: bool,
        point: Optional[Point] = None,
    ) -> None:
        """Close a write window (same ``point`` as its ``begin_write``):
        after the autocommit write, inside the commit/rollback boundary
        for a transaction's tables."""
        with self._lock:
            for state in self._moved(table, point):
                state[0] += 1
                state[1] += committed
                state[2] -= 1
            if point is None:
                self.table_writes += 1
            else:
                self.point_writes += 1

    def _moved(
        self, table: Optional[str], point: Optional[Point]
    ) -> List[List[int]]:
        """The states a write on ``table`` / ``point`` moves: T, plus C
        and S for a point write (lock held)."""
        moved = [
            self._every if table is None else self._tables.setdefault(table, [0, 0, 0])
        ]
        if point is not None:
            points = self._points
            moved.append(points.setdefault(point[:2], [0, 0, 0]))
            moved.append(points.setdefault(point, [0, 0, 0]))
            self.stripes = len(points)
        return moved
