"""Cache coherence, pull-only: one write epoch per table.

A store never touches a result cache.  It keeps, per table and under one
lock, ``(epoch, committed, open writers)`` and brackets every write with
:meth:`WriteEpochLedger.begin_write` / :meth:`~WriteEpochLedger.end_write`;
a cached reader takes a :meth:`~WriteEpochLedger.ticket` when it plans
the read and compares tickets — at lookup, to decide whether an entry is
still fresh, and at publication, to decide whether its own value may be
retained.  See docs/BACKENDS.md for the event table.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

#: ``(epoch, committed)`` summed over the tables a read touches.
Ticket = Tuple[int, int]


class WriteEpochLedger:
    """Per-table write epochs for one backend.

    ``epoch`` counts every finished write window (a rollback's restore
    is a data change too); ``committed`` counts only the ones whose data
    stayed.  Two equal tickets therefore mean *no write to these tables
    began or ended in between*; equal ``committed`` alone means the
    committed data is the same (entries published before a rolled-back
    transaction stay fresh).  The table ``None`` stands for "every
    table" (out-of-band DDL, an unknown write target).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: table -> [epoch, committed, open writers]
        self._tables: Dict[Optional[str], List[int]] = {}

    def ticket(self, tables: Iterable[str]) -> Optional[Ticket]:
        """The tables' current ``(epoch, committed)``, or None while any
        of them has an open writer — the data a read would see may be
        uncommitted, so it must neither be served from nor published to
        a cache.  The wildcard ``"*"`` observes every table."""
        with self._lock:
            states = self._tables
            epoch = committed = 0
            for table in states if "*" in tables else (None, *tables):
                state = states.get(table)
                if state is not None:
                    if state[2]:
                        return None
                    epoch += state[0]
                    committed += state[1]
            return epoch, committed

    def begin_write(self, table: Optional[str]) -> None:
        """Open a write window on ``table``: before an autocommit write
        executes, at a transaction's first write to the table."""
        with self._lock:
            self._tables.setdefault(table, [0, 0, 0])[2] += 1

    def end_write(self, table: Optional[str], committed: bool) -> None:
        """Close a write window: after the autocommit write, inside the
        commit/rollback boundary for a transaction's tables."""
        with self._lock:
            state = self._tables[table]
            state[0] += 1
            state[1] += committed
            state[2] -= 1
