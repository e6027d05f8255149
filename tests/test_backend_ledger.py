"""The write-epoch ledger's ticket arithmetic, on its own.

A keyed read observes ``T - C + S``: every write to its table except
the point writes on its own column's *other* stripes.  The cache
outcomes this buys are asserted per store in
``tests/test_backend_invalidation.py`` and model-checked in
``tests/test_prop_cache_coherence.py``.
"""

import inspect

from repro.backends import WriteEpochLedger
from repro.backends.ledger import STRIPES, stripe_of

T = {"t"}


def point(key, column="id", table="t"):
    return (table, column, stripe_of(key))


def write(ledger, table="t", at=None, committed=True):
    ledger.begin_write(table, at)
    ledger.end_write(table, committed, at)


class TestPointTickets:
    def test_other_stripe_is_unmoved(self):
        ledger = WriteEpochLedger()
        before = ledger.ticket(T, point(1))
        write(ledger, at=point(2))
        assert ledger.ticket(T, point(1)) == before

    def test_same_stripe_is_moved(self):
        ledger = WriteEpochLedger()
        before = ledger.ticket(T, point(1))
        write(ledger, at=point(1))
        assert ledger.ticket(T, point(1)) != before
        # A collision only over-invalidates.
        assert point(1 + STRIPES) == point(1)

    def test_other_column_is_moved(self):
        ledger = WriteEpochLedger()
        before = ledger.ticket(T, point(1, column="region"))
        write(ledger, at=point(2))
        assert ledger.ticket(T, point(1, column="region")) != before

    def test_every_write_moves_the_table_and_a_table_write_every_point(self):
        ledger = WriteEpochLedger()
        table, keyed = ledger.ticket(T), ledger.ticket(T, point(1))
        write(ledger, at=point(2))
        assert ledger.ticket(T) == (table[0] + 1, table[1] + 1)
        write(ledger)
        assert ledger.ticket(T, point(1)) != keyed
        write(ledger, table=None)  # out-of-band DDL: every table
        assert ledger.ticket(T) == (table[0] + 3, table[1] + 3)

    def test_rollback_moves_only_the_epoch(self):
        ledger = WriteEpochLedger()
        epoch, committed = ledger.ticket(T, point(1))
        write(ledger, at=point(1), committed=False)
        after = ledger.ticket(T, point(1))
        assert after[0] != epoch and after[1] == committed

    def test_open_point_writer_withholds_only_its_stripes_tickets(self):
        ledger = WriteEpochLedger()
        ledger.begin_write("t", point(1))
        assert ledger.ticket(T, point(1)) is None
        assert ledger.ticket(T) is None
        assert ledger.ticket(T, point(1, column="region")) is None
        assert ledger.ticket(T, point(2)) is not None
        assert ledger.ticket({"u"}) is not None
        ledger.end_write("t", True, point(1))
        assert ledger.ticket(T, point(1)) is not None

    def test_open_table_writer_withholds_every_ticket_of_the_table(self):
        ledger = WriteEpochLedger()
        write(ledger, at=point(1))
        ledger.begin_write("t")
        assert ledger.ticket(T, point(1)) is None
        assert ledger.ticket(T, point(2)) is None
        ledger.end_write("t", True)
        assert ledger.ticket(T, point(2)) is not None

    def test_tickets_of_different_scopes_never_compare_equal(self):
        """``1``, ``1.0`` and ``True`` are one cache key but only ``1``
        names a point: an entry published under the table's ticket must
        lapse for the point's, whatever the counters happen to be."""
        ledger = WriteEpochLedger()
        assert ledger.ticket(T) != ledger.ticket(T, point(1))
        write(ledger, at=point(2))
        published = ledger.ticket(T)  # (1, 1)
        write(ledger, at=point(1))
        assert ledger.ticket(T, point(1)) != published
        assert ledger.ticket(T, point(1))[1] != published[1]


class TestTableTickets:
    def test_wildcard_sums_table_scopes_only(self):
        ledger = WriteEpochLedger()
        write(ledger, table="t", at=point(1))
        write(ledger, table="u", at=point(1, table="u"))
        write(ledger, table="u")
        assert ledger.ticket({"*"}) == (3, 3)
        assert ledger.ticket({"t", "u"}) == (3, 3)

    def test_counters(self):
        ledger = WriteEpochLedger()
        write(ledger, at=point(1))
        write(ledger, at=point(2))
        write(ledger)
        assert (ledger.point_writes, ledger.table_writes) == (2, 1)
        assert ledger.stripes == 3  # the column's aggregate + two stripes

    def test_three_methods_no_knob(self):
        public = [
            name
            for name, _ in inspect.getmembers(WriteEpochLedger, inspect.isfunction)
            if not name.startswith("_")
        ]
        assert public == ["begin_write", "end_write", "ticket"]
        assert list(inspect.signature(WriteEpochLedger).parameters) == []
