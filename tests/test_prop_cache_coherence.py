"""No stale read, ever: a model-checked cache-coherence property.

A hypothesis state machine interleaves cached reads — blocking and
split (submit … fetch); keyed on either column, keyed aggregates, a
range, whole-table — through two connections sharing one
:class:`ResultCache` with every kind of write the stack has: autocommit
statements (keyed, key-assigning, range, DELETE, INSERT), autocommit
batches over distinct and repeated keys, a transaction's begin / write /
commit / rollback, and out-of-band DDL.  Keys are bound as ``1``,
``'1'``, ``1.0`` and ``True`` alike.  The oracle is the store itself,
read through a cache-less connection:

* a blocking cached read equals the same read taken cache-less at that
  moment;
* a split read returns a value the store held at some point between its
  submit and its fetch (the oracle is sampled after every step).

Both stores run it under a fixed seed set, and three mutations show the
oracle can fail: with the ledger's end-of-write bump removed, with the
point's column forgotten, or with the exact-type rule dropped on a store
with column affinity, the machine finds a stale read within a few
examples.
"""

import functools

import pytest
from hypothesis import Phase, seed, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.backends import BACKENDS, WriteEpochLedger, dialect
from repro.backends.base import PreparedStatement
from repro.backends.ledger import stripe_of
from repro.db import INSTANT, Database
from repro.prefetch.cache import ResultCache

KEYED_READS = [
    "SELECT v FROM t WHERE id = ?",
    "SELECT id FROM t WHERE v = ?",
    "SELECT count(*) FROM t WHERE id = ?",
]
UNKEYED_READS = [
    ("SELECT id, v FROM t WHERE id >= ?", (1,)),
    ("SELECT count(*), sum(v) FROM t", ()),
]
UPDATE = "UPDATE t SET v = ? WHERE id = ?"
MOVE = "UPDATE t SET id = ? WHERE id = ?"
RANGE_UPDATE = "UPDATE t SET v = ? WHERE id >= ?"
DELETE = "DELETE FROM t WHERE id = ?"
INSERT = "INSERT INTO t VALUES (?, ?)"

# Two rows, two values: a cache only matters for a read issued twice,
# and a stale one only shows when the write in between hit its rows.
ids = st.integers(1, 2)
values = st.integers(1, 2)
#: Key bindings: exact ints, plus everything that looks like 1.
keys = st.sampled_from([1, 2, 1, "1", 1.0, True])
readers = st.integers(0, 1)
# (A strategy listed twice is drawn twice as often.)
reads = st.one_of(
    st.tuples(st.sampled_from(KEYED_READS), st.tuples(keys)),
    st.tuples(st.sampled_from(KEYED_READS), st.tuples(keys)),
    st.sampled_from(UNKEYED_READS),
)
#: One autocommit write: keyed, key-assigning, range, DELETE, INSERT.
writes = st.one_of(
    st.tuples(st.just(UPDATE), st.tuples(values, keys)),
    st.tuples(st.just(UPDATE), st.tuples(values, keys)),
    st.tuples(st.just(MOVE), st.tuples(ids, keys)),
    st.tuples(st.just(RANGE_UPDATE), st.tuples(values, ids)),
    st.tuples(st.just(DELETE), st.tuples(keys)),
    st.tuples(st.just(INSERT), st.tuples(ids, values)),
)
#: One write batch: the same statement over distinct or repeated keys.
batches = st.one_of(
    st.tuples(st.just(UPDATE), st.lists(st.tuples(values, keys), min_size=2, max_size=3)),
    st.tuples(st.just(DELETE), st.lists(st.tuples(keys), min_size=2, max_size=3)),
    # the sqlite store applies this one in one call
    st.tuples(st.just(INSERT), st.lists(st.tuples(ids, values), min_size=2, max_size=3)),
)


class CoherenceMachine(RuleBasedStateMachine):
    def __init__(self, backend):
        super().__init__()
        self.db = Database(INSTANT)
        self.db.create_table("t", ("id", "int"), ("v", "int"))
        self.db.bulk_load("t", [(1, 1), (2, 2)])
        self.db.backend("sqlite")
        self.store = self.db.backend(backend)
        self.cache = ResultCache(capacity=6)  # small: eviction is in play
        self.readers = [
            self.db.connect(async_workers=1, result_cache=self.cache, backend=backend)
            for _ in range(2)
        ]
        self.plain = self.db.connect(async_workers=1, backend=backend)
        self.writer = self.db.connect(async_workers=1, backend=backend)
        #: Split reads in flight: [handle, reader, read, values the
        #: store has held since the submit].
        self.open = []
        self.indexes = ["v", "id"]

    def oracle(self, read):
        return list(self.plain.execute_query(*read))

    # -- reads ---------------------------------------------------------
    @rule(reader=readers, read=reads)
    def blocking_read(self, reader, read):
        cached = list(self.readers[reader].execute_query(*read))
        assert cached == self.oracle(read), f"stale blocking read of {read}"

    @rule(reader=readers, read=reads)
    def submit(self, reader, read):
        handle = self.readers[reader].submit_query(*read)
        self.open.append([handle, reader, read, [self.oracle(read)]])

    @precondition(lambda self: self.open)
    @rule(pick=st.integers(0, 7))
    def fetch(self, pick):
        handle, reader, read, held = self.open.pop(pick % len(self.open))
        got = list(self.readers[reader].fetch_result(handle))
        assert got in held, f"split read of {read} returned {got}, store held {held}"

    @invariant()
    def everything_cached_is_what_the_store_holds(self):
        """A write that wrongly spared an entry shows at once, not only
        if the same read happens to be drawn again."""
        for read in self.cache.keys():
            self.blocking_read(0, read)

    @invariant()
    def sample_the_store_for_open_reads(self):
        for entry in self.open:
            entry[3].append(self.oracle(entry[2]))

    # -- writes --------------------------------------------------------
    # Autocommit writes and DDL wait for the writer's transaction to
    # finish: they ignore its table lock on the memory store and stall
    # on SQLite's single-writer lock.
    @precondition(lambda self: not self.writer.in_transaction)
    @rule(write=writes)
    def autocommit_write(self, write):
        self.plain.execute_update(*write)

    @precondition(lambda self: not self.writer.in_transaction)
    @rule(batch=batches)
    def autocommit_write_batch(self, batch):
        # On the memory store a batch is one statement per binding: let
        # the reads in flight finish first, or one could see the state
        # between two bindings, which the oracle never samples.
        for handle, *_ in self.open:
            handle.exception(timeout=10)
        sql, bindings = batch
        outcomes = self.store.execute_prepared_batch(
            self.store.prepare(sql), bindings
        )
        assert not any(isinstance(outcome, Exception) for outcome in outcomes)

    @precondition(lambda self: not self.writer.in_transaction and self.indexes)
    @rule()
    def out_of_band_create_index(self):
        column = self.indexes.pop()
        self.db.create_index(f"idx_{column}", "t", column)

    @precondition(lambda self: not self.writer.in_transaction)
    @rule()
    def begin(self):
        self.writer.begin()

    @precondition(lambda self: self.writer.in_transaction)
    @rule(write=writes)
    def transactional_write(self, write):
        self.writer.execute_update(*write)

    @precondition(lambda self: self.writer.in_transaction)
    @rule(commit=st.booleans())
    def finish(self, commit):
        if commit:
            self.writer.commit()
        else:
            self.writer.rollback()

    def teardown(self):
        for conn in (*self.readers, self.plain, self.writer):
            conn.close()  # rolls an open transaction back
        self.db.close()


def run(backend, example_seed, max_examples=15, **overrides):
    run_state_machine_as_test(
        seed(example_seed)(functools.partial(CoherenceMachine, backend)),
        settings=settings(
            max_examples=max_examples,
            stateful_step_count=40,
            deadline=None,
            database=None,
            **overrides,
        ),
    )


@pytest.mark.parametrize("example_seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("backend", BACKENDS)
def test_no_stale_read(backend, example_seed):
    run(backend, example_seed)


# -- the oracle can fail: three mutations, each a stale read --------------


def finds_a_stale_read(backend):
    with pytest.raises(AssertionError, match="stale blocking read|split read"):
        # The first failure is the demonstration: no shrinking, one bug.
        run(
            backend,
            1,
            max_examples=100,
            phases=[Phase.generate],
            report_multiple_bugs=False,
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_oracle_finds_the_stale_read_without_the_epoch_bump(backend, monkeypatch):
    def close_without_bump(self, table, committed, point=None):
        with self._lock:
            for state in self._moved(table, point):
                state[2] -= 1

    monkeypatch.setattr(WriteEpochLedger, "end_write", close_without_bump)
    finds_a_stale_read(backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_oracle_finds_the_cross_column_stale_read(backend, monkeypatch):
    """A point write on ``id`` must lapse a read keyed on ``v``: stripe
    the table instead of the column and it no longer does."""

    def forgetting_the_column(method):
        def mutated(self, *args):
            if isinstance(args[-1], tuple):  # the trailing point, if any
                table, _column, stripe = args[-1]
                args = (*args[:-1], (table, "", stripe))
            return method(self, *args)

        return mutated

    for name in ("ticket", "begin_write", "end_write"):
        method = getattr(WriteEpochLedger, name)
        monkeypatch.setattr(WriteEpochLedger, name, forgetting_the_column(method))
    finds_a_stale_read(backend)


def test_oracle_finds_the_stale_read_without_the_exact_type_rule(monkeypatch):
    """Under column affinity SQLite answers ``id = '1'`` with row 1, so
    ``'1'`` must not name a point of its own.  (Our sqlite store
    declares no affinity; the next DB-API store will have it.)"""
    monkeypatch.setattr(dialect, "COLUMN_DECLARATION", "INTEGER")
    run("sqlite", 1)  # the rule holds the property on such a store ...

    def point_of_any_type(self, params):
        if self.footprint is not None:
            column, index, _kind = self.footprint
            if index < len(params):
                return self.table, column, stripe_of(params[index])
        return None

    monkeypatch.setattr(PreparedStatement, "point", point_of_any_type)
    finds_a_stale_read("sqlite")  # ... and without it, it is lost
