"""No stale read, ever: a model-checked cache-coherence property.

A hypothesis state machine interleaves cached reads — blocking and
split (submit … fetch) — through two connections sharing one
:class:`ResultCache` with every kind of write the stack has: autocommit
statements, autocommit batches, a transaction's begin / write / commit /
rollback, and out-of-band DDL.  The oracle is the store itself, read
through a cache-less connection:

* a blocking cached read equals the same read taken cache-less at that
  moment;
* a split read returns a value the store held at some point between its
  submit and its fetch (the oracle is sampled after every step).

Both stores run it under a fixed seed set, and one more run per store
shows the oracle can fail: with the ledger's end-of-write bump removed
the machine finds a stale read within a few steps.
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

from repro.backends import BACKENDS, WriteEpochLedger
from repro.db import INSTANT, Database
from repro.prefetch.cache import ResultCache

POINT = "SELECT v FROM t WHERE id = ?"
READS = [
    (POINT, (0,)),
    (POINT, (1,)),
    (POINT, (2,)),
    ("SELECT count(*), sum(v) FROM t", ()),
]
UPDATE = "UPDATE t SET v = ? WHERE id = ?"
INSERT = "INSERT INTO t VALUES (?, ?)"

ids = st.integers(0, 2)
values = st.integers(0, 9)
readers = st.integers(0, 1)
reads = st.sampled_from(READS)


class CoherenceMachine(RuleBasedStateMachine):
    def __init__(self, backend):
        super().__init__()
        self.db = Database(INSTANT)
        self.db.create_table("t", ("id", "int"), ("v", "int"))
        self.db.bulk_load("t", [(i, i) for i in range(3)])
        self.db.backend("sqlite")
        self.store = self.db.backend(backend)
        self.cache = ResultCache(capacity=3)  # small: eviction is in play
        self.readers = [
            self.db.connect(async_workers=1, result_cache=self.cache, backend=backend)
            for _ in range(2)
        ]
        self.plain = self.db.connect(async_workers=1, backend=backend)
        self.writer = self.db.connect(async_workers=1, backend=backend)
        #: Split reads in flight: [handle, reader, read, values the
        #: store has held since the submit].
        self.open = []
        self.next_id = 3
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
    def sample_the_store_for_open_reads(self):
        for entry in self.open:
            entry[3].append(self.oracle(entry[2]))

    # -- writes --------------------------------------------------------
    # Autocommit writes and DDL wait for the writer's transaction to
    # finish: they ignore its table lock on the memory store and stall
    # on SQLite's single-writer lock.
    @precondition(lambda self: not self.writer.in_transaction)
    @rule(row=ids, value=values)
    def autocommit_write(self, row, value):
        self.plain.execute_update(UPDATE, (value, row))

    @precondition(lambda self: not self.writer.in_transaction)
    @rule(value=values, insert=st.booleans())
    def autocommit_write_batch(self, value, insert):
        # On the memory store a batch is one statement per binding: let
        # the reads in flight finish first, or one could see the state
        # between two bindings, which the oracle never samples.
        for handle, *_ in self.open:
            handle.exception(timeout=10)
        if insert:  # the sqlite store applies this one in one call
            sql = INSERT
            bindings = [(self.next_id, value), (self.next_id + 1, value)]
            self.next_id += 2
        else:
            sql, bindings = UPDATE, [(value, 0), (value + 1, 2)]
        outcomes = self.store.execute_prepared_batch(
            self.store.prepare(sql), bindings
        )
        assert [outcome.rowcount for outcome in outcomes] == [1, 1]

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
    @rule(row=ids, value=values)
    def transactional_write(self, row, value):
        self.writer.execute_update(UPDATE, (value, row))

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


def run(backend, example_seed, **overrides):
    run_state_machine_as_test(
        seed(example_seed)(functools.partial(CoherenceMachine, backend)),
        settings=settings(
            max_examples=20,
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_oracle_finds_the_stale_read_without_the_epoch_bump(backend, monkeypatch):
    def close_without_bump(self, table, committed):
        with self._lock:
            self._tables[table][2] -= 1

    monkeypatch.setattr(WriteEpochLedger, "end_write", close_without_bump)
    with pytest.raises(AssertionError, match="stale blocking read|split read"):
        # The first failure is the demonstration: no shrinking, one bug.
        run(backend, 1, phases=[Phase.generate], report_multiple_bugs=False)
