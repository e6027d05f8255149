"""``Database.bulk_load``: one atomic, column-wise load on every store.

A load coerces every row, checks the unique indexes against the whole
batch, has every other live store take the rows in one transaction, and
only then appends them to the heap — so a load that raises changes no
store.  The differential at the bottom pins the load to its row-by-row
meaning: loading a batch leaves the same heap, the same index contents
and the same answers as inserting its rows one ``INSERT`` at a time,
and fails with the same error class as the first failing ``INSERT``
(which, unlike the load, keeps the rows before it).
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.backends import BACKENDS
from repro.db import Database, INSTANT
from repro.db.errors import ConstraintError, DatabaseError, TypeMismatchError
from repro.db.storage import HeapTable
from repro.db.types import schema_of
from tests.helpers import drawn


def store_rows(db, backend, sql):
    with db.connect(async_workers=1, backend=backend) as conn:
        return Counter(conn.execute_query(sql).rows)


class TestCoerceOnce:
    def test_an_exactly_typed_row_is_returned_as_it_is(self):
        schema = schema_of(("i", "int"), ("f", "float"), ("s", "text"), ("b", "bool"))
        row = (1, 2.5, "x", True)
        assert schema.coerce_row(row) is row

    def test_any_other_row_is_coerced_per_column(self):
        schema = schema_of(("i", "int"), ("f", "float"), ("s", "text"), not_null=["s"])
        coerced = schema.coerce_row((True, 2, 3))
        assert coerced == (1, 2.0, "3")
        assert [type(value) for value in coerced] == [int, float, str]
        assert schema.coerce_row(["7", None, "x"]) == (7, None, "x")
        with pytest.raises(TypeMismatchError, match="NOT NULL"):
            schema.coerce_row((1, 2.0, None))
        with pytest.raises(TypeMismatchError, match="expected 3 values, got 2"):
            schema.coerce_row((1, 2.0))


class TestHeapExtend:
    def test_a_batch_takes_the_row_ids_after_the_last_slot(self):
        heap = HeapTable("c", schema_of(("k", "int"), ("v", "text")))
        heap.extend([(5, "e"), (1, "a")])
        heap.delete(1)
        heap.extend([(9, "i"), (None, "n")])
        assert list(heap.iter_rows()) == [(0, (5, "e")), (2, (9, "i")), (3, (None, "n"))]
        assert len(heap) == 3

    def test_a_batch_stores_what_inserts_would(self):
        schema = schema_of(("k", "int"), ("v", "text"))
        existing = [(1, "a"), (5, "e"), (9, "i"), (None, "n")]
        batch = [(5, "f"), (None, "m"), (0, "z"), (9, "j"), (3, "c")]
        extended = HeapTable("c", schema, rows_per_page=2)
        extended.extend(existing)
        extended.extend(batch)
        inserted = HeapTable("c", schema, rows_per_page=2)
        for row in existing + batch:
            inserted.insert(row)
        assert list(extended.iter_rows()) == list(inserted.iter_rows())
        assert extended.page_count == inserted.page_count


@pytest.fixture
def loaded():
    """``t`` (two columns) and ``u`` (unique ``id``), empty, with the
    sqlite store live beside memory."""
    db = Database(INSTANT)
    db.create_table("t", ("id", "int"), ("v", "text"))
    db.create_table("u", ("id", "int"))
    db.create_index("u_id", "u", "id", unique=True)
    db.backend("sqlite")
    yield db
    db.close()


class TestAtomicLoad:
    def test_a_row_that_does_not_coerce_stores_nothing(self, loaded):
        with pytest.raises(TypeMismatchError):
            loaded.bulk_load("t", [(1, "a"), (2, "b"), ("x", "c"), (4, "d")])
        for backend in BACKENDS:
            assert store_rows(loaded, backend, "SELECT id FROM t") == Counter()

    @pytest.mark.parametrize(
        "existing, batch",
        [([], [(1,), (2,), (1,), (3,)]), ([(2,)], [(1,), (2,), (3,)])],
        ids=["within-the-batch", "against-a-stored-row"],
    )
    def test_a_unique_duplicate_stores_nothing(self, loaded, existing, batch):
        loaded.bulk_load("u", existing)
        with pytest.raises(ConstraintError):
            loaded.bulk_load("u", batch)
        for backend in BACKENDS:
            assert store_rows(loaded, backend, "SELECT id FROM u") == Counter(existing)
        index = loaded.catalog.table("u").indexes[0]
        assert sorted(index.keys()) == [row[0] for row in existing]

    def test_a_row_only_sqlite_refuses_stores_nothing(self, loaded):
        # Memory holds any int; sqlite cannot bind one wider than 64
        # bits, so its transaction rolls back and the heap is left alone.
        with pytest.raises(DatabaseError) as failure:
            loaded.bulk_load("t", [(1, "a"), (1 << 70, "b")])
        assert failure.type is DatabaseError
        for backend in BACKENDS:
            assert store_rows(loaded, backend, "SELECT id FROM t") == Counter()


@pytest.mark.parametrize("backend", BACKENDS)
class TestNullKeysAreDistinct:
    """A unique index takes any number of NULL keys, on every store and
    by every write (SQL: NULLs are distinct); ``IS NULL`` finds every
    NULL row and ``= ?`` bound to NULL none."""

    def assert_nulls(self, db, backend, count):
        with db.connect(async_workers=1, backend=backend) as conn:
            nulls = conn.execute_query("SELECT id FROM u WHERE id IS NULL").rows
            assert nulls == [(None,)] * count
            assert conn.execute_query("SELECT id FROM u WHERE id = ?", (None,)).rows == []
            # A repeated non-NULL key is still refused.
            with pytest.raises(ConstraintError):
                conn.execute_update("INSERT INTO u VALUES (?)", (9,))
                conn.execute_update("INSERT INTO u VALUES (?)", (9,))

    def test_inserts(self, loaded, backend):
        with loaded.connect(async_workers=1, backend=backend) as conn:
            conn.execute_update("INSERT INTO u VALUES (NULL)")
            conn.execute_update("INSERT INTO u VALUES (?)", (None,))
        self.assert_nulls(loaded, backend, 2)

    def test_a_load(self, loaded, backend):
        loaded.bulk_load("u", [(None,), (1,), (None,)])
        self.assert_nulls(loaded, backend, 2)

    def test_an_update(self, loaded, backend):
        loaded.bulk_load("u", [(1,), (2,), (3,)])
        with loaded.connect(async_workers=1, backend=backend) as conn:
            update = conn.execute_update("UPDATE u SET id = NULL WHERE id < 3")
            assert update.rowcount == 2
        self.assert_nulls(loaded, backend, 2)


# ----------------------------------------------------------------------
# the load differential: bulk_load against row-by-row INSERT
# ----------------------------------------------------------------------

#: ``id`` may carry the unique index (NULLs in it are distinct); ``k``
#: and ``f`` may carry a non-unique one.
COLUMNS = (("id", "int"), ("k", "int"), ("f", "float"), ("s", "text"))
INSERT = "INSERT INTO d VALUES (?, ?, ?, ?)"
PROBES = {"id": "SELECT * FROM d WHERE id = ?", "k": "SELECT * FROM d WHERE k = ?",
          "f": "SELECT * FROM d WHERE f = ?"}

small_ints = st.integers(-3, 6)
coercible_ints = st.one_of(
    small_ints,
    small_ints.map(str),                 # coercible text: '7' into INT
    small_ints.map(float),               # integral floats
    st.booleans(),
)
coercible_floats = st.one_of(
    st.sampled_from([0.5, -1.25, 2.0, "1.5"]), small_ints, st.booleans(), st.none()
)
texts = st.one_of(st.sampled_from(["", "red", "blue"]), small_ints, st.none())
#: Rows every column takes (a unique duplicate is the only way to fail).
coercible_rows = st.tuples(
    st.one_of(coercible_ints, st.none()),
    st.one_of(coercible_ints, st.none()),
    coercible_floats,
    texts,
)
#: Rows that may also fail to coerce: a lossy float or a non-number.
failing = st.sampled_from([2.5, "x"])
rows = st.tuples(
    st.one_of(coercible_ints, failing, st.none()),
    st.one_of(coercible_ints, failing, st.none()),
    st.one_of(coercible_floats, st.just("y")),
    texts,
)
good_rows = st.tuples(st.one_of(small_ints, st.none()),
                      st.one_of(small_ints, st.none()),
                      st.one_of(st.sampled_from([0.5, 2.0]), st.none()),
                      st.one_of(st.sampled_from(["red", "blue"]), st.none()))

tables = st.fixed_dictionaries({
    # Which indexes exist before either load: unique hash on id,
    # non-unique hash on k and on f.
    "indexes": st.tuples(st.booleans(), st.booleans(), st.booleans()).map(
        lambda flags: [c for c, on in zip(("id", "k", "f"), flags) if on]
    ),
    # Stored before the batch (unique ids, at most one NULL, all
    # coercible).
    "existing": st.lists(good_rows, max_size=8, unique_by=lambda row: row[0]),
    "batch": st.one_of(
        st.lists(coercible_rows, max_size=10), st.lists(rows, max_size=6)
    ),
})


def build(backend, spec):
    """A Database holding ``spec``'s table, indexes and existing rows;
    the store under test is live."""
    db = Database(INSTANT)
    db.create_table("d", *COLUMNS, rows_per_page=4)
    for column in spec["indexes"]:
        db.create_index(f"d_{column}", "d", column, unique=column == "id")
    db.bulk_load("d", spec["existing"])
    db.backend(backend)
    return db


def contents(db, backend, probes):
    """What a reader can tell apart: every row, every probe's answer on
    each indexed column and — on memory — the heap by row id and every
    index's entries."""
    with db.connect(async_workers=1, backend=backend) as conn:
        state = {"rows": Counter(conn.execute_query("SELECT * FROM d").rows)}
        for column, sql in PROBES.items():
            state[column] = {
                value: Counter(conn.execute_query(sql, (value,)).rows)
                for value in probes
            }
    if backend == "memory":
        info = db.catalog.table("d")
        state["heap"] = list(info.heap.iter_rows())
        for index in info.indexes:
            state[index.name] = {key: list(index.probe(key)[1]) for key in index.keys()}
    return state


@pytest.mark.parametrize("backend", BACKENDS)
@drawn(80)
@given(spec=tables)
def test_bulk_load_equals_row_by_row_inserts(backend, spec):
    probes = [None, *range(-3, 7), 0.5, 2.0]
    loading, inserting = build(backend, spec), build(backend, spec)
    try:
        before = contents(loading, backend, probes)
        try:
            loading.bulk_load("d", spec["batch"])
            load_error = None
        except Exception as exc:
            load_error = exc
        insert_error = None
        with inserting.connect(async_workers=1, backend=backend) as conn:
            for row in spec["batch"]:
                try:
                    conn.execute_update(INSERT, row)
                except Exception as exc:
                    insert_error = exc
                    break
        assert type(load_error) is type(insert_error)
        if load_error is None:
            assert contents(loading, backend, probes) == contents(
                inserting, backend, probes
            )
        else:
            # The load stored nothing, on either store.
            assert contents(loading, backend, probes) == before
            assert store_rows(loading, "memory", "SELECT * FROM d") == before["rows"]
    finally:
        loading.close()
        inserting.close()
