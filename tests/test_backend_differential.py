"""Differential oracle: the sqlite backend against the in-memory engine.

One layer up from ``tests/test_executor_differential.py`` (row vs
columnar under one server), these properties diff two *stores*: every
hypothesis-generated statement runs against both
:class:`~repro.backends.memory.InMemoryBackend` (the oracle) and
:class:`~repro.backends.sqlite.SqliteBackend`, over identically-seeded
databases, asserting order-normalized result equality, identical error
classes, and convergent post-commit/post-rollback states.

Order normalization: the in-memory heap scans in row-id order while
SQLite returns whatever its access path yields, and the SQL subset has
no ORDER BY, so SELECTs compare as multisets (`collections.Counter`).
Python's cross-type equalities
(``3 == 3.0``, ``True == 1``) make the multiset comparison blind to
SQLite's REAL-division and INTEGER-boolean storage classes, which is
exactly the client-indistinguishability the contract demands.
"""

from __future__ import annotations

import sqlite3
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import BACKENDS, SqliteBackend, resolve_backend_name
from repro.db import Database, INSTANT
from repro.db.errors import (
    CatalogError,
    ConstraintError,
    DatabaseError,
    SqlSyntaxError,
    TypeMismatchError,
)

values = st.one_of(st.integers(min_value=-9, max_value=9), st.none())
texts = st.one_of(st.sampled_from(["red", "green", "blue", ""]), st.none())
rows_strategy = st.lists(
    st.tuples(st.integers(0, 400), values, values, texts),
    min_size=0,
    max_size=40,
)

#: (sql, param count).  The pool covers every translated construct:
#: comparisons, IN (with NULL three-valued logic), BETWEEN, IS [NOT]
#: NULL, AND/OR/NOT, arithmetic including the division and floor-modulo
#: emulations, aggregates and GROUP BY.  Every row must prepare on both
#: stores (``test_every_query_prepares``): a row both refuse would pass
#: the differential by agreeing on the error.
QUERIES = [
    ("SELECT id, a, b FROM t WHERE a = ?", 1),
    ("SELECT id FROM t WHERE a < ? AND b >= ?", 2),
    ("SELECT id FROM t WHERE a <> ?", 1),
    ("SELECT id FROM t WHERE a != ?", 1),
    ("SELECT id FROM t WHERE a IN (?, ?, 3)", 2),
    ("SELECT id FROM t WHERE b NOT IN (?, 1)", 1),
    ("SELECT id FROM t WHERE b BETWEEN ? AND ?", 2),
    ("SELECT id FROM t WHERE b NOT BETWEEN ? AND ?", 2),
    ("SELECT id FROM t WHERE a IS NULL", 0),
    ("SELECT id FROM t WHERE a IS NOT NULL AND b = ?", 1),
    ("SELECT id FROM t WHERE a = ? OR b = ?", 2),
    ("SELECT id FROM t WHERE NOT (a = ?)", 1),
    ("SELECT id, a + b FROM t", 0),
    ("SELECT id, a - b, a * b FROM t WHERE b <> ?", 1),
    ("SELECT id, a / ? FROM t", 1),
    ("SELECT id, a % ? FROM t", 1),
    ("SELECT id, a % b FROM t", 0),
    ("SELECT * FROM t WHERE b > ?", 1),
    ("SELECT count(*), sum(b), min(b), max(b), avg(b) FROM t WHERE a >= ?", 1),
    ("SELECT count(a), count(c) FROM t", 0),
    ("SELECT c FROM t GROUP BY c", 0),
    ("SELECT a, count(*), sum(b) FROM t GROUP BY a", 0),
    ("SELECT a, c, count(*) FROM t WHERE b <> ? GROUP BY a, c", 1),
    ("SELECT id AS row_id, a AS alpha FROM t WHERE a = ?", 1),
]

params_strategy = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=2, max_size=2
)


def fresh_db(rows, indexed=False, not_null=None):
    """A Database whose memory *and* sqlite stores hold ``rows``
    (the facade's tables, indexes and loads reach every live backend)."""
    db = Database(INSTANT)
    db.create_table(
        "t",
        ("id", "int"),
        ("a", "int"),
        ("b", "int"),
        ("c", "text"),
        not_null=not_null,
        rows_per_page=8,
    )
    db.bulk_load("t", rows)
    if indexed:
        db.create_index("ix", "t", "a")
    db.backend("sqlite")  # instantiate + seed the second store
    return db


def schemas(db):
    """``{table: (column names, index names)}`` as the memory catalog,
    the sqlite store's mirror catalog and sqlite's own schema each hold
    it — asserted to agree."""
    store = db.backend("sqlite")
    held = [
        {
            name: (
                catalog.table(name).heap.schema.names(),
                sorted(index.name for index in catalog.indexes_on(name)),
            )
            for name in catalog.table_names()
        }
        for catalog in (db.catalog, store.catalog)
    ]
    connection = sqlite3.connect(store.path)
    try:
        native = {
            name: (
                tuple(row[1] for row in connection.execute(
                    f'PRAGMA table_info("{name}")'
                )),
                sorted(row[1] for row in connection.execute(
                    f'PRAGMA index_list("{name}")'
                )),
            )
            for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
    finally:
        connection.close()
    assert held[0] == held[1] == native
    return native


def both_backends(db):
    return (
        db.connect(async_workers=1, backend="memory"),
        db.connect(async_workers=1, backend="sqlite"),
    )


def assert_backends_agree(db, sql, params):
    mem_conn, lite_conn = both_backends(db)
    try:
        mem_res = lite_res = mem_exc = lite_exc = None
        try:
            mem_res = mem_conn.execute_query(sql, params)
        except Exception as exc:  # both stores must fail alike
            mem_exc = exc
        try:
            lite_res = lite_conn.execute_query(sql, params)
        except Exception as exc:
            lite_exc = exc
        if mem_exc is not None or lite_exc is not None:
            assert type(mem_exc) is type(lite_exc), (
                f"{sql!r} {params}: memory raised {mem_exc!r}, "
                f"sqlite raised {lite_exc!r}"
            )
            return
        assert mem_res.columns == lite_res.columns, sql
        assert Counter(mem_res.rows) == Counter(lite_res.rows), (
            f"{sql!r} {params}: memory={mem_res.rows} sqlite={lite_res.rows}"
        )
    finally:
        mem_conn.close()
        lite_conn.close()


class TestSelectDifferential:
    def test_every_query_prepares(self):
        # Both stores refusing a row alike would pass the differential
        # on the error alone.
        db = fresh_db([])
        try:
            for name in BACKENDS:
                for sql, nparams in QUERIES:
                    prepared = db.backend(name).prepare(sql)
                    assert prepared.param_count == nparams, (name, sql)
        finally:
            db.close()

    @given(rows=rows_strategy, params=params_strategy)
    @settings(max_examples=15, deadline=None)
    def test_heap_table(self, rows, params):
        db = fresh_db(rows)
        try:
            for sql, nparams in QUERIES:
                assert_backends_agree(db, sql, params[:nparams])
        finally:
            db.close()

    @given(rows=rows_strategy, params=params_strategy)
    @settings(max_examples=8, deadline=None)
    def test_indexed_table(self, rows, params):
        db = fresh_db(rows, indexed=True)
        try:
            for sql, nparams in QUERIES:
                assert_backends_agree(db, sql, params[:nparams])
        finally:
            db.close()

    @given(rows=rows_strategy, text=texts)
    @settings(max_examples=10, deadline=None)
    def test_text_predicates(self, rows, text):
        db = fresh_db(rows)
        try:
            for sql in (
                "SELECT id FROM t WHERE c = ?",
                "SELECT id FROM t WHERE c IN (?, 'red')",
                "SELECT c, count(*) FROM t GROUP BY c",
            ):
                assert_backends_agree(db, sql, (text,)[: sql.count("?")])
        finally:
            db.close()


#: One key, bound four ways.  Python says ``1 == 1.0 == True`` and
#: ``'1'`` equals none of them; so must every store, for an INT column
#: and a TEXT one, whatever path answers (scan, index probe, IN-demux,
#: the WHERE of a write).  SQLite would convert the binding to a typed
#: column's affinity first — which is why the sqlite store declares none.
LOOKALIKES = [1, "1", 1.0, True]


class TestCrossTypeEquality:
    ROWS = [(1, 1, 0, "1"), (2, 2, 0, "2"), (3, 1, 0, "one")]

    @pytest.mark.parametrize("indexed", [False, True])
    @pytest.mark.parametrize("binding", LOOKALIKES, ids=repr)
    def test_selects_agree(self, binding, indexed):
        db = fresh_db(self.ROWS, indexed=indexed)
        try:
            for column, position in (("a", 1), ("c", 3)):
                sql = f"SELECT id FROM t WHERE {column} = ?"
                assert_backends_agree(db, sql, (binding,))
                expected = [(row[0],) for row in self.ROWS if row[position] == binding]
                with db.connect(async_workers=1, backend="sqlite") as conn:
                    assert sorted(conn.execute_query(sql, (binding,)).rows) == expected
        finally:
            db.close()

    def test_point_batches_agree(self):
        db = fresh_db(self.ROWS)
        try:
            bindings = [(binding,) for binding in LOOKALIKES]
            for column in ("a", "c"):
                per_backend = []
                for name in BACKENDS:
                    backend = db.backend(name)
                    outcomes = backend.execute_prepared_batch(
                        backend.prepare(f"SELECT id FROM t WHERE {column} = ?"),
                        bindings,
                    )
                    per_backend.append([sorted(o.rows) for o in outcomes])
                assert per_backend[0] == per_backend[1], column
        finally:
            db.close()

    @pytest.mark.parametrize("binding", LOOKALIKES, ids=repr)
    @pytest.mark.parametrize(
        "sql",
        ["UPDATE t SET b = 9 WHERE {} = ?", "DELETE FROM t WHERE {} = ?"],
        ids=["update", "delete"],
    )
    def test_writes_agree(self, sql, binding):
        db = fresh_db(self.ROWS)
        try:
            for column in ("a", "c"):
                states = []
                for conn in both_backends(db):
                    with conn:
                        count = conn.execute_update(sql.format(column), (binding,))
                        states.append((count, snapshot(conn)))
                assert states[0] == states[1], column
        finally:
            db.close()


# DML pool: each statement runs through *both* stores (same initial
# data via mirroring) and the final table states must agree.  The
# second UPDATE's assignment expression and the INSERT's NOT NULL
# violation exercise the sqlite backend's engine-evaluated
# read-modify-write and coercion paths.
DML = [
    ("UPDATE t SET b = ? WHERE a = ?", 2),
    ("UPDATE t SET a = a + 1, b = a % 3 WHERE b < ?", 1),
    ("DELETE FROM t WHERE b = ?", 1),
    ("INSERT INTO t (id, a, b, c) VALUES (?, ?, 7, 'new')", 2),
    ("INSERT INTO t VALUES (?, NULL, ?, NULL)", 2),
]

TABLE_SNAPSHOT = "SELECT id, a, b, c FROM t"


def run_writes(conn, params):
    outcomes = []
    for sql, nparams in DML:
        try:
            outcomes.append(conn.execute_update(sql, params[:nparams]).rowcount)
        except Exception as exc:
            outcomes.append(type(exc).__name__)
    return outcomes


def snapshot(conn):
    return Counter(conn.execute_query(TABLE_SNAPSHOT).rows)


class TestWriteDifferential:
    @given(rows=rows_strategy, params=params_strategy)
    @settings(max_examples=10, deadline=None)
    def test_dml_converges(self, rows, params):
        db = fresh_db(rows)
        try:
            mem_conn, lite_conn = both_backends(db)
            with mem_conn, lite_conn:
                assert run_writes(mem_conn, params) == run_writes(
                    lite_conn, params
                )
                assert snapshot(mem_conn) == snapshot(lite_conn)
        finally:
            db.close()

    @given(rows=rows_strategy, params=params_strategy)
    @settings(max_examples=6, deadline=None)
    def test_commit_converges(self, rows, params):
        db = fresh_db(rows)
        try:
            mem_conn, lite_conn = both_backends(db)
            with mem_conn, lite_conn:
                for conn in (mem_conn, lite_conn):
                    conn.begin()
                    run_writes(conn, params)
                    conn.commit()
                assert snapshot(mem_conn) == snapshot(lite_conn)
        finally:
            db.close()

    @given(rows=rows_strategy, params=params_strategy)
    @settings(max_examples=6, deadline=None)
    def test_rollback_restores_identically(self, rows, params):
        db = fresh_db(rows)
        try:
            mem_conn, lite_conn = both_backends(db)
            with mem_conn, lite_conn:
                states = []
                for conn in (mem_conn, lite_conn):
                    before = snapshot(conn)
                    conn.begin()
                    run_writes(conn, params)
                    conn.rollback()
                    after = snapshot(conn)
                    assert after == before, "rollback diverged from its own past"
                    states.append(after)
                assert states[0] == states[1]
        finally:
            db.close()


#: Keyed writes: a NOT NULL INT, a nullable INT and a TEXT column set
#: from a bare ``?`` (native on sqlite unless the binding fails to
#: coerce), the hash-indexed key column itself, an expression (always
#: the read-modify-write) and a point DELETE.  Each runs with every
#: value of ``WRITE_VALUES`` against a key that matches rows and one
#: that matches none.
KEYED_WRITES = [
    "UPDATE w SET n = ? WHERE k = ?",
    "UPDATE w SET v = ? WHERE k = ?",
    "UPDATE w SET s = ? WHERE k = ?",
    "UPDATE w SET k = ? WHERE k = ?",
    "UPDATE w SET n = n + ? WHERE k = ?",
    "UPDATE w SET v = ? WHERE n > 0 AND k = ?",
]
WRITE_VALUES = [None, "7", 7.0, True, "x", 3]
#: Assigning the unique-indexed ``id`` always takes the read-modify-
#: write on sqlite: ``(value, key)`` pairs that move row 100 along a
#: chain of ids no other row holds (a violation has its own test).
UNIQUE_WRITE = "UPDATE w SET id = ? WHERE id = ?"
UNIQUE_BINDINGS = [
    (1000, 100),
    ("2000", 1000),
    (3000.0, 2000),
    ("x", 3000),
    (None, 99),
    (True, 3000),
]
write_rows = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(-3, 3),
        st.one_of(st.sampled_from(["red", "7", ""]), st.none()),
        values,
    ),
    max_size=12,
)


def write_db(rows):
    """Table ``w`` on both stores: ``id`` (unique hash index, 100 + row
    number), ``k`` (hash index), ``n`` (NOT NULL), ``s`` and ``v``."""
    db = Database(INSTANT)
    db.create_table(
        "w",
        ("id", "int"),
        ("k", "int"),
        ("n", "int"),
        ("s", "text"),
        ("v", "int"),
        not_null=("n",),
        rows_per_page=4,
    )
    db.bulk_load("w", [(100 + i, *row) for i, row in enumerate(rows)])
    db.create_index("w_id", "w", "id", unique=True)
    db.create_index("w_k", "w", "k")
    db.backend("sqlite")
    return db


def write_script(conn, keys):
    """Every keyed write under every value, against each of ``keys``,
    then the unique-column writes and point DELETEs: the rowcount or
    the error class of each."""
    outcomes = []

    def run(sql, params):
        try:
            outcomes.append(conn.execute_update(sql, params).rowcount)
        except Exception as exc:
            outcomes.append(type(exc).__name__)

    for sql in KEYED_WRITES:
        for value in WRITE_VALUES:
            for key in keys:
                run(sql, (value, key))
    for binding in UNIQUE_BINDINGS:
        run(UNIQUE_WRITE, binding)
    for key in (keys[0], "1", 2.0, True, None):
        run("DELETE FROM w WHERE k = ?", (key,))
    return outcomes


def w_snapshot(conn):
    return Counter(conn.execute_query("SELECT id, k, n, s, v FROM w").rows)


class TestKeyedWriteDifferential:
    """UPDATE and DELETE agree across the stores — rowcount, error class
    and the rows they leave — whichever way each store runs them: the
    memory engine's point path or general path, sqlite's native UPDATE
    or its read-modify-write."""

    @given(rows=write_rows, key=st.integers(0, 4))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_autocommit(self, rows, key):
        db = write_db(rows)
        try:
            mem_conn, lite_conn = both_backends(db)
            with mem_conn, lite_conn:
                outcomes = [write_script(conn, (key, 99)) for conn in (mem_conn, lite_conn)]
                assert outcomes[0] == outcomes[1]
                assert w_snapshot(mem_conn) == w_snapshot(lite_conn)
        finally:
            db.close()

    @given(rows=write_rows, key=st.integers(0, 4))
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_in_a_transaction_then_rolled_back(self, rows, key):
        db = write_db(rows)
        try:
            mem_conn, lite_conn = both_backends(db)
            with mem_conn, lite_conn:
                before = w_snapshot(mem_conn)
                outcomes, inside = [], []
                for conn in (mem_conn, lite_conn):
                    conn.begin()
                    outcomes.append(write_script(conn, (key, 99)))
                    inside.append(w_snapshot(conn))
                    conn.rollback()
                    assert w_snapshot(conn) == before
                assert outcomes[0] == outcomes[1]
                assert inside[0] == inside[1]
        finally:
            db.close()

    def test_a_unique_violation_leaves_the_table_as_it_was(self):
        """An UPDATE or INSERT that would duplicate a unique key raises
        on both stores, and neither store's heap or index moved."""
        db = write_db([(0, 1, "a", 5), (1, 2, "b", 6)])
        try:
            mem_conn, lite_conn = both_backends(db)
            with mem_conn, lite_conn:
                before = w_snapshot(mem_conn)
                for conn in (mem_conn, lite_conn):
                    with pytest.raises(ConstraintError):
                        conn.execute_update(UNIQUE_WRITE, (101, 100))
                    with pytest.raises(ConstraintError):
                        conn.execute_update(
                            "INSERT INTO w VALUES (?, ?, ?, ?, ?)",
                            (100, 4, 0, None, None),
                        )
                    assert w_snapshot(conn) == before
                    for key in (100, 101):
                        assert conn.execute_query(
                            "SELECT id FROM w WHERE id = ?", (key,)
                        ).rows == [(key,)]
        finally:
            db.close()

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_a_unique_index_over_duplicates_is_refused(self, backend):
        """``create_index`` refuses a unique index over a repeated key
        before either store changes, so the name stays free; NULL keys
        do not repeat, so a unique index over them is taken.  The store
        then answers through the indexes as through none."""
        db = write_db([(0, 1, "a", 5), (1, 2, None, 5), (2, 3, None, 6)])
        try:
            with db.connect(async_workers=1, backend=backend) as conn:
                with pytest.raises(ConstraintError):
                    db.create_index("w_v", "w", "v", unique=True)
                assert schemas(db)["w"][1] == ["w_id", "w_k"]
                db.create_index("w_v", "w", "v")
                db.create_index("w_s", "w", "s", unique=True)
                assert sorted(conn.execute_query(
                    "SELECT id FROM w WHERE v = ?", (5,)
                ).rows) == [(100,), (101,)]
                assert sorted(conn.execute_query(
                    "SELECT id FROM w WHERE s IS NULL"
                ).rows) == [(101,), (102,)]
        finally:
            db.close()

    def test_the_native_rule(self):
        """Which UPDATEs sqlite runs as one native statement.  A
        non-unique index does not matter, so assigning its column stays
        native."""
        db = write_db([])
        try:
            db.create_index("w_v", "w", "v")
            store = db.backend("sqlite")
            native = {
                sql: store.prepare(sql).translated[1] is not None
                for sql in KEYED_WRITES + [UNIQUE_WRITE]
            }
            assert native == {
                "UPDATE w SET n = ? WHERE k = ?": True,
                "UPDATE w SET v = ? WHERE k = ?": True,
                "UPDATE w SET s = ? WHERE k = ?": True,
                "UPDATE w SET k = ? WHERE k = ?": True,
                "UPDATE w SET n = n + ? WHERE k = ?": False,
                "UPDATE w SET v = ? WHERE n > 0 AND k = ?": True,
                UNIQUE_WRITE: False,
            }
        finally:
            db.close()


class TestConcurrentAutocommitUpdates:
    """Concurrent autocommit read-modify-writes lose no update: on
    sqlite the read and the writes of one UPDATE are one transaction."""

    THREADS = 4
    N = 300

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_no_increment_is_lost(self, backend):
        db = Database(INSTANT)
        try:
            db.create_table("t", ("id", "int"), ("n", "int"))
            db.bulk_load("t", [(1, 0), (2, 0)])
            store = db.backend(backend)

            def work():
                for _ in range(self.N):
                    store.execute("UPDATE t SET n = n + 1 WHERE id = ?", (1,))

            threads = [threading.Thread(target=work) for _ in range(self.THREADS)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
            finally:
                sys.setswitchinterval(interval)
            assert store.execute("SELECT id, n FROM t").rows == [
                (1, self.THREADS * self.N),
                (2, 0),
            ]
        finally:
            db.close()


class TestBatchDifferential:
    @given(rows=rows_strategy, keys=st.lists(values, min_size=1, max_size=12))
    @settings(max_examples=10, deadline=None)
    def test_point_lookup_batch_agrees(self, rows, keys):
        # The set-oriented path: scan-and-bucket demux in memory,
        # WHERE a IN (...) on sqlite — including duplicate and NULL
        # bindings, which must each produce their own (empty) outcome.
        db = fresh_db(rows)
        try:
            bindings = [(key,) for key in keys]
            per_backend = []
            for name in BACKENDS:
                backend = db.backend(name)
                prepared = backend.prepare("SELECT id, b FROM t WHERE a = ?")
                outcomes = backend.execute_prepared_batch(prepared, bindings)
                per_backend.append(
                    [Counter(outcome.rows) for outcome in outcomes]
                )
            assert per_backend[0] == per_backend[1]
        finally:
            db.close()

    @given(rows=rows_strategy, keys=st.lists(values, min_size=1, max_size=8))
    @settings(max_examples=8, deadline=None)
    def test_batch_slots_match_per_binding_execution(self, rows, keys):
        # Every point-lookup shape sqlite answers with one IN (...):
        # plain, aliased with the equality flipped, and ``*``.  Each
        # slot of the batch — duplicate, NULL and wrong-arity bindings
        # included — must equal executing that binding alone, on each
        # store, and the two stores must agree slot by slot.
        def normalized(outcome):
            if isinstance(outcome, Exception):
                return type(outcome)
            return outcome.columns, Counter(outcome.rows)

        def alone(backend, sql, binding):
            try:
                return backend.execute(sql, binding)
            except Exception as exc:
                return exc

        db = fresh_db(rows)
        try:
            bindings = [(key,) for key in keys] + [(), (keys[0], keys[0])]
            for sql in (
                "SELECT id, b FROM t WHERE a = ?",
                "SELECT id AS row_id, b AS beta FROM t WHERE ? = a",
                "SELECT * FROM t WHERE a = ?",
            ):
                per_backend = []
                for name in BACKENDS:
                    backend = db.backend(name)
                    prepared = backend.prepare(sql)
                    assert prepared.plan.point_key == "a"
                    batch = [
                        normalized(outcome)
                        for outcome in backend.execute_prepared_batch(
                            prepared, bindings
                        )
                    ]
                    assert batch == [
                        normalized(alone(backend, sql, binding))
                        for binding in bindings
                    ], f"{name}: {sql!r} {bindings}"
                    per_backend.append(batch)
                assert per_backend[0] == per_backend[1], sql
        finally:
            db.close()

    @given(rows=rows_strategy, keys=st.lists(values, min_size=1, max_size=6))
    @settings(max_examples=8, deadline=None)
    def test_non_demuxable_batch_agrees(self, rows, keys):
        # INSERT batches run per binding on both stores — same outcomes,
        # same final state.
        db = fresh_db(rows)
        try:
            bindings = [(1000 + i, key) for i, key in enumerate(keys)]
            states = []
            for name in BACKENDS:
                backend = db.backend(name)
                prepared = backend.prepare(
                    "INSERT INTO t (id, a, b, c) VALUES (?, ?, 0, 'batch')"
                )
                outcomes = backend.execute_prepared_batch(prepared, bindings)
                assert len(outcomes) == len(bindings)
                for outcome in outcomes:
                    assert outcome.rowcount == 1
                states.append(
                    Counter(backend.execute(TABLE_SNAPSHOT).rows)
                )
            assert states[0] == states[1]
        finally:
            db.close()


ERROR_CASES = [
    # (sql, params) — each must raise the SAME error class on both.
    ("SELECT nope FROM t", ()),
    ("SELECT id FROM missing", ()),
    ("SELECT id FROM t WHERE a = ?", (1, 2)),
    ("SELECT id FROM t WHERE a = ?", ()),
    ("INSERT INTO t VALUES (?, ?, ?)", (1, 2, 3)),
    ("INSERT INTO t (id, a) VALUES (?, ?, ?)", (1, 2, 3)),
    ("INSERT INTO t VALUES (NULL, 1, 2, 'x')", ()),
    ("INSERT INTO t VALUES ('text', 1, 2, 'x')", ()),
    ("UPDATE t SET nope = 1", ()),
    ("CREATE TABLE t (x INT)", ()),
    # A value sqlite cannot bind, on the unindexed ``a``: each store
    # refuses it before any comparison reads it.
    ("SELECT id FROM t WHERE a = ?", ([1],)),
    ("SELECT id FROM t WHERE a > ?", ([1],)),
    ("SELECT id FROM t WHERE a IN (?, 2)", ([1],)),
]

#: Unknown columns where no row would ever reach them (empty table, or
#: an earlier conjunct that matches nothing): the shared planner
#: resolves every reference at prepare time.
UNKNOWN_COLUMN_SQL = [
    "SELECT id FROM t WHERE nope = 1",
    "UPDATE t SET a = 1 WHERE nope = 1",
    "DELETE FROM t WHERE nope = 1",
    "UPDATE t SET a = nope",
    "SELECT id FROM t WHERE a = 99 AND nope = 2",
]
ERROR_CASES += [(sql, ()) for sql in UNKNOWN_COLUMN_SQL]

#: A plain column beside an aggregate that is not a GROUP BY column:
#: the shared planner refuses it at prepare (sqlite alone would answer
#: an arbitrary row's value).
BARE_COLUMN_SQL = [
    "SELECT c, count(*) FROM t",
    "SELECT c, count(*) FROM t GROUP BY a",
]
ERROR_CASES += [(sql, ()) for sql in BARE_COLUMN_SQL]


#: One form of each clause the SQL subset leaves out — none of the
#: paper's programs sends one.  The words stay reserved, so no store
#: reads them as an alias or a column.
LEFT_OUT_CLAUSES = [
    "SELECT id FROM t ORDER BY id",
    "SELECT id FROM t LIMIT 1",
    "SELECT DISTINCT a FROM t",
    "SELECT count(DISTINCT a) FROM t",
]

#: Point-read keys sqlite cannot bind: ``(key, rows, error)`` — the
#: rows both stores answer, or the error class both raise.  No stored
#: value equals a 70-bit int or a lone surrogate; a list is no
#: parameter value.
UNBINDABLE_KEYS = [
    (1 << 70, [], None),
    ("\ud800", [], None),
    ([2], None, TypeMismatchError),
]


class TestIndexedWrites:
    """A write in the middle of a table, by statement or by load, keeps
    every hash-index lookup on the memory store what sqlite answers: a
    delete must leave the keys after it reachable, an insert must land
    in every bucket of its keys."""

    @staticmethod
    def indexed_db():
        db = Database(INSTANT)
        db.create_table("c", ("k", "int"), ("v", "text"), rows_per_page=2)
        db.create_index("c_k", "c", "k")
        db.create_index("c_v", "c", "v")
        db.bulk_load("c", [(1, "a"), (5, "e"), (9, "i")])
        db.backend("sqlite")
        return db

    @staticmethod
    def lookups(db):
        """Every store's answers through both indexes and the scan, for
        every key and value."""
        answers = []
        for name in BACKENDS:
            with db.connect(async_workers=1, backend=name) as conn:
                answers.append(
                    [
                        sorted(conn.execute_query(sql, (value,)).rows)
                        for value in "abcdefghij"
                        for sql in (
                            "SELECT k FROM c WHERE v = ?",
                            "SELECT k FROM c WHERE v >= ?",
                        )
                    ]
                    + [
                        sorted(conn.execute_query("SELECT v FROM c WHERE k = ?", (k,)).rows)
                        for k in range(11)
                    ]
                )
        return answers

    @pytest.mark.parametrize(
        "sql, rows",
        [
            ("INSERT INTO c VALUES (3, 'c')", None),
            ("DELETE FROM c WHERE k = 5", None),
            (None, [(3, "c"), (7, "g")]),
            (None, [(9, "j"), (0, "z")]),
            ("UPDATE c SET v = 'f' WHERE k = 5", None),
            ("UPDATE c SET k = 0 WHERE v = 'e'", None),
        ],
        ids=["insert", "delete", "bulk-load", "bulk-load-out-of-order",
             "update-value", "update-key"],
    )
    def test_mid_range_writes_keep_every_lookup(self, sql, rows):
        db = self.indexed_db()
        try:
            if rows is not None:
                db.bulk_load("c", rows)
            for name in BACKENDS if sql else ():
                with db.connect(async_workers=1, backend=name) as conn:
                    conn.execute_update(sql)
            memory, sqlite = self.lookups(db)
            assert memory == sqlite
            assert any(memory)
        finally:
            db.close()


class TestErrorParity:
    @pytest.mark.parametrize(
        "key, rows, error", UNBINDABLE_KEYS, ids=["wide-int", "surrogate", "list"]
    )
    def test_unbindable_point_keys_agree(self, key, rows, error):
        db = fresh_db([(1, 1, 1, "x"), (2, 2, 2, "y")])
        try:
            db.create_index("uq", "t", "id", unique=True)
            for name in BACKENDS:
                with db.connect(async_workers=1, backend=name) as conn:
                    read = lambda: conn.execute_query(
                        "SELECT c FROM t WHERE id = ?", (key,)
                    )
                    if error is None:
                        assert read().rows == rows, name
                    else:
                        with pytest.raises(DatabaseError) as raised:
                            read()
                        assert raised.type is error, name
        finally:
            db.close()

    def test_error_classes_match(self):
        # not_null so the NULL-insert case violates a real constraint;
        # empty and loaded, because an error must not depend on whether
        # a row ever reaches the offending expression.
        for rows in ([], [(1, 1, 1, "x"), (2, 2, 2, "y")]):
            db = fresh_db(rows, not_null=("id",))
            try:
                mem_conn, lite_conn = both_backends(db)
                with mem_conn, lite_conn:
                    for sql, params in ERROR_CASES:
                        with pytest.raises(Exception) as mem_exc:
                            mem_conn.execute_query(sql, params)
                        with pytest.raises(Exception) as lite_exc:
                            lite_conn.execute_query(sql, params)
                        assert mem_exc.type is lite_exc.type, (
                            f"{sql!r} on {len(rows)} rows: "
                            f"memory {mem_exc.type.__name__}, "
                            f"sqlite {lite_exc.type.__name__}"
                        )
            finally:
                db.close()

    @pytest.mark.parametrize("sql", LEFT_OUT_CLAUSES)
    def test_left_out_clauses_are_syntax_errors(self, sql):
        # In autocommit and inside a transaction, which goes on.
        db = fresh_db([(1, 1, 1, "x")])
        try:
            for name in BACKENDS:
                with db.connect(async_workers=1, backend=name) as conn:
                    with pytest.raises(SqlSyntaxError):
                        conn.execute_query(sql)
                    conn.begin()
                    with pytest.raises(SqlSyntaxError):
                        conn.execute_query(sql)
                    assert conn.execute_query("SELECT id FROM t").rows == [(1,)]
                    conn.rollback()
        finally:
            db.close()

    def test_unknown_columns_fail_at_prepare(self):
        # ...and they fail before anything reaches a worker: prepare
        # raises on either store, empty or loaded (submit_query hands
        # back an already-failed handle; nothing executes).
        from repro.db.errors import UnknownColumnError

        for rows in ([], [(1, 1, 1, "x"), (2, 2, 2, "y")]):
            db = fresh_db(rows)
            try:
                for name in BACKENDS:
                    for sql in UNKNOWN_COLUMN_SQL:
                        with pytest.raises(UnknownColumnError):
                            db.backend(name).prepare(sql)
                    executed = db.backend(name).stats.statements_executed
                    with db.connect(backend=name) as conn:
                        handle = conn.submit_query(UNKNOWN_COLUMN_SQL[0])
                        with pytest.raises(UnknownColumnError):
                            conn.fetch_result(handle)
                    assert (
                        db.backend(name).stats.statements_executed == executed
                    )
            finally:
                db.close()

    def test_bare_columns_fail_at_prepare(self):
        from repro.db.errors import PlanError

        for rows in ([], [(1, 1, 1, "x"), (2, 2, 2, "y")]):
            db = fresh_db(rows)
            try:
                for name in BACKENDS:
                    for sql in BARE_COLUMN_SQL:
                        with pytest.raises(PlanError, match="GROUP BY columns"):
                            db.backend(name).prepare(sql)
            finally:
                db.close()

    def test_unique_violation_matches(self):
        db = fresh_db([(1, 1, 1, "x")])
        try:
            db.create_index("uq", "t", "id", unique=True)
            mem_conn, lite_conn = both_backends(db)
            with mem_conn, lite_conn:
                errors = []
                for conn in (mem_conn, lite_conn):
                    with pytest.raises(Exception) as exc:
                        conn.execute_update(
                            "INSERT INTO t VALUES (1, 5, 5, 'dup')"
                        )
                    errors.append(exc.type)
                assert errors[0] is errors[1] is errors[0]
                from repro.db.errors import ConstraintError

                assert issubclass(errors[0], ConstraintError)
        finally:
            db.close()

    def test_txn_dml_rules_match(self):
        # No statement changes a schema, in a transaction either: both
        # stores refuse the text alike, and the transaction goes on.
        db = Database(INSTANT)
        try:
            db.create_table("k", ("id", "int"))
            db.backend("sqlite")
            for name in BACKENDS:
                with db.connect(async_workers=1, backend=name) as conn:
                    conn.begin()
                    with pytest.raises(SqlSyntaxError):
                        conn.execute_update("CREATE TABLE k2 (id int)")
                    conn.execute_update("INSERT INTO k VALUES (1)")
                    assert conn.execute_query("SELECT id FROM k").rows == [(1,)]
                    conn.rollback()
            assert schemas(db) == {"k": (("id",), [])}
        finally:
            db.close()

    @pytest.mark.parametrize("kind", ["ORDERED", "CLUSTERED"])
    def test_removed_index_kinds_fail_alike(self, kind):
        # Neither store has an ordered or a clustered index: the words
        # are not SQL keywords here, so both stores refuse the text
        # with the same syntax error.
        from repro.db.errors import SqlSyntaxError

        db = fresh_db([(1, 1, 1, "x")])
        try:
            for name in BACKENDS:
                with db.connect(async_workers=1, backend=name) as conn:
                    with pytest.raises(DatabaseError) as exc:
                        conn.execute_update(f"CREATE {kind} INDEX i ON t (a)")
                    assert exc.type is SqlSyntaxError, name
        finally:
            db.close()

    def test_insert_error_precedence_matches(self):
        # One order on every store (``InsertPlan.row``): inside a
        # transaction too, a value that cannot be computed raises the
        # same error everywhere.
        db = Database(INSTANT)
        try:
            db.create_table("k", ("id", "int"))
            db.backend("sqlite")
            for name in BACKENDS:
                with db.connect(async_workers=1, backend=name) as conn:
                    with pytest.raises(TypeMismatchError):
                        conn.execute_update("INSERT INTO k VALUES (? + 1)", ("x",))
                    conn.begin()
                    with pytest.raises(TypeMismatchError):
                        conn.execute_update("INSERT INTO k VALUES (? + 1)", ("x",))
                    conn.rollback()
        finally:
            db.close()


#: Schema changes sqlite refuses, on a database holding ``t(a)`` with
#: index ``i`` and an empty ``t2(a)``: the catalog must refuse each
#: before any store changes.
SCHEMA_PROBES = {
    "index-name-on-another-table": lambda db: db.create_index("i", "t2", "a"),
    "table-named-like-an-index": lambda db: db.create_table("i", ("a", "int")),
    "table-name-in-another-case": lambda db: db.create_table("T", ("a", "int")),
    "columns-in-another-case": lambda db: db.create_table(
        "u", ("a", "int"), ("A", "int")
    ),
    "reserved-name": lambda db: db.create_table("sqlite_t", ("a", "int")),
}

#: Schema text: no statement changes a schema, on either store.
CREATE_TEXTS = {
    "create-table": "CREATE TABLE u (a int)",
    "create-index": "CREATE INDEX j ON t (a)",
    "create-unique-index": "CREATE UNIQUE INDEX j ON t (a)",
}


class TestOneSchemaPath:
    @pytest.mark.parametrize("probe", [*SCHEMA_PROBES, *CREATE_TEXTS])
    def test_a_refused_schema_change_changes_no_store(self, probe):
        """``create_table`` / ``create_index`` under SQLite's name rule
        and ``CREATE`` text are refused with one class on both stores;
        every catalog and sqlite's own schema stay as they were, and
        both stores still answer alike."""
        db = Database(INSTANT)
        try:
            db.create_table("t", ("a", "int"))
            db.create_table("t2", ("a", "int"))
            db.bulk_load("t", [(1,), (2,)])
            db.create_index("i", "t", "a")
            db.backend("sqlite")
            before = schemas(db)
            for name in BACKENDS:
                with db.connect(async_workers=1, backend=name) as conn:
                    with pytest.raises(DatabaseError) as refused:
                        if probe in SCHEMA_PROBES:
                            SCHEMA_PROBES[probe](db)
                        else:
                            conn.execute_update(CREATE_TEXTS[probe])
                    assert refused.type is (
                        CatalogError if probe in SCHEMA_PROBES else SqlSyntaxError
                    ), (name, refused.value)
                    assert schemas(db) == before
                    read = conn.execute_query
                    assert read("SELECT a FROM t WHERE a = ?", (2,)).rows == [(2,)]
                    assert read("SELECT a FROM t2").rows == []
        finally:
            db.close()


    def test_a_unique_index_is_taken_by_every_store_or_none(self):
        """The stores' rows may differ — a row written through a sqlite
        connection never reaches the in-memory heap.  A unique index
        sqlite refuses over its rows is then taken by no store: the
        name stays free and both stores keep taking the same rows."""
        db = Database(INSTANT)
        try:
            db.create_table("t", ("id", "int"), ("v", "int"))
            db.bulk_load("t", [(1, 1), (2, 2)])
            db.backend("sqlite")
            with db.connect(async_workers=1, backend="sqlite") as conn:
                conn.execute_update("INSERT INTO t VALUES (3, 1)")
            before = schemas(db)
            with pytest.raises(ConstraintError):
                db.create_index("u", "t", "v", unique=True)
            assert schemas(db) == before
            for name in BACKENDS:
                with db.connect(async_workers=1, backend=name) as conn:
                    conn.execute_update("INSERT INTO t VALUES (4, 2)")
            db.create_index("u", "t", "v")
            assert schemas(db)["t"] == (("id", "v"), ["u"])
        finally:
            db.close()


class TestBackendSelection:
    def test_default_is_memory(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_name(None) == "memory"

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sqlite")
        assert resolve_backend_name(None) == "sqlite"
        db = Database(INSTANT)
        try:
            db.create_table("t", ("id", "int"))
            with db.connect(async_workers=1) as conn:
                assert conn.server.backend_name == "sqlite"
        finally:
            db.close()

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sqlite")
        assert resolve_backend_name("memory") == "memory"

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend_name("oracle9i")
        db = Database(INSTANT)
        try:
            with pytest.raises(ValueError):
                db.connect(backend="oracle9i")
        finally:
            db.close()

    def test_backend_instance_reused(self):
        db = Database(INSTANT)
        try:
            db.create_table("t", ("id", "int"))
            first = db.backend("sqlite")
            assert db.backend("sqlite") is first
            assert db.backend("memory") is db.server
        finally:
            db.close()

    def test_sqlite_backend_shutdown_cleans_up(self):
        import os

        backend = SqliteBackend()
        path = backend.path
        assert os.path.exists(path)
        backend.shutdown()
        assert backend.is_shutdown
        assert not os.path.exists(path)
