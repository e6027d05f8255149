"""Differential oracle: the sqlite backend against the in-memory engine.

One layer up from ``tests/test_executor_differential.py`` (row vs
columnar under one server), these properties diff two *stores*: every
hypothesis-generated statement runs against both
:class:`~repro.backends.memory.InMemoryBackend` (the oracle) and
:class:`~repro.backends.sqlite.SqliteBackend`, over identically-seeded
databases, asserting order-normalized result equality, identical error
classes, and convergent post-commit/post-rollback states.

Order normalization: the in-memory heap scans in row-id order while
SQLite returns whatever its access path yields, so unordered SELECTs
compare as multisets (`collections.Counter`).  ORDER BY queries select
exactly their sort keys — rows tied on every key are then *equal
tuples*, so exact list equality is well-defined even though tie order
is unspecified on both sides.  Python's cross-type equalities
(``3 == 3.0``, ``True == 1``) make the multiset comparison blind to
SQLite's REAL-division and INTEGER-boolean storage classes, which is
exactly the client-indistinguishability the contract demands.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import BACKENDS, SqliteBackend, resolve_backend_name
from repro.db import Database, INSTANT

values = st.one_of(st.integers(min_value=-9, max_value=9), st.none())
texts = st.one_of(st.sampled_from(["red", "green", "blue", ""]), st.none())
rows_strategy = st.lists(
    st.tuples(st.integers(0, 400), values, values, texts),
    min_size=0,
    max_size=40,
)

#: (sql, param count, ordered) — ``ordered`` marks queries whose row
#: order is part of the contract (they select exactly their sort keys,
#: see the module docstring).  The pool covers every translated
#: construct: comparisons, IN (with NULL three-valued logic), BETWEEN,
#: IS [NOT] NULL, AND/OR/NOT, arithmetic including the division and
#: floor-modulo emulations, DISTINCT, LIMIT, aggregates and GROUP BY.
QUERIES = [
    ("SELECT id, a, b FROM t WHERE a = ?", 1, False),
    ("SELECT id FROM t WHERE a < ? AND b >= ?", 2, False),
    ("SELECT id FROM t WHERE a <> ?", 1, False),
    ("SELECT id FROM t WHERE a != ?", 1, False),
    ("SELECT id FROM t WHERE a IN (?, ?, 3)", 2, False),
    ("SELECT id FROM t WHERE b NOT IN (?, 1)", 1, False),
    ("SELECT id FROM t WHERE b BETWEEN ? AND ?", 2, False),
    ("SELECT id FROM t WHERE b NOT BETWEEN ? AND ?", 2, False),
    ("SELECT id FROM t WHERE a IS NULL", 0, False),
    ("SELECT id FROM t WHERE a IS NOT NULL AND b = ?", 1, False),
    ("SELECT id FROM t WHERE a = ? OR b = ?", 2, False),
    ("SELECT id FROM t WHERE NOT (a = ?)", 1, False),
    ("SELECT id, a + b FROM t", 0, False),
    ("SELECT id, a - b, a * b FROM t WHERE b <> ?", 1, False),
    ("SELECT id, a / ? FROM t", 1, False),
    ("SELECT id, a % ? FROM t", 1, False),
    ("SELECT id, a % b FROM t", 0, False),
    ("SELECT DISTINCT a FROM t", 0, False),
    ("SELECT DISTINCT a, c FROM t WHERE b >= ?", 1, False),
    ("SELECT * FROM t WHERE b > ?", 1, False),
    ("SELECT a, b FROM t ORDER BY a, b", 0, True),
    ("SELECT a FROM t WHERE b >= ? ORDER BY a DESC", 1, True),
    ("SELECT a, b FROM t ORDER BY a DESC, b LIMIT 5", 0, True),
    ("SELECT count(*), sum(b), min(b), max(b), avg(b) FROM t WHERE a >= ?", 1, False),
    ("SELECT count(a), count(DISTINCT a) FROM t", 0, False),
    ("SELECT a, count(*), sum(b) FROM t GROUP BY a", 0, False),
    ("SELECT a, c, count(*) FROM t WHERE b <> ? GROUP BY a, c", 1, False),
    ("SELECT id AS row_id, a AS alpha FROM t WHERE a = ?", 1, False),
    # LIMIT in every finalize position: after dedupe, after an ungrouped
    # aggregate, after grouped ORDER BY (negative binds raise PlanError).
    ("SELECT DISTINCT a FROM t ORDER BY a LIMIT 2", 0, True),
    ("SELECT count(*) FROM t LIMIT 0", 0, True),
    ("SELECT count(*) FROM t LIMIT ?", 1, True),
    ("SELECT a, count(*) FROM t GROUP BY a ORDER BY a LIMIT ?", 1, True),
]

params_strategy = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=2, max_size=2
)


def fresh_db(rows, indexed=False, not_null=None):
    """A Database whose memory *and* sqlite stores hold ``rows``
    (facade DDL/loads mirror into every live backend)."""
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
        db.create_index("ox", "t", "b", ordered=True)
    db.backend("sqlite")  # instantiate + seed the second store
    return db


def both_backends(db):
    return (
        db.connect(async_workers=1, backend="memory"),
        db.connect(async_workers=1, backend="sqlite"),
    )


def assert_backends_agree(db, sql, params, ordered=False):
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
        if ordered:
            assert mem_res.rows == lite_res.rows, (
                f"{sql!r} {params}: memory={mem_res.rows} "
                f"sqlite={lite_res.rows}"
            )
        else:
            assert Counter(mem_res.rows) == Counter(lite_res.rows), (
                f"{sql!r} {params}: memory={mem_res.rows} "
                f"sqlite={lite_res.rows}"
            )
    finally:
        mem_conn.close()
        lite_conn.close()


class TestSelectDifferential:
    @given(rows=rows_strategy, params=params_strategy)
    @settings(max_examples=15, deadline=None)
    def test_heap_table(self, rows, params):
        db = fresh_db(rows)
        try:
            for sql, nparams, ordered in QUERIES:
                assert_backends_agree(db, sql, params[:nparams], ordered)
        finally:
            db.close()

    @given(rows=rows_strategy, params=params_strategy)
    @settings(max_examples=8, deadline=None)
    def test_indexed_table(self, rows, params):
        db = fresh_db(rows, indexed=True)
        try:
            for sql, nparams, ordered in QUERIES:
                assert_backends_agree(db, sql, params[:nparams], ordered)
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
        # INSERT batches: executemany on sqlite, per-binding on memory —
        # same outcomes, same final state.
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
    ("SELECT id FROM t LIMIT ?", (-1,)),
    ("INSERT INTO t VALUES (?, ?, ?)", (1, 2, 3)),
    ("INSERT INTO t (id, a) VALUES (?, ?, ?)", (1, 2, 3)),
    ("INSERT INTO t VALUES (NULL, 1, 2, 'x')", ()),
    ("INSERT INTO t VALUES ('text', 1, 2, 'x')", ()),
    ("UPDATE t SET nope = 1", ()),
    ("CREATE TABLE t (x INT)", ()),
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


class TestErrorParity:
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
        # DDL in a txn and clustered-INSERT-in-txn raise the same
        # TransactionStateError on both stores.
        from repro.db.errors import TransactionStateError

        db = Database(INSTANT)
        try:
            db.create_table("k", ("id", "int"), clustered_on="id")
            db.backend("sqlite")
            for name in BACKENDS:
                with db.connect(async_workers=1, backend=name) as conn:
                    conn.begin()
                    with pytest.raises(TransactionStateError):
                        conn.execute_update("INSERT INTO k VALUES (1)")
                    conn.rollback()
        finally:
            db.close()


    def test_insert_error_precedence_matches(self):
        # One order on every store (``InsertPlan.row``): the values are
        # evaluated before a transactional clustered insert is refused,
        # so a value that cannot be computed wins over the refusal.
        db = Database(INSTANT)
        try:
            db.create_table("k", ("id", "int"), clustered_on="id")
            db.backend("sqlite")
            for name in BACKENDS:
                with db.connect(async_workers=1, backend=name) as conn:
                    conn.begin()
                    with pytest.raises(TypeError):
                        conn.execute_update("INSERT INTO k VALUES (? + 1)", ("x",))
                    conn.rollback()
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
