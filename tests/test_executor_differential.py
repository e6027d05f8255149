"""Differential oracle: the executor against a naive reference.

The in-memory engine (cost-based access paths, batch-at-a-time scans,
selection vectors, late materialization, scan-and-bucket batch demux)
must be *client-indistinguishable* from the obvious way to answer a
SELECT.  Every property here runs the same statement through the engine
and through :func:`tests.helpers.reference_select` — a full scan in
row-id order with plain Python group/sort/dedupe/limit, no planner, no
indexes, no operators — and asserts byte-identical results (columns,
rows, and row *order*; the engine scans in row-id order and
groups/dedupes in first-occurrence order, so exact equality is the
contract, not just set equality).

The second, fully independent oracle is SQLite:
``tests/test_backend_differential.py`` diffs the two backends on reads,
writes and transactions.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.db import Database, INSTANT
from tests.helpers import reference_select

values = st.one_of(st.integers(min_value=-9, max_value=9), st.none())
texts = st.one_of(st.sampled_from(["red", "green", "blue", ""]), st.none())
rows_strategy = st.lists(
    st.tuples(st.integers(0, 400), values, values, texts),
    min_size=0,
    max_size=50,
)

#: (sql, number of parameters) — one pool shared by every layout.
#: Covers the vectorized fast paths (=, <, >=, <>, IN, BETWEEN, AND)
#: and the generic cursor fallback (OR, NOT, IS NULL, expressions),
#: plus DISTINCT, multi-key ORDER BY + LIMIT, aggregates and GROUP BY,
#: and LIMIT in every finalize position (after dedupe, after an
#: ungrouped aggregate, after grouped ORDER BY; negative binds raise).
QUERIES = [
    ("SELECT id, a, b FROM t WHERE a = ?", 1),
    ("SELECT id FROM t WHERE a < ? AND b >= ?", 2),
    ("SELECT id FROM t WHERE a <> ?", 1),
    ("SELECT id FROM t WHERE a IN (?, ?, 3)", 2),
    ("SELECT id FROM t WHERE b NOT IN (?, 1)", 1),
    ("SELECT id FROM t WHERE b BETWEEN ? AND ?", 2),
    ("SELECT id FROM t WHERE a IS NULL", 0),
    ("SELECT id FROM t WHERE a IS NOT NULL AND b = ?", 1),
    ("SELECT id FROM t WHERE a = ? OR b = ?", 2),
    ("SELECT id FROM t WHERE NOT (a = ?)", 1),
    ("SELECT id, a + b FROM t WHERE b <> ?", 1),
    ("SELECT DISTINCT a FROM t", 0),
    ("SELECT DISTINCT a, c FROM t WHERE b >= ?", 1),
    ("SELECT id, c FROM t WHERE c = ?", 1),
    ("SELECT * FROM t WHERE b > ?", 1),
    ("SELECT id FROM t ORDER BY a, b LIMIT 5", 0),
    ("SELECT a, b FROM t WHERE a >= ? ORDER BY b", 1),
    ("SELECT count(*), sum(b), min(b), max(b), avg(b) FROM t WHERE a >= ?", 1),
    ("SELECT count(a) FROM t", 0),
    ("SELECT a, count(*), sum(b) FROM t GROUP BY a", 0),
    ("SELECT a, c, count(*) FROM t WHERE b <> ? GROUP BY a, c", 1),
    ("SELECT DISTINCT a FROM t ORDER BY a LIMIT 2", 0),
    ("SELECT count(*) FROM t LIMIT 0", 0),
    ("SELECT count(*) FROM t LIMIT ?", 1),
    ("SELECT a, count(*) FROM t GROUP BY a ORDER BY a LIMIT ?", 1),
]

params_strategy = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=2, max_size=2
)


def fresh_db(rows, clustered=False, indexed=False):
    db = Database(INSTANT)
    db.create_table(
        "t",
        ("id", "int"),
        ("a", "int"),
        ("b", "int"),
        ("c", "text"),
        rows_per_page=8,
        clustered_on="a" if clustered else None,
    )
    db.bulk_load("t", rows)
    if indexed:
        db.create_index("ix", "t", "a")
        db.create_index("ox", "t", "b", ordered=True)
    return db


def outcome(run):
    """``(columns, rows)`` of a result, or the exception class raised."""
    try:
        result = run()
    except Exception as exc:  # engine and reference must fail alike
        return type(exc)
    if isinstance(result, Exception):  # a batch slot's isolated fault
        return type(result)
    if isinstance(result, tuple):  # the reference's (columns, rows)
        return result
    return result.columns, result.rows


def scan_by(db, sql):
    """The one place row order depends on the access path: a range scan
    of the ordered index (``fresh_db`` builds it on ``b``) delivers
    candidates in key order, every other path in row-id order.  Telling
    the reference keeps row-order equality exact on every layout."""
    return "b" if db.server.prepare(sql).plan.access_path == "OrderedRangeOp" else None


def assert_matches_reference(db, sql, params):
    # The memory backend's own blocking execute: the subject is the
    # engine, whichever backend REPRO_BACKEND makes the default.
    got = outcome(lambda: db.server.execute(sql, params))
    expected = outcome(lambda: reference_select(db, sql, params, scan_by(db, sql)))
    assert got == expected, f"{sql!r} {params}: engine={got} reference={expected}"


class TestSelectDifferential:
    @given(rows=rows_strategy, params=params_strategy)
    @settings(max_examples=30, deadline=None)
    def test_heap_table(self, rows, params):
        db = fresh_db(rows)
        try:
            for sql, nparams in QUERIES:
                assert_matches_reference(db, sql, params[:nparams])
        finally:
            db.close()

    @given(rows=rows_strategy, params=params_strategy)
    @settings(max_examples=15, deadline=None)
    def test_indexed_table(self, rows, params):
        db = fresh_db(rows, indexed=True)
        try:
            for sql, nparams in QUERIES:
                assert_matches_reference(db, sql, params[:nparams])
        finally:
            db.close()

    @given(rows=rows_strategy, params=params_strategy)
    @settings(max_examples=15, deadline=None)
    def test_clustered_table(self, rows, params):
        # Clustering on a nullable column exercises ClusteredEqOp's
        # range fetch (and OrderKey handling of NULL keys).
        db = fresh_db(rows, clustered=True)
        try:
            for sql, nparams in QUERIES:
                assert_matches_reference(db, sql, params[:nparams])
        finally:
            db.close()

    @given(rows=rows_strategy, pivot=st.integers(-9, 9))
    @settings(max_examples=15, deadline=None)
    def test_after_deletes(self, rows, pivot):
        # Tombstones: delete a slice, then scan — live_selection must
        # skip cleared validity bits exactly as iter_rows does.
        db = fresh_db(rows)
        try:
            db.server.execute("DELETE FROM t WHERE a = ?", (pivot,))
            for sql, nparams in QUERIES:
                assert_matches_reference(db, sql, [pivot, pivot][:nparams])
        finally:
            db.close()


class TestBatchDifferential:
    @given(
        rows=rows_strategy,
        bindings=st.lists(st.tuples(values, values), min_size=1, max_size=8),
        indexed=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_demux_batch_agrees(self, rows, bindings, indexed):
        # The set-oriented batch path (scan-and-bucket demux on a heap
        # table, cost-gated scan-or-probe on an indexed one): every
        # binding's slot — duplicates, NULLs and faults included — must
        # be what the reference answers for that binding alone.
        db = fresh_db(rows, indexed=indexed)
        try:
            for sql, nparams in QUERIES:
                batch = [binding[:nparams] for binding in bindings]
                outcomes = db.server.execute_prepared_batch(
                    db.server.prepare(sql), batch
                )
                order = scan_by(db, sql)
                assert [outcome(lambda: o) for o in outcomes] == [
                    outcome(lambda: reference_select(db, sql, binding, order))
                    for binding in batch
                ], sql
        finally:
            db.close()


class TestScanObservability:
    def _scan_db(self):
        db = Database(INSTANT)
        db.create_table("t", ("id", "int"), ("a", "int"))
        db.bulk_load("t", [(i, i % 5) for i in range(40)])
        return db

    def test_scan_metrics_recorded(self):
        with self._scan_db() as db:
            db.server.execute("SELECT id FROM t WHERE a = ?", (2,))
            counters = db.metrics.snapshot()["counters"]
            assert counters["scan.batches"] >= 1
            assert counters["scan.rows_scanned"] == 40
            hist = db.metrics.histograms()["scan.selectivity"]
            assert hist.count >= 1

    def test_execute_span_carries_scan_batches(self):
        with self._scan_db() as db:
            # scan_batches is an in-memory-engine span attribute: pin
            # the backend.
            with db.connect(trace=True, backend="memory") as conn:
                conn.execute_query("SELECT id FROM t WHERE a = ?", (1,))
            spans = [
                span
                for span in db.tracer.export()
                if span["name"] == "server.execute"
            ]
            assert spans, "no server.execute span recorded"
            attrs = spans[-1]["attrs"]
            assert attrs["scan_batches"] >= 1
            assert "executor" not in attrs
