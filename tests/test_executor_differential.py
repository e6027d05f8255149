"""Differential oracle: the executor against a naive reference.

The in-memory engine (cost-based access paths, batch-at-a-time scans,
selection vectors, late materialization, scan-and-bucket batch demux)
must be *client-indistinguishable* from the obvious way to answer a
SELECT.  Every property here runs the same statement through the engine
and through :func:`tests.helpers.reference_select` — a full scan in
row-id order with plain Python grouping and folds, no planner, no
indexes, no operators — and asserts byte-identical results (columns,
rows, and row *order*; the engine scans in row-id order and groups in
first-occurrence order, so exact equality is the contract, not just
set equality).

The second, fully independent oracle is SQLite:
``tests/test_backend_differential.py`` diffs the two backends on reads,
writes and transactions.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from repro.backends import BACKENDS
from repro.db import Database, INSTANT, SYS1
from repro.db.errors import DatabaseError, TypeMismatchError
from repro.db.plan import expr_eval, operators
from repro.db.buffer import BufferPool
from repro.db.plan.planner import prefer_batch_scan
from repro.db.scans import DEFAULT_BATCH_ROWS
from repro.obs.metrics import Histogram
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
#: plus aggregates and GROUP BY.
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
    ("SELECT id, c FROM t WHERE c = ?", 1),
    ("SELECT * FROM t WHERE b > ?", 1),
    ("SELECT a, b FROM t WHERE a >= ?", 1),
    ("SELECT count(*), sum(b), min(b), max(b), avg(b) FROM t WHERE a >= ?", 1),
    ("SELECT count(a) FROM t", 0),
    ("SELECT a, count(*), sum(b) FROM t GROUP BY a", 0),
    ("SELECT a, c, count(*) FROM t WHERE b <> ? GROUP BY a, c", 1),
] + [
    # The fused scan -> filter -> aggregate kernels: count(*) under
    # every compiled comparison (the column on either side), IN,
    # BETWEEN, IS NULL and a fallback conjunct; column and expression
    # aggregates, grouped folds over NULL-bearing columns,
    # the Counter path with a WHERE over a NULL-bearing key, and an
    # empty grouped count.
    ("SELECT count(*) FROM t WHERE a = ?", 1),
    ("SELECT count(*) FROM t WHERE a <> ?", 1),
    ("SELECT count(*) FROM t WHERE b < ?", 1),
    ("SELECT count(*) FROM t WHERE b <= ?", 1),
    ("SELECT count(*) FROM t WHERE b > ?", 1),
    ("SELECT count(*) FROM t WHERE a >= ?", 1),
    ("SELECT count(*) FROM t WHERE ? > a", 1),
    ("SELECT count(*) FROM t WHERE a >= ? AND b IS NOT NULL", 1),
    ("SELECT count(*) FROM t WHERE c IN (?, 'red') AND b NOT BETWEEN ? AND 4", 2),
    ("SELECT count(*) FROM t WHERE a IS NULL OR b = ?", 1),
    ("SELECT count(b), sum(b), count(c) FROM t WHERE a < ?", 1),
    ("SELECT sum(a + b), max(c), min(c) FROM t WHERE b <> ?", 1),
    ("SELECT a, sum(b), min(b), max(b), avg(b) FROM t GROUP BY a", 0),
    ("SELECT c, count(*), count(a) FROM t WHERE b >= ? GROUP BY c", 1),
    ("SELECT b, count(*) FROM t WHERE a <> ? GROUP BY b", 1),
    ("SELECT b AS k, count(*) AS n FROM t WHERE b > 9 GROUP BY b", 0),
]

#: The fused shapes again under a NULL binding: a comparison, an IN
#: item, a BETWEEN bound or a grouped count's filter that is NULL keeps
#: no row (NOT IN with a NULL item keeps none either).  NOT BETWEEN
#: with one NULL bound still keeps the rows outside the other, compiled
#: or evaluated row by row (``b`` is NULL on some rows).
NULL_BOUND = [
    ("SELECT count(*) FROM t WHERE a = ?", (None,)),
    ("SELECT count(*) FROM t WHERE a <> ?", (None,)),
    ("SELECT count(*) FROM t WHERE b >= ?", (None,)),
    ("SELECT count(*) FROM t WHERE b BETWEEN ? AND 3", (None,)),
    ("SELECT count(*) FROM t WHERE a IN (?, 3)", (None,)),
    ("SELECT count(*) FROM t WHERE a NOT IN (?, 3)", (None,)),
    ("SELECT b, count(*) FROM t WHERE a <> ? GROUP BY b", (None,)),
    ("SELECT count(*) FROM t WHERE a NOT BETWEEN 0 AND ?", (None,)),
    ("SELECT count(*) FROM t WHERE NOT (a - 1 BETWEEN a AND b)", ()),
]

params_strategy = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=2, max_size=2
)


def fresh_db(rows, indexed=False):
    db = Database(INSTANT)
    db.create_table(
        "t",
        ("id", "int"),
        ("a", "int"),
        ("b", "int"),
        ("c", "text"),
        rows_per_page=8,
    )
    db.bulk_load("t", rows)
    if indexed:
        db.create_index("ix", "t", "a")
    return db


def multi_batch_db(seed, n, tombstoned, pivot):
    """``n`` rows (ids = row ids) drawn from ``seed`` — several
    ``ColumnBatch``es — with the rows whose ``a`` is ``pivot`` deleted
    in the batches named by ``tombstoned`` only, so dense batches (whose
    selection vectors are ``range``s) and tombstoned ones (lists) meet
    in one scan, one GROUP BY and one demux bucket."""
    rng = random.Random(seed)
    ints = list(range(-9, 10)) + [None]
    words = ["red", "green", "blue", "", None]
    db = fresh_db(
        [(i, rng.choice(ints), rng.choice(ints), rng.choice(words)) for i in range(n)]
    )
    for batch in tombstoned:
        low = batch * DEFAULT_BATCH_ROWS
        db.server.execute(
            "DELETE FROM t WHERE id >= ? AND id < ? AND a = ?",
            (low, low + DEFAULT_BATCH_ROWS, pivot),
        )
    return db


#: 2100–3100 rows span three or four batches; deleting in one or two
#: of the first three always leaves a whole batch dense.
multi_batch_layout = {
    "seed": st.integers(0, 2**16),
    "n": st.integers(2100, 3100),
    "tombstoned": st.sets(st.integers(0, 2), min_size=1, max_size=2),
    "pivot": st.integers(-9, 9),
}


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


def assert_matches_reference(db, sql, params):
    # The memory backend's own blocking execute: the subject is the
    # engine, whichever backend REPRO_BACKEND makes the default.
    got = outcome(lambda: db.server.execute(sql, params))
    expected = outcome(lambda: reference_select(db, sql, params))
    assert got == expected, f"{sql!r} {params}: engine={got} reference={expected}"


def assert_null_bindings(db):
    """``NULL_BOUND`` against the reference and against sqlite, which
    evaluates NULL in SQL itself (the reference shares the engine's
    row evaluator)."""
    lite = db.backend("sqlite")
    for sql, params in NULL_BOUND:
        assert_matches_reference(db, sql, params)
        got = Counter(db.server.execute(sql, params).rows)
        assert got == Counter(lite.execute(sql, params).rows), (sql, params)


class TestSelectDifferential:
    @given(rows=rows_strategy, params=params_strategy)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_heap_table(self, rows, params):
        db = fresh_db(rows)
        try:
            for sql, nparams in QUERIES:
                assert_matches_reference(db, sql, params[:nparams])
            assert_null_bindings(db)
        finally:
            db.close()

    @given(rows=rows_strategy, params=params_strategy)
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_indexed_table(self, rows, params):
        db = fresh_db(rows, indexed=True)
        try:
            for sql, nparams in QUERIES:
                assert_matches_reference(db, sql, params[:nparams])
            assert_null_bindings(db)
        finally:
            db.close()

    @given(rows=rows_strategy, params=params_strategy)
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_two_indexed_columns(self, rows, params):
        # A hash index on ``b`` beside the one on ``a``: a conjunct on
        # either column may take the probe, NULL keys sit in buckets.
        db = fresh_db(rows, indexed=True)
        try:
            db.create_index("bx", "t", "b")
            for sql, nparams in QUERIES:
                assert_matches_reference(db, sql, params[:nparams])
            assert_null_bindings(db)
        finally:
            db.close()

    @given(rows=rows_strategy, pivot=st.integers(-9, 9))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_after_deletes(self, rows, pivot):
        # Tombstones: delete a slice, then scan — live_selection must
        # skip cleared validity bits exactly as iter_rows does.
        db = fresh_db(rows)
        try:
            db.server.execute("DELETE FROM t WHERE a = ?", (pivot,))
            for sql, nparams in QUERIES:
                assert_matches_reference(db, sql, [pivot, pivot][:nparams])
            assert_null_bindings(db)
        finally:
            db.close()

    @given(params=params_strategy, **multi_batch_layout)
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_across_batches(self, params, seed, n, tombstoned, pivot):
        # Batch boundaries and mixed range/list selection vectors: every
        # other layout here fits in one batch.
        db = multi_batch_db(seed, n, tombstoned, pivot)
        try:
            for sql, nparams in QUERIES:
                assert_matches_reference(db, sql, params[:nparams])
            assert_null_bindings(db)
        finally:
            db.close()



def differential_fails(db, params=(2, 5)):
    """Does the statement list, NULL bindings included, tell the engine
    from the reference on ``db``?"""
    try:
        for sql, nparams in QUERIES:
            assert_matches_reference(db, sql, params[:nparams])
        assert_null_bindings(db)
    except AssertionError:
        return True
    return False


class TestFusedKernelMutations:
    """Must-fail mutations: a broken fused kernel, monkeypatched in,
    must make the differential above fail on a fixed multi-batch,
    tombstoned, NULL-bearing layout."""

    @pytest.fixture
    def db(self):
        db = multi_batch_db(seed=5, n=2600, tombstoned={1}, pivot=0)
        yield db
        db.close()

    def test_the_kernels_as_built_agree(self, db):
        assert not differential_fails(db)

    def test_a_fold_that_counts_null_as_matching(self, db, monkeypatch):
        rows_kernel, _ = expr_eval._KERNELS["<>"]
        _, counts_null = expr_eval.kernels("v != c")
        monkeypatch.setitem(expr_eval._KERNELS, "<>", (rows_kernel, counts_null))
        assert differential_fails(db)

    def test_a_counter_that_drops_first_occurrence_order(self, db, monkeypatch):
        class Reordered(Counter):
            def items(self):
                return reversed(list(super().items()))

        monkeypatch.setattr(operators, "Counter", Reordered)
        assert differential_fails(db)

def assert_batch_matches_reference(db, bindings):
    """Every binding's slot of the set-oriented batch path — duplicates,
    NULLs and faults included — is what the reference answers for that
    binding alone."""
    for sql, nparams in QUERIES:
        batch = [binding[:nparams] for binding in bindings]
        outcomes = db.server.execute_prepared_batch(db.server.prepare(sql), batch)
        assert [outcome(lambda: o) for o in outcomes] == [
            outcome(lambda: reference_select(db, sql, binding))
            for binding in batch
        ], sql


class TestBatchDifferential:
    @given(
        rows=rows_strategy,
        bindings=st.lists(st.tuples(values, values), min_size=1, max_size=8),
        indexed=st.booleans(),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_demux_batch_agrees(self, rows, bindings, indexed):
        # Scan-and-bucket demux on a heap table, cost-gated scan-or-probe
        # on an indexed one.
        db = fresh_db(rows, indexed=indexed)
        try:
            assert_batch_matches_reference(db, bindings)
        finally:
            db.close()

    @given(
        bindings=st.lists(st.tuples(values, values), min_size=1, max_size=4),
        **multi_batch_layout,
    )
    @settings(max_examples=4, deadline=None, derandomize=True)
    def test_demux_batch_agrees_across_batches(self, bindings, seed, n, tombstoned, pivot):
        db = multi_batch_db(seed, n, tombstoned, pivot)
        try:
            assert_batch_matches_reference(db, bindings)
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


SCAN_COUNT = "SELECT count(*) FROM users WHERE rating >= ?"
SCAN_GROUP = "SELECT region_id, count(*) FROM users GROUP BY region_id"
SCAN_FILTER = "SELECT user_id, region_id FROM users WHERE rating = ? AND region_id < ?"


def scan_charges():
    """The ``scan_agg`` statements and a demuxed scan-strategy batch on
    ``SYS1`` over three batches (one tombstoned): what the cost model
    charged, and what the statements answered."""
    db = Database(SYS1)
    db.create_table(
        "users", ("user_id", "int"), ("name", "text"), ("rating", "int"), ("region_id", "int")
    )
    db.bulk_load(
        "users", [(i, f"u{i}", i * 7 % 11 - 5, i * 3 % 10) for i in range(2500)]
    )
    with db:
        server = db.server
        server.execute(
            "DELETE FROM users WHERE user_id >= ? AND user_id < ? AND rating = ?",
            (1024, 2048, 0),
        )
        answers = [
            server.execute(SCAN_COUNT, (1,)).rows,
            server.execute(SCAN_GROUP).rows,
            len(server.execute(SCAN_FILTER, (2, 3)).rows),
        ]
        db.flush_cache()
        outcomes = server.execute_prepared_batch(
            server.prepare(SCAN_FILTER), [(r, 5) for r in (-5, 0, 2, 2, 4)]
        )
        answers.append([len(result.rows) for result in outcomes])
        counters = db.metrics.snapshot()["counters"]
        return {
            "answers": answers,
            "totals": db.meter.totals(),
            "counts": db.meter.counts(),
            "buffer": (db.buffer.stats.hits, db.buffer.stats.misses),
            "disk": (
                db.disk.stats.reads,
                db.disk.stats.sequential_reads,
                db.disk.stats.random_reads,
            ),
            "scan": (counters["scan.batches"], counters["scan.rows_scanned"]),
            "selectivity": selectivity(db),
        }


def selectivity(db):
    """``scan.selectivity``'s ``(count, sum, min, max)``."""
    hist = db.metrics.histograms()["scan.selectivity"].snapshot()
    return (hist["count"], hist["sum"], hist["min"], hist["max"])


class TestScanCharges:
    def test_the_cost_model_does_not_move(self):
        """The simulated charges every figure is built on: literals
        taken from the row-at-a-time grouping and bucketing loops and
        the list-only selection vectors the scan kernels replaced.
        Kernels may get faster; what they charge may not change."""
        charged = scan_charges()
        regions = [0, 3, 6, 9, 2, 5, 8, 1, 4, 7]  # first-occurrence order
        assert charged["answers"] == [
            [(1136,)],
            [(region, 240 if region in (0, 3, 6) else 241) for region in regions],
            68,
            [114, 67, 114, 114, 114],
        ]
        assert charged["totals"] == pytest.approx(
            {"cpu": 0.00224696, "disk": 0.012634, "network": 0.0, "queue": 0.0},
            rel=1e-9,
        )
        assert charged["counts"] == {"cpu": 5, "disk": 80, "network": 0, "queue": 0}
        assert charged["buffer"] == (120, 80)
        assert charged["disk"] == (80, 2, 78)
        assert charged["scan"] == (15, 12128)
        assert charged["selectivity"] == pytest.approx(
            (15, 7.583063916829249, 0.0, 1.0), rel=1e-12
        )


PROFILE_SQL = "SELECT name, rating FROM users WHERE user_id = ?"
PROFILE_STAR = "SELECT * FROM users WHERE user_id = ?"


#: The point reads' odd bindings: a tombstoned key, an absent one, NULL
#: and cross-type keys.
ODD_KEYS = (40, 2600, None, "7", 7.0, True)


def point_charges(profile=SYS1, odd_keys=ODD_KEYS):
    """``PROFILE_SQL``-shaped point reads on ``profile`` — hits, misses,
    ``odd_keys`` — and one demuxed probe-strategy batch with duplicate
    bindings: what the cost model charged, and what the statements
    answered."""
    db = Database(profile)
    db.create_table(
        "users", ("user_id", "int"), ("name", "text"), ("rating", "int"), ("region_id", "int")
    )
    db.bulk_load(
        "users", [(i, f"u{i}", i * 7 % 11 - 5, i * 3 % 10) for i in range(2500)]
    )
    db.create_index("users_by_id", "users", "user_id", unique=True)
    with db:
        server = db.server
        server.execute("DELETE FROM users WHERE user_id = ?", (40,))
        keys = [i * 37 % 2600 for i in range(300)]
        answers = [
            sum(len(server.execute(PROFILE_SQL, (key,)).rows) for key in keys),
            [
                server.execute(PROFILE_SQL, (key,)).rows
                for key in odd_keys
            ],
            server.execute(PROFILE_STAR, (11,)).rows,
            server.execute(PROFILE_STAR, (40,)).rows,
        ]
        prepared = server.prepare(PROFILE_SQL)
        batch = [(5,), (9,), (5,), (40,), (2600,), (9,), (5,)]
        info = db.catalog.table("users")
        # Four distinct bindings: the cost gate picks the probe strategy.
        assert not prefer_batch_scan(info, prepared.plan._access, 4, profile)
        outcomes = server.execute_prepared_batch(prepared, batch)
        answers.append([result.rows for result in outcomes])
        counters = db.metrics.snapshot()["counters"]
        return {
            "answers": answers,
            "totals": db.meter.totals(),
            "counts": db.meter.counts(),
            "buffer": (db.buffer.stats.hits, db.buffer.stats.misses),
            "disk": (
                db.disk.stats.reads,
                db.disk.stats.sequential_reads,
                db.disk.stats.random_reads,
            ),
            "heads": (db.disk.stats.total_seek_pages, db.disk.stats.max_queue_depth),
            "scan": (counters["scan.batches"], counters["scan.rows_scanned"]),
            "selectivity": selectivity(db),
        }


class TestPointCharges:
    def test_the_point_probe_charges_what_the_general_path_did(self):
        """Literals taken from the general access-path + filter +
        finalize route the point probe replaced: the probe may be
        faster, its charges may not move."""
        charged = point_charges()
        assert charged["answers"] == [
            289,
            [[], [], [], [], [("u7", 0)], [("u1", 2)]],
            [(11, "u11", -5, 3)],
            [],
            [[("u5", -3)], [("u9", 3)], [("u5", -3)], [], [], [("u9", 3)], [("u5", -3)]],
        ]
        assert charged["totals"] == pytest.approx(
            {"cpu": 0.01250608, "disk": 0.00867, "network": 0.0, "queue": 0.0},
            rel=1e-9,
        )
        assert charged["counts"] == {"cpu": 310, "disk": 50, "network": 0, "queue": 0}
        assert charged["buffer"] == (558, 50)
        assert charged["disk"] == (50, 1, 49)
        assert charged["scan"] == (295, 295)
        assert charged["selectivity"] == (295, 295.0, 1.0, 1.0)


#: A free disk (``INSTANT``) under an eight-page pool: every point read
#: takes the free-disk page accounting, and hits, misses and evictions
#: all occur.
FREE_DISK_SMALL_POOL = replace(INSTANT, buffer_pool_pages=8)
#: ``ODD_KEYS`` less the keys whose index page is ``hash(key)``, which
#: the process's hash seed picks for a str (and, before Python 3.12, for
#: None): under an eight-page pool that page decides later evictions.
SEEDLESS_ODD_KEYS = (40, 2600, 7.0, True)


class TestFreeDiskPointCharges:
    """``point_charges`` where no page read takes time: the one-pass
    page accounting must count, install, evict and move the heads
    exactly as one access per page would.  Literals taken from the
    per-page admit and per-page seek the one-pass accounting replaced."""

    def test_the_free_disk_point_path_charges_what_it_did(self):
        charged = point_charges(FREE_DISK_SMALL_POOL, SEEDLESS_ODD_KEYS)
        assert charged["answers"] == [
            289,
            [[], [], [("u7", 0)], [("u1", 2)]],
            [(11, "u11", -5, 3)],
            [],
            [[("u5", -3)], [("u9", 3)], [("u5", -3)], [], [], [("u9", 3)], [("u5", -3)]],
        ]
        assert charged["totals"] == {"cpu": 0.0, "disk": 0.0, "network": 0.0, "queue": 0.0}
        assert charged["counts"] == {"cpu": 0, "disk": 474, "network": 0, "queue": 0}
        assert charged["buffer"] == (132, 474)
        assert charged["disk"] == (474, 0, 474)
        assert charged["heads"] == (9601, 1)
        assert charged["scan"] == (295, 295)
        assert charged["selectivity"] == (295, 295.0, 1.0, 1.0)

    def test_a_fold_that_drops_a_selectivity_observation_is_caught(self, monkeypatch):
        observe = Histogram.observe
        dropped = []

        def dropping(self, value):
            if not dropped:
                dropped.append(value)
                return
            observe(self, value)

        monkeypatch.setattr(Histogram, "observe", dropping)
        charged = point_charges(FREE_DISK_SMALL_POOL, SEEDLESS_ODD_KEYS)
        assert dropped
        assert charged["selectivity"] != (295, 295.0, 1.0, 1.0)

    def test_an_admit_that_skips_a_miss_is_caught(self, monkeypatch):
        admit = BufferPool._admit
        installed, skipped = [], []

        def skipping(self, keys):
            kept = []
            for key in keys:
                if key not in self._pages:
                    installed.append(key)
                    if len(installed) == 200:  # a miss well into the reads
                        skipped.append(key)
                        continue
                kept.append(key)
            return admit(self, kept)

        monkeypatch.setattr(BufferPool, "_admit", skipping)
        charged = point_charges(FREE_DISK_SMALL_POOL, SEEDLESS_ODD_KEYS)
        assert skipped
        assert (charged["buffer"], charged["disk"], charged["heads"]) != (
            (132, 474), (474, 0, 474), (9601, 1)
        )


KEYED_UPDATE = "UPDATE users SET rating = ? WHERE user_id = ?"
KEYED_BUMP = "UPDATE users SET rating = rating + ?, name = ? WHERE user_id = ?"
KEYED_DELETE = "DELETE FROM users WHERE user_id = ?"


def point_write_charges():
    """Keyed writes on ``SYS1`` — ``KEYED_UPDATE`` over hits, misses, a
    tombstoned row and cross-type keys, an expression UPDATE, point
    DELETEs, an uncoercible binding that matches no row and one that
    does, keyed writes rolled back in a transaction: what the cost model
    charged, the rowcounts, and the rows they left."""
    db = Database(SYS1)
    db.create_table(
        "users", ("user_id", "int"), ("name", "text"), ("rating", "int"), ("region_id", "int")
    )
    db.bulk_load(
        "users", [(i, f"u{i}", i * 7 % 11 - 5, i * 3 % 10) for i in range(2500)]
    )
    db.create_index("users_by_id", "users", "user_id", unique=True)
    with db:
        server = db.server
        server.execute(KEYED_DELETE, (40,))
        keys = [i * 37 % 2600 for i in range(200)]
        answers = [
            sum(server.execute(KEYED_UPDATE, (key % 9, key)).rowcount for key in keys),
            [
                server.execute(KEYED_UPDATE, (7, key)).rowcount
                for key in (40, 2600, None, "7", 7.0, True)
            ],
            server.execute(KEYED_BUMP, (3, "bumped", 11)).rowcount,
            [server.execute(KEYED_DELETE, (key,)).rowcount for key in (12, 12, "13")],
            server.execute(KEYED_UPDATE, ("x", 2600)).rowcount,
            outcome(lambda: server.execute(KEYED_UPDATE, ("x", 14))),
        ]
        txn = server.begin_transaction()
        for key in (15, 16, 17):
            server.execute(KEYED_UPDATE, (99, key), txn)
        server.execute(KEYED_DELETE, (18,), txn)
        server.txns.rollback(txn)
        counters = db.metrics.snapshot()["counters"]
        charged = {
            "totals": db.meter.totals(),
            "counts": db.meter.counts(),
            "buffer": (db.buffer.stats.hits, db.buffer.stats.misses),
            "disk": (
                db.disk.stats.reads,
                db.disk.stats.sequential_reads,
                db.disk.stats.random_reads,
            ),
            "scan": (counters["scan.batches"], counters["scan.rows_scanned"]),
        }
        rows = server.execute("SELECT * FROM users").rows
        answers.append(
            (
                len(rows),
                sum(row[2] for row in rows),
                [row for row in rows if row[0] in (1, 7, 11, 14, 15, 18)],
            )
        )
        charged["answers"] = answers
        return charged


class TestPointWriteCharges:
    def test_a_keyed_write_charges_what_the_general_path_did(self):
        """Literals taken from the general access-path + filter route
        keyed UPDATE and DELETE ran before they shared the point probe:
        the write may be faster, its charges may not move."""
        charged = point_write_charges()
        assert charged["answers"] == [
            194,
            [0, 0, 0, 0, 1, 1],
            1,
            [1, 0, 0],
            0,
            TypeMismatchError,
            (
                2498,
                757,
                [
                    (1, "u1", 7, 3),
                    (7, "u7", 7, 1),
                    (11, "bumped", -2, 3),
                    (14, "u14", 5, 2),
                    (15, "u15", 1, 5),
                    (18, "u18", 0, 4),
                ],
            ),
        ]
        assert charged["totals"] == pytest.approx(
            {"cpu": 0.00871308, "disk": 0.008512, "network": 0.0, "queue": 0.0},
            rel=1e-9,
        )
        assert charged["counts"] == {"cpu": 216, "disk": 49, "network": 0, "queue": 0}
        assert charged["buffer"] == (372, 49)
        assert charged["disk"] == (49, 1, 48)
        assert charged["scan"] == (203, 203)


#: Point lookups on a unique (``id``) and a non-unique (``a``) hash
#: index, ``*`` and column lists, either side of the ``=``.
POINT_QUERIES = [
    "SELECT * FROM t WHERE id = ?",
    "SELECT c, id FROM t WHERE id = ?",
    "SELECT * FROM t WHERE a = ?",
    "SELECT b, a AS x FROM t WHERE ? = a",
]
POINT_BINDINGS = [None, 1.0, True, "1", 0, 1, 2, -3, 9, 77]


def point_db(rows, pivot):
    """``rows`` under row-id keys, hash-indexed on ``id`` (unique) and
    ``a``, with the rows whose ``b`` is ``pivot`` deleted."""
    db = fresh_db([(i,) + row for i, row in enumerate(rows)])
    db.create_index("ux", "t", "id", unique=True)
    db.create_index("ix", "t", "a")
    db.server.execute("DELETE FROM t WHERE b = ?", (pivot,))
    return db


class TestPointProbeDifferential:
    @given(
        rows=st.lists(st.tuples(values, values, texts), max_size=40),
        pivot=st.integers(-9, 9),
        backend=st.sampled_from(["memory", "sqlite"]),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_point_probe_agrees(self, rows, pivot, backend):
        db = point_db(rows, pivot)
        try:
            store = db.backend(backend)
            for sql in POINT_QUERIES:
                assert db.server.prepare(sql).plan.point_probe is not None, sql
                expected = [
                    outcome(lambda: reference_select(db, sql, (key,)))
                    for key in POINT_BINDINGS
                ]
                got = [
                    outcome(lambda: store.execute(sql, (key,)))
                    for key in POINT_BINDINGS
                ]
                assert got == expected, (backend, sql)
                batch = store.execute_prepared_batch(
                    store.prepare(sql), [(key,) for key in POINT_BINDINGS * 2]
                )
                assert [outcome(lambda: o) for o in batch] == expected * 2, (
                    backend,
                    sql,
                )
        finally:
            db.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unhashable_binding_raises(self, backend):
        # One error class on both stores: a list is no value a store
        # binds.
        db = point_db([(1, 2, "red")], pivot=9)
        try:
            store = db.backend(backend)
            for sql in POINT_QUERIES:
                with pytest.raises(DatabaseError) as raised:
                    store.execute(sql, ([1],))
                assert raised.type is TypeMismatchError
        finally:
            db.close()
