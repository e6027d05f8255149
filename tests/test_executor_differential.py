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

import os
import random
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path

import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from repro.backends import BACKENDS
from repro.db import Database, INSTANT, SYS1
from repro.db.errors import DatabaseError, TypeMismatchError
from repro.db import storage
from repro.db.plan import demux, expr_eval, operators
from repro.db.buffer import BufferPool
from repro.db.plan.planner import prefer_batch_scan
from repro.db.scans import ColumnBatch
from repro.db.storage import DEFAULT_BATCH_ROWS, DICTIONARY_CAP, HeapTable
from repro.obs.metrics import Histogram
from tests.helpers import drawn, reference_select

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
    charged, and what the statements answered.  ``after_writes`` holds
    the same, counted from the start, after one more pass that follows
    a keyed UPDATE in every batch (the first row of each, whose rating
    and region move)."""
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
        charged = scan_pass(db)
        for batch in range(3):
            server.execute(
                "UPDATE users SET rating = ?, region_id = ? WHERE user_id = ?",
                (3, 7, batch * DEFAULT_BATCH_ROWS),
            )
        charged["after_writes"] = scan_pass(db)
        return charged


def scan_pass(db):
    """Run the ``scan_agg`` statements and a demuxed scan-strategy batch
    once; the answers and every charge so far."""
    server = db.server
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

    def test_the_cost_model_does_not_move_after_writes(self):
        """The same pass after a keyed UPDATE in every batch, counted
        from the start: literals taken from the per-row kernels that the
        column dictionaries (kept across the writes) answer for now."""
        charged = scan_charges()["after_writes"]
        # Batch 0's first row moved to region 7.
        regions = [7, 3, 6, 9, 2, 5, 8, 1, 4, 0]
        sizes = {7: 244, 0: 239, 2: 240, 4: 240, 3: 240, 6: 240}
        assert charged["answers"] == [
            [(1138,)],
            [(region, sizes.get(region, 241)) for region in regions],
            67,
            [113, 67, 113, 113, 114],
        ]
        assert charged["totals"] == pytest.approx(
            {"cpu": 0.00512928, "disk": 0.01921, "network": 0.0, "queue": 0.0},
            rel=1e-9,
        )
        assert charged["counts"] == {"cpu": 12, "disk": 120, "network": 0, "queue": 0}
        assert charged["buffer"] == (360, 120)
        assert charged["disk"] == (120, 2, 118)
        assert charged["scan"] == (36, 28977)
        assert charged["selectivity"] == pytest.approx(
            (36, 15.081685424919561, 0.0, 1.0), rel=1e-12
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
#: ``ODD_KEYS`` less the str and None keys, whose index page followed
#: the process's hash seed when these literals were taken (under an
#: eight-page pool that page decides later evictions);
#: ``test_text_and_null_keys_charge_alike_under_every_hash_seed`` holds
#: the whole ``ODD_KEYS`` to one answer now.
SEEDLESS_ODD_KEYS = (40, 2600, 7.0, True)

#: Prints ``point_charges`` on the free disk and eight-page pool, with
#: every ``ODD_KEYS`` binding.
SEEDED_CHARGES = """
from tests.test_executor_differential import FREE_DISK_SMALL_POOL, point_charges
charged = point_charges(FREE_DISK_SMALL_POOL)
print(sorted((key, repr(value)) for key, value in charged.items()))
"""


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

    def test_text_and_null_keys_charge_alike_under_every_hash_seed(self):
        # A str key's index page must not follow PYTHONHASHSEED (nor a
        # NULL key's, the address of None before Python 3.12).
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "src"), str(root)])
        printed = {
            subprocess.run(
                [sys.executable, "-c", SEEDED_CHARGES],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                cwd=root,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("1", "2", "3")
        }
        assert len(printed) == 1, printed

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


# ----------------------------------------------------------------------
# scans between writes: the heap's column dictionaries
# ----------------------------------------------------------------------

TAGS = ["red", "green", "blue", ""]
NAMES = [f"n{i}" for i in range(3000)]


def dictionary_db(seed, n):
    """``w``: ``n`` rows (ids = row ids, hash-indexed) over several
    batches.  ``lo`` and ``tag`` hold a few values per batch, ``mid``
    two under the dictionary cap (a write can push a batch over it),
    ``hi`` and ``name`` hundreds; each holds NULLs."""
    rng = random.Random(seed)

    def pick(choices):
        return None if rng.random() < 0.05 else rng.choice(choices)

    db = Database(INSTANT)
    db.create_table(
        "w",
        ("id", "int"),
        ("lo", "int"),
        ("mid", "int"),
        ("hi", "int"),
        ("tag", "text"),
        ("name", "text"),
    )
    db.bulk_load(
        "w",
        [
            (
                i,
                pick(range(-4, 5)),
                pick(range(DICTIONARY_CAP - 2)),
                pick(range(5000)),
                pick(TAGS),
                pick(NAMES),
            )
            for i in range(n)
        ],
    )
    db.create_index("w_id", "w", "id", unique=True)
    return db


def check_dictionaries(heap):
    """Every column dictionary ``heap`` caches equals a fresh build from
    the batch's live rows: the keys (each the object its first row
    holds), their order, the row lists (compact arrays) and the marks of
    columns not encoded (more than the cap's distinct values)."""
    columns = heap.columns_view()
    for batch, cached in heap._dictionaries.items():
        start = batch * DEFAULT_BATCH_ROWS
        stop = min(start + DEFAULT_BATCH_ROWS, heap.slot_count)
        live = [rid for rid in range(start, stop) if heap.fetch(rid) is not None]
        for position, encoded in cached.items():
            fresh = {}
            for rid in live:
                fresh.setdefault(columns[position][rid], []).append(rid)
            where = (batch, position)
            if len(fresh) > DICTIONARY_CAP:
                assert encoded is None, where
                continue
            assert encoded is not None, where
            assert all(type(rows) is array for rows in encoded.values()), where
            assert [(id(key), list(rows)) for key, rows in encoded.items()] == [
                (id(key), rows) for key, rows in fresh.items()
            ], where


#: Values of each column's class, mostly ones it holds.
COLUMN_VALUES = {
    "lo": st.one_of(st.integers(-5, 5), st.none()),
    "mid": st.one_of(st.integers(-1, DICTIONARY_CAP + 3), st.none()),
    "hi": st.one_of(st.integers(-5, 5005), st.none()),
    "tag": st.one_of(st.sampled_from(TAGS + ["o"]), st.none()),
    "name": st.one_of(st.sampled_from(["n1", "n150", "n2999", "o", ""]), st.none()),
}
any_value = st.one_of(*COLUMN_VALUES.values())
#: A written INT: one ``lo`` or ``mid`` holds, or one past the cap's
#: worth of ``mid`` values.
numbers = st.one_of(
    COLUMN_VALUES["lo"],
    COLUMN_VALUES["mid"],
    st.integers(DICTIONARY_CAP - 2, DICTIONARY_CAP + 3),
)
#: Every compiled test, as a scan's first conjunct.
FIRST_CONJUNCTS = [
    ("{c} = ?", 1),
    ("{c} <> ?", 1),
    ("{c} < ?", 1),
    ("? >= {c}", 1),
    ("{c} > ?", 1),
    ("{c} >= ?", 1),
    ("{c} IN (?, ?)", 2),
    ("{c} NOT IN (?, ?)", 2),
    ("{c} BETWEEN ? AND ?", 2),
    ("{c} NOT BETWEEN ? AND ?", 2),
    ("{c} IS NULL", 0),
    ("{c} IS NOT NULL", 0),
]
#: What a scan does with its first conjunct's rows: counts them (the
#: row lists' lengths), projects them (one list, or several merged),
#: narrows them by a second conjunct (the column its ``?`` reads
#: values of), groups or folds them.
SCAN_FORMS = [
    ("SELECT count(*) FROM w WHERE {w}", None),
    ("SELECT id, {c} FROM w WHERE {w}", None),
    ("SELECT count(*) FROM w WHERE {w} AND lo <> ?", "lo"),
    ("SELECT id, hi FROM w WHERE {w} AND mid < ?", "mid"),
    ("SELECT {c}, count(*) FROM w WHERE {w} GROUP BY {c}", None),
    ("SELECT sum(hi), max(name), count(tag) FROM w WHERE {w}", None),
]
#: The ``scan_agg`` shapes over ``w``.
SCAN_AGG_SHAPES = [
    ("SELECT count(*) FROM w WHERE lo >= ?", ("lo",)),
    ("SELECT id, mid FROM w WHERE lo = ? AND mid < ?", ("lo", "mid")),
] + [(f"SELECT {c}, count(*) FROM w GROUP BY {c}", ()) for c in COLUMN_VALUES]
#: A demuxed statement: the scan strategy buckets on ``lo``.
BATCH_SQL = "SELECT id, tag FROM w WHERE lo = ? AND mid < ?"
#: Keyed UPDATEs: one column of few values and one of many each.
KEYED_UPDATES = [
    "UPDATE w SET lo = ?, name = ? WHERE id = ?",
    "UPDATE w SET mid = ?, tag = ? WHERE id = ?",
]
INSERT_SQL = "INSERT INTO w VALUES (?, ?, ?, ?, ?, ?)"


@st.composite
def scans(draw):
    column = draw(st.sampled_from(sorted(COLUMN_VALUES)))
    test, operands = draw(st.sampled_from(FIRST_CONJUNCTS))
    form, second = draw(st.sampled_from(SCAN_FORMS))
    # Mostly values of the column's class; now and then any value.
    operand = st.one_of(*[COLUMN_VALUES[column]] * 3, any_value)
    params = [draw(operand) for _ in range(operands)]
    if second is not None:
        params.append(draw(COLUMN_VALUES[second]))
    sql = form.format(c=column, w=test.format(c=column))
    return ("scan", sql, tuple(params))


@st.composite
def scan_agg_shapes(draw):
    sql, operands = draw(st.sampled_from(SCAN_AGG_SHAPES))
    return ("scan", sql, tuple(draw(COLUMN_VALUES[c]) for c in operands))


#: A row id near the start of a batch (where its keys' first rows sit),
#: or any.
row_ids = st.one_of(
    st.builds(
        lambda batch, offset: batch * DEFAULT_BATCH_ROWS + offset,
        st.integers(0, 3),
        st.integers(0, 40),
    ),
    st.integers(0, 3200),
)
keyed_updates = st.tuples(
    st.just("update"),
    st.sampled_from([0, 1]),
    row_ids,
    numbers,
    st.one_of(COLUMN_VALUES["tag"], COLUMN_VALUES["name"]),
)
inserts = st.tuples(
    st.just("insert"),
    COLUMN_VALUES["lo"],
    numbers,
    COLUMN_VALUES["hi"],
    COLUMN_VALUES["tag"],
    COLUMN_VALUES["name"],
)
deletes = st.tuples(st.just("delete"), row_ids)
writes = st.one_of(keyed_updates, inserts, deletes)
steps_strategy = st.lists(
    st.one_of(
        scans(),
        scan_agg_shapes(),
        writes,
        st.tuples(st.just("rollback"), st.lists(writes, min_size=1, max_size=4)),
        st.tuples(
            st.just("batch"),
            st.lists(
                st.tuples(COLUMN_VALUES["lo"], COLUMN_VALUES["mid"]),
                min_size=1,
                max_size=4,
            ),
        ),
    ),
    min_size=8,
    max_size=24,
)


def write(execute, step, ids):
    """Run one write step through ``execute``; an insert takes the next
    id of ``ids``."""
    kind = step[0]
    if kind == "update":
        _, form, key, number, text = step
        execute(KEYED_UPDATES[form], (number, text, key))
    elif kind == "insert":
        execute(INSERT_SQL, (next(ids),) + step[1:])
    else:
        execute("DELETE FROM w WHERE id = ?", (step[1],))


def run_steps(db, steps, check=True):
    """Run ``steps`` in order, each scan (singly, or per binding of a
    demuxed batch) against the reference; after every step, when
    ``check``, every cached dictionary against a fresh build."""
    heap = db.catalog.table("w").heap
    ids = iter(range(heap.slot_count, 10**6))
    for step in steps:
        kind = step[0]
        if kind == "scan":
            assert_matches_reference(db, step[1], step[2])
        elif kind == "batch":
            outcomes = db.server.execute_prepared_batch(
                db.server.prepare(BATCH_SQL), step[1]
            )
            assert [outcome(lambda: o) for o in outcomes] == [
                outcome(lambda: reference_select(db, BATCH_SQL, binding))
                for binding in step[1]
            ], step
        elif kind == "rollback":
            with db.connect(async_workers=1, backend="memory") as conn:
                conn.begin()
                for change in step[1]:
                    write(conn.execute_update, change, ids)
                conn.rollback()
        else:
            write(db.server.execute, step, ids)
        if check:
            check_dictionaries(heap)


def must_fail_script(db):
    """Encode every column of every batch, then move the first row of
    batch 0 (its ``lo`` key's first row), insert a row into the last
    batch, delete and restore a row in a rolled-back transaction and
    demux a batch — scanning after each."""
    heap = db.catalog.table("w").heap
    lo = heap.columns_view()[1]
    moved = 4 if lo[0] != 4 else -4
    restored = lo[5] if lo[5] is not None else 0
    encode = [("scan", sql, ()) for sql, operands in SCAN_AGG_SHAPES if not operands]
    return encode + [
        ("update", 0, 0, moved, "n7"),
        ("scan", "SELECT lo, count(*) FROM w GROUP BY lo", ()),
        ("scan", "SELECT id FROM w WHERE lo = ?", (moved,)),
        ("insert", 3, 7, 11, "red", "n5"),
        ("scan", "SELECT id FROM w WHERE lo = ?", (3,)),
        ("rollback", [("delete", 5), ("update", 1, 1030, 2, None)]),
        ("scan", "SELECT id FROM w WHERE lo = ?", (restored,)),
        ("batch", [(0, 60), (1, 90), (0, 60), (-2, 120)]),
    ]


def without_upkeep(monkeypatch, mutator):
    """``HeapTable.<mutator>`` with its dictionary upkeep skipped."""
    original = getattr(HeapTable, mutator)
    recode = HeapTable._recode

    def skipping(self, *args):
        HeapTable._recode = lambda *_: None
        try:
            return original(self, *args)
        finally:
            HeapTable._recode = recode

    monkeypatch.setattr(HeapTable, mutator, skipping)


class TestScansBetweenWrites:
    """A scan reads a batch's column dictionaries (first conjunct, a
    count, a single-key ``count(*)`` GROUP BY); keyed UPDATEs, INSERTs,
    DELETEs and rolled-back transactions keep them exact.  Every scan
    must answer as the reference does, row and group order included."""

    @drawn(10)
    @given(
        steps=steps_strategy,
        seed=st.integers(0, 2**16),
        n=st.integers(2100, 3100),
    )
    def test_scans_between_writes_match_the_reference(self, steps, seed, n):
        db = dictionary_db(seed, n)
        try:
            run_steps(db, steps)
        finally:
            db.close()

    @pytest.fixture
    def db(self):
        db = dictionary_db(seed=7, n=2600)
        yield db
        db.close()

    def test_the_script_as_built_passes(self, db):
        run_steps(db, must_fail_script(db))

    @pytest.mark.parametrize("mutator", ["update", "restore", "insert"])
    def test_a_write_that_skips_its_upkeep_is_caught(self, db, monkeypatch, mutator):
        # update: the row id stays in its old value's list; restore
        # (rollback of a delete): it is not put back; insert: nothing
        # is appended.
        without_upkeep(monkeypatch, mutator)
        with pytest.raises(AssertionError):
            run_steps(db, must_fail_script(db))

    def test_a_group_by_over_a_stale_key_order_is_caught(self, db, monkeypatch):
        monkeypatch.setattr(storage, "_first_row_order", lambda groups, column: groups)
        with pytest.raises(AssertionError):
            run_steps(db, must_fail_script(db), check=False)

    def test_a_where_that_reads_a_dictionary_for_demux_candidates_is_caught(
        self, db, monkeypatch
    ):
        monkeypatch.setattr(demux, "ColumnBatch", lambda sel: ColumnBatch(sel, 0))
        with pytest.raises(AssertionError):
            run_steps(db, must_fail_script(db), check=False)
