"""Property-based tests: the SQL engine against a Python oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Database, INSTANT

values = st.one_of(st.integers(min_value=-50, max_value=50), st.none())
rows_strategy = st.lists(
    st.tuples(st.integers(0, 500), values, values), min_size=0, max_size=60
)


def fresh_db(rows, clustered=False, indexed=False):
    db = Database(INSTANT)
    db.create_table(
        "t", ("id", "int"), ("x", "int"), ("y", "int"),
        rows_per_page=8,
        clustered_on="x" if clustered else None,
    )
    db.bulk_load("t", rows)
    if indexed:
        db.create_index("ix", "t", "x")
        db.create_index("ox", "t", "y", ordered=True)
    return db


class TestFilterOracle:
    @given(rows=rows_strategy, pivot=st.integers(-50, 50))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_equality_filter(self, rows, pivot):
        db = fresh_db(rows)
        try:
            got = db.server.execute("SELECT id FROM t WHERE x = ?", (pivot,))
            expected = sorted(r[0] for r in rows if r[1] == pivot)
            assert sorted(got.column("id")) == expected
        finally:
            db.close()

    @given(rows=rows_strategy, low=st.integers(-50, 50), high=st.integers(-50, 50))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_range_filter(self, rows, low, high):
        db = fresh_db(rows)
        try:
            got = db.server.execute(
                "SELECT id FROM t WHERE y BETWEEN ? AND ?", (low, high)
            )
            expected = sorted(
                r[0] for r in rows if r[2] is not None and low <= r[2] <= high
            )
            assert sorted(got.column("id")) == expected
        finally:
            db.close()

    @given(rows=rows_strategy, pivot=st.integers(-50, 50))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_disjunction(self, rows, pivot):
        db = fresh_db(rows)
        try:
            got = db.server.execute(
                "SELECT id FROM t WHERE x = ? OR y IS NULL", (pivot,)
            )
            expected = sorted(
                r[0] for r in rows if r[1] == pivot or r[2] is None
            )
            assert sorted(got.column("id")) == expected
        finally:
            db.close()


class TestIndexTransparency:
    @given(rows=rows_strategy, pivot=st.integers(-50, 50))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_hash_index_equivalent(self, rows, pivot):
        plain = fresh_db(rows)
        indexed = fresh_db(rows, indexed=True)
        try:
            sql = "SELECT id FROM t WHERE x = ?"
            assert sorted(plain.server.execute(sql, (pivot,)).column("id")) == sorted(
                indexed.server.execute(sql, (pivot,)).column("id")
            )
        finally:
            plain.close()
            indexed.close()

    @given(rows=rows_strategy, pivot=st.integers(-50, 50))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_clustered_equivalent(self, rows, pivot):
        plain = fresh_db(rows)
        clustered = fresh_db(rows, clustered=True)
        try:
            sql = "SELECT count(*) FROM t WHERE x = ?"
            assert plain.server.execute(sql, (pivot,)).scalar() == (
                clustered.server.execute(sql, (pivot,)).scalar()
            )
        finally:
            plain.close()
            clustered.close()


class TestAggregateOracle:
    @given(rows=rows_strategy)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_aggregates_match_python(self, rows):
        db = fresh_db(rows)
        try:
            got = db.server.execute(
                "SELECT count(*), count(y), sum(y), min(y), max(y) FROM t"
            ).rows[0]
            ys = [r[2] for r in rows if r[2] is not None]
            expected = (
                len(rows),
                len(ys),
                sum(ys) if ys else None,
                min(ys) if ys else None,
                max(ys) if ys else None,
            )
            assert got == expected
        finally:
            db.close()

    @given(rows=rows_strategy, limit=st.integers(0, 10))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_order_limit_match_python(self, rows, limit):
        db = fresh_db(rows)
        try:
            got = db.server.execute(
                "SELECT id FROM t WHERE y IS NOT NULL ORDER BY y, id LIMIT ?",
                (limit,),
            ).column("id")
            expected = [
                r[0]
                for r in sorted(
                    (r for r in rows if r[2] is not None),
                    key=lambda r: (r[2], r[0]),
                )
            ][:limit]
            assert got == expected
        finally:
            db.close()


class TestDmlOracle:
    @given(
        rows=rows_strategy,
        delta=st.integers(-5, 5),
        pivot=st.integers(-50, 50),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_update_then_read(self, rows, delta, pivot):
        db = fresh_db(rows)
        try:
            db.server.execute("UPDATE t SET y = y + ? WHERE x = ?", (delta, pivot))
            got = db.server.execute("SELECT id, y FROM t").rows
            expected = [
                (
                    r[0],
                    (r[2] + delta)
                    if (r[1] == pivot and r[2] is not None)
                    else r[2],
                )
                for r in rows
            ]
            none_last = lambda pair: (pair[0], pair[1] is None, pair[1] or 0)
            assert sorted(got, key=none_last) == sorted(expected, key=none_last)
        finally:
            db.close()

    @given(rows=rows_strategy, pivot=st.integers(-50, 50))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_delete_then_count(self, rows, pivot):
        db = fresh_db(rows, indexed=True)
        try:
            deleted = db.server.execute("DELETE FROM t WHERE x = ?", (pivot,)).rowcount
            expected_deleted = sum(1 for r in rows if r[1] == pivot)
            assert deleted == expected_deleted
            remaining = db.server.execute("SELECT count(*) FROM t").scalar()
            assert remaining == len(rows) - expected_deleted
            # the index agrees
            assert db.server.execute(
                "SELECT count(*) FROM t WHERE x = ?", (pivot,)
            ).scalar() == 0
        finally:
            db.close()
