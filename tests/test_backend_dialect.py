"""Unit tests: the AST -> SQLite dialect translation (satellite of the
pluggable-backend PR; see docs/BACKENDS.md).

Two layers of round-trip coverage:

* every statement shape the parser test-suite exercises
  (tests/test_db_sql_parser.py) translates to text that SQLite itself
  accepts and executes;
* WHERE predicates agree row-for-row with the engine's expression
  evaluator (``repro.db.plan.expr_eval.RowEvaluator``) over a table
  containing NULLs — including NULL-in-IN three-valued logic and the
  ``/`` (true division) and ``%`` (floored modulo) emulations.
"""

import sqlite3

import pytest

from repro.backends import BACKENDS
from repro.backends.dialect import (
    bind,
    create_index_sql,
    create_table_sql,
    iter_column_refs,
    quote_ident,
    translate_expr,
    translate_statement,
)
from repro.db import Database, INSTANT
from repro.db.plan.expr_eval import RowEvaluator
from repro.db.sql import parse
from repro.db.types import schema_of

SCHEMA = schema_of(("a", "int"), ("b", "int"), ("c", "text"))

ROWS = [
    (1, 1, "x"),
    (2, 2, "y"),
    (3, None, "x"),
    (None, 4, None),
    (5, -3, ""),
    (-5, 0, "z"),
    (7, 1, "x"),
    (1, None, None),
]


def sqlite_with_rows():
    connection = sqlite3.connect(":memory:")
    connection.execute(create_table_sql("t", SCHEMA))
    connection.execute(create_table_sql("part", SCHEMA))
    connection.executemany("INSERT INTO t VALUES (?, ?, ?)", ROWS)
    return connection


# Every parseable SELECT / UPDATE / DELETE from
# tests/test_db_sql_parser.py, verbatim (an INSERT is not translated:
# the sqlite store inserts the plan's row with ``insert_full_row_sql``).
PARSER_QUERY_FIXTURES = [
    "SELECT * FROM part",
    "SELECT a AS x, b y, c FROM t",
    "SELECT a FROM t WHERE b = ?",
    "SELECT a FROM t WHERE b = ? AND c = ? AND d = ?",
    "SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3",
    "SELECT a FROM t WHERE NOT x = 1",
    "SELECT a, count(*) FROM t WHERE b = ? GROUP BY a",
    "SELECT a, b, sum(c) FROM t GROUP BY a, b",
    "SELECT count(*), sum(a), min(b), max(b), avg(a) FROM t",
    "SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2)",
    "SELECT a FROM t WHERE b NOT IN (1, 2)",
    "SELECT a FROM t WHERE b IS NOT NULL",
    "SELECT a FROM t WHERE x = 1 + 2 * 3",
    "SELECT a FROM t WHERE x = -5",
    "SELECT 1 FROM t",
    "UPDATE t SET a = a + 1, b = ? WHERE c = 2",
    "DELETE FROM t WHERE a = 1",
    "DELETE FROM t",
]

class TestParserFixturesRoundTrip:
    @pytest.mark.parametrize("sql", PARSER_QUERY_FIXTURES)
    def test_sqlite_executes_translation(self, sql):
        stmt = parse(sql)
        translated = translate_statement(stmt)
        connection = sqlite_with_rows()
        try:
            # Unreferenced columns (d, x, y, z) degrade to string
            # literals inside SQLite — syntactically valid, which is
            # all this layer asserts (the backend itself rejects them
            # before translation; see TestColumnRefWalker).
            bound = bind(tuple(range(stmt.param_count)))
            connection.execute(translated, bound)
        finally:
            connection.close()

    def test_unique_index_stays_unique(self):
        assert create_index_sql("i", "t", "a", unique=True).startswith(
            "CREATE UNIQUE INDEX"
        )

    @pytest.mark.parametrize("column", ["ordered", "clustered"])
    def test_former_keywords_are_plain_column_names(self, column):
        # Neither word is a keyword: a column so named is created,
        # loaded, indexed, written and read back alike on both stores.
        db = Database(INSTANT)
        try:
            db.create_table("o", ("id", "int"), (column, "text"))
            db.backend("sqlite")
            db.bulk_load("o", [(1, "a"), (2, "b")])
            db.create_index(f"o_{column}", "o", column)
            for name in BACKENDS:
                with db.connect(async_workers=1, backend=name) as conn:
                    conn.execute_update(f"INSERT INTO o ({column}, id) VALUES ('c', 3)")
                    assert conn.execute_query(
                        f"SELECT {column}, id FROM o WHERE {column} = ?", ("c",)
                    ).rows == [("c", 3)], name
                    assert sorted(
                        conn.execute_query(f"SELECT {column} FROM o").rows
                    ) == [("a",), ("b",), ("c",)], name
        finally:
            db.close()


# WHERE predicates checked value-for-value against the engine
# evaluator.  (sql fragment, params) pairs; each becomes
# ``SELECT a, b, c FROM t WHERE <fragment>``.
PREDICATES = [
    ("b = ?", (1,)),
    ("b <> 1", ()),
    ("b != 1", ()),
    ("a < b", ()),
    ("a >= 2", ()),
    ("a BETWEEN 1 AND 5", ()),
    ("a NOT BETWEEN ? AND ?", (0, 3)),
    ("b IN (1, 2)", ()),
    ("b IN (1, NULL)", ()),  # NULL-in-IN: matches only b = 1
    ("b NOT IN (1, NULL)", ()),  # never true under 3VL
    ("b NOT IN (1, 2)", ()),
    ("a IN (b, 5)", ()),
    ("b IS NULL", ()),
    ("b IS NOT NULL", ()),
    ("NOT a = 1", ()),
    ("a = 1 OR b = 2 AND c = 'y'", ()),
    ("a + b > 3", ()),
    ("a - b = 0", ()),
    ("a * b = 2", ()),
    ("a / 2 = 0", ()),  # engine / is true division: 1 / 2 = 0.5
    ("a / 2 >= 2.5", ()),
    ("a % 3 = 1", ()),  # engine % is floored (Python) modulo
    ("a % ? = -5 % ?", (3, 3)),
    ("a % 0 IS NULL", ()),  # divide-by-zero yields NULL, not an error
    ("c = 'x'", ()),
    ("c = ''", ()),
]


class TestPredicateEquivalence:
    @pytest.mark.parametrize("fragment,params", PREDICATES)
    def test_sqlite_rows_match_expr_eval(self, fragment, params):
        stmt = parse(f"SELECT a, b, c FROM t WHERE {fragment}")
        evaluator = RowEvaluator(SCHEMA, "t", params)
        expected = sorted(
            (row for row in ROWS if evaluator.evaluate(stmt.where, row)),
            key=repr,
        )
        connection = sqlite_with_rows()
        try:
            got = connection.execute(
                translate_statement(stmt), bind(params)
            ).fetchall()
        finally:
            connection.close()
        assert sorted((tuple(row) for row in got), key=repr) == expected, (
            fragment
        )


class TestParams:
    def test_named_placeholders(self):
        stmt = parse("SELECT a FROM t WHERE b = ? AND c = ?")
        text = translate_statement(stmt)
        assert ":p0" in text and ":p1" in text
        assert bind((7, "x")) == {"p0": 7, "p1": "x"}

    def test_named_repeats_param_for_modulo(self):
        # The floored-modulo emulation mentions the divisor three
        # times; a named parameter binds it once.
        stmt = parse("SELECT a FROM t WHERE a % ? = 1")
        text = translate_statement(stmt)
        assert text.count(":p0") >= 3
        connection = sqlite_with_rows()
        try:
            connection.execute(text, bind((3,))).fetchall()
        finally:
            connection.close()


class TestColumnRefWalker:
    def test_walks_every_node_type(self):
        stmt = parse(
            "SELECT a, sum(b), count(*) FROM t WHERE NOT (a + b) * 2 = 1 "
            "AND c IN ('x', 'y') AND b BETWEEN a AND 9 AND c IS NULL"
        )
        names = set()
        for item in stmt.items:
            names.update(iter_column_refs(item.expr))
        names.update(iter_column_refs(stmt.where))
        assert names == {"a", "b", "c"}

    def test_literals_and_params_yield_nothing(self):
        stmt = parse("SELECT 1 FROM t WHERE 2 = ?")
        assert list(iter_column_refs(stmt.where)) == []

    def test_quote_ident_doubles_quotes(self):
        assert quote_ident('we"ird') == '"we""ird"'

    def test_translate_expr_emulates_true_division(self):
        stmt = parse("SELECT a FROM t WHERE a / 2 = 1")
        assert "CAST" in translate_expr(stmt.where)
