"""Unit tests: the SQL parser."""

import pytest

from repro.db.errors import SqlSyntaxError
from repro.db.sql import parse
from repro.db.sql.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    DeleteStmt,
    InList,
    InsertStmt,
    IsNull,
    LogicalOp,
    NotOp,
    Param,
    SelectStmt,
    Star,
    UpdateStmt,
    is_write,
)


class TestSelect:
    def test_select_star(self):
        stmt = parse("SELECT * FROM part")
        assert isinstance(stmt, SelectStmt)
        assert stmt.table == "part"
        assert isinstance(stmt.items[0].expr, Star)

    def test_columns_and_aliases(self):
        stmt = parse("SELECT a AS x, b y, c FROM t")
        assert [item.alias for item in stmt.items] == ["x", "y", None]
        assert isinstance(stmt.items[2].expr, ColumnRef)

    def test_where_equality_param(self):
        stmt = parse("SELECT a FROM t WHERE b = ?")
        assert isinstance(stmt.where, BinaryOp)
        assert stmt.where.op == "="
        assert isinstance(stmt.where.right, Param)
        assert stmt.param_count == 1

    def test_param_numbering_left_to_right(self):
        stmt = parse("SELECT a FROM t WHERE b = ? AND c = ? AND d = ?")
        params = []

        def collect(expr):
            if isinstance(expr, Param):
                params.append(expr.index)
            elif isinstance(expr, (BinaryOp, LogicalOp)):
                collect(expr.left)
                collect(expr.right)

        collect(stmt.where)
        assert params == [0, 1, 2]
        assert stmt.param_count == 3

    def test_and_or_precedence(self):
        stmt = parse("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3")
        assert isinstance(stmt.where, LogicalOp)
        assert stmt.where.op == "or"
        assert isinstance(stmt.where.right, LogicalOp)
        assert stmt.where.right.op == "and"

    def test_not(self):
        stmt = parse("SELECT a FROM t WHERE NOT x = 1")
        assert isinstance(stmt.where, NotOp)

    def test_group_by(self):
        stmt = parse("SELECT a, count(*) FROM t WHERE b = ? GROUP BY a")
        assert stmt.group_by == ("a",)
        assert stmt.is_aggregate
        assert stmt.param_count == 1

    def test_group_by_several_keys(self):
        stmt = parse("SELECT a, b, sum(c) FROM t GROUP BY a, b")
        assert stmt.group_by == ("a", "b")

    def test_group_by_needs_a_column(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a FROM t GROUP BY")

    def test_aggregates(self):
        stmt = parse("SELECT count(*), sum(a), min(b), max(b), avg(a) FROM t")
        funcs = [item.expr.func for item in stmt.items]
        assert funcs == ["count", "sum", "min", "max", "avg"]
        assert stmt.is_aggregate

    def test_sum_star_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT sum(*) FROM t")

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t ORDER BY a",
            "SELECT a FROM t LIMIT 5",
            "SELECT DISTINCT a FROM t",
            "SELECT count(DISTINCT a) FROM t",
            "SELECT a limit FROM t",
            "SELECT a AS desc FROM t",
            "SELECT order FROM t",
        ],
    )
    def test_left_out_clauses_and_their_words_are_refused(self, sql):
        # ORDER BY, LIMIT and DISTINCT are not in the subset; their
        # words stay reserved, so none reads as an alias or a column.
        with pytest.raises(SqlSyntaxError):
            parse(sql)

    def test_between_and_in(self):
        stmt = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2)")
        left = stmt.where.left
        right = stmt.where.right
        assert isinstance(left, Between)
        assert isinstance(right, InList)

    def test_not_in(self):
        stmt = parse("SELECT a FROM t WHERE b NOT IN (1, 2)")
        assert isinstance(stmt.where, InList)
        assert stmt.where.negated

    def test_is_null(self):
        stmt = parse("SELECT a FROM t WHERE b IS NOT NULL")
        assert isinstance(stmt.where, IsNull)
        assert stmt.where.negated

    def test_arithmetic_precedence(self):
        stmt = parse("SELECT a FROM t WHERE x = 1 + 2 * 3")
        comparison = stmt.where
        assert comparison.right.op == "+"
        assert comparison.right.right.op == "*"

    def test_negative_literal(self):
        stmt = parse("SELECT a FROM t WHERE x = -5")
        assert stmt.where.right.value == -5

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a FROM t garbage garbage")

    def test_missing_from(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a WHERE b = 1")


class TestDml:
    def test_insert_with_columns(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (?, 'x')")
        assert isinstance(stmt, InsertStmt)
        assert stmt.columns == ("a", "b")
        assert stmt.param_count == 1
        assert is_write(stmt)

    def test_insert_without_columns(self):
        stmt = parse("INSERT INTO t VALUES (1, 2, 3)")
        assert stmt.columns == ()
        assert len(stmt.values) == 3

    def test_update(self):
        stmt = parse("UPDATE t SET a = a + 1, b = ? WHERE c = 2")
        assert isinstance(stmt, UpdateStmt)
        assert stmt.assignments[0][0] == "a"
        assert stmt.param_count == 1

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE a = 1")
        assert isinstance(stmt, DeleteStmt)

    def test_delete_all(self):
        assert parse("DELETE FROM t").where is None


class TestDdl:
    @pytest.mark.parametrize(
        "sql",
        [
            "CREATE TABLE t (a int NOT NULL, b text)",
            "CREATE TABLE IF NOT EXISTS t (a int)",
            "CREATE INDEX i ON t (a)",
            "CREATE UNIQUE INDEX i ON t (a)",
        ],
    )
    def test_create_is_not_a_statement(self, sql):
        """Schema changes go through ``Database.create_table`` /
        ``create_index`` only: no text makes a table or an index."""
        with pytest.raises(SqlSyntaxError, match="expected a statement"):
            parse(sql)

    def test_select_is_not_write(self):
        assert not is_write(parse("SELECT 1 FROM t"))
