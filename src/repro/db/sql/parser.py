"""Recursive-descent parser for the SQL subset.

Grammar (informal)::

    statement   := select | insert | update | delete
    select      := SELECT [DISTINCT] items FROM ident [WHERE expr]
                   [ORDER BY order_items] [LIMIT term]
    items       := * | item ("," item)*
    item        := expr [AS ident]
    insert      := INSERT INTO ident ["(" idents ")"] VALUES "(" exprs ")"
    update      := UPDATE ident SET assigns [WHERE expr]
    delete      := DELETE FROM ident [WHERE expr]

    expr        := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | predicate
    predicate   := sum (comparison sum | IS [NOT] NULL
                   | [NOT] IN "(" exprs ")" | [NOT] BETWEEN sum AND sum)?
    sum         := product (("+"|"-") product)*
    product     := atom (("*"|"/"|"%") atom)*
    atom        := literal | "?" | ident | agg "(" [DISTINCT] (expr|*) ")"
                 | "(" expr ")" | "-" atom

Parameters are numbered left to right in source order.  There is no
DDL: a schema changes only through ``Database.create_table`` /
``create_index``, which update every store at once.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import SqlSyntaxError
from .ast_nodes import (
    Aggregate,
    Between,
    BinaryOp,
    ColumnRef,
    DeleteStmt,
    Expr,
    InList,
    InsertStmt,
    IsNull,
    Literal,
    LogicalOp,
    NotOp,
    OrderItem,
    Param,
    SelectItem,
    SelectStmt,
    Star,
    Statement,
    UpdateStmt,
)
from .lexer import Token, TokenType, tokenize

_AGG_FUNCS = {"count", "sum", "min", "max", "avg"}
_COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}


def parse(sql: str) -> Statement:
    """Parse one SQL statement; trailing garbage is an error."""
    parser = _Parser(tokenize(sql), sql)
    statement = parser.statement()
    parser.expect_eof()
    return statement


class _Parser:
    def __init__(self, tokens: List[Token], sql: str) -> None:
        self._tokens = tokens
        self._sql = sql
        self._pos = 0
        self._param_counter = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> SqlSyntaxError:
        token = self._peek()
        return SqlSyntaxError(
            f"{message} (near {token.value!r} at {token.position})",
            token.position,
        )

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise self._error(f"expected {word.upper()}")

    def _accept(self, token_type: TokenType) -> Optional[Token]:
        if self._peek().type is token_type:
            return self._advance()
        return None

    def _expect(self, token_type: TokenType) -> Token:
        token = self._accept(token_type)
        if token is None:
            raise self._error(f"expected {token_type.value}")
        return token

    def _ident(self) -> str:
        token = self._peek()
        # Allow non-reserved keywords (e.g. a column named "count") as
        # identifiers when they can't start an expression keyword here.
        if token.type is TokenType.IDENT:
            self._advance()
            return token.value
        raise self._error("expected identifier")

    def expect_eof(self) -> None:
        if self._peek().type is not TokenType.EOF:
            raise self._error("unexpected trailing input")

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def statement(self) -> Statement:
        token = self._peek()
        if token.is_keyword("select"):
            return self._select()
        if token.is_keyword("insert"):
            return self._insert()
        if token.is_keyword("update"):
            return self._update()
        if token.is_keyword("delete"):
            return self._delete()
        raise self._error("expected a statement")

    def _select(self) -> SelectStmt:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        items = self._select_items()
        self._expect_keyword("from")
        table = self._ident()
        where = None
        if self._accept_keyword("where"):
            where = self.expression()
        group_by: Tuple[str, ...] = ()
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            names = [self._ident()]
            while self._accept(TokenType.COMMA):
                names.append(self._ident())
            group_by = tuple(names)
        order_by: Tuple[OrderItem, ...] = ()
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by = self._order_items()
        limit = None
        if self._accept_keyword("limit"):
            limit = self._atom()
        return SelectStmt(
            items=items,
            table=table,
            where=where,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
            param_count=self._param_counter,
        )

    def _select_items(self) -> Tuple[SelectItem, ...]:
        if self._accept(TokenType.STAR):
            return (SelectItem(Star()),)
        items = [self._select_item()]
        while self._accept(TokenType.COMMA):
            items.append(self._select_item())
        return tuple(items)

    def _select_item(self) -> SelectItem:
        expr = self.expression()
        alias = None
        if self._accept_keyword("as"):
            alias = self._ident()
        elif self._peek().type is TokenType.IDENT:
            alias = self._ident()
        return SelectItem(expr, alias)

    def _order_items(self) -> Tuple[OrderItem, ...]:
        items = [self._order_item()]
        while self._accept(TokenType.COMMA):
            items.append(self._order_item())
        return tuple(items)

    def _order_item(self) -> OrderItem:
        column = self._ident()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return OrderItem(column, descending)

    def _insert(self) -> InsertStmt:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._ident()
        columns: Tuple[str, ...] = ()
        if self._accept(TokenType.LPAREN):
            names = [self._ident()]
            while self._accept(TokenType.COMMA):
                names.append(self._ident())
            self._expect(TokenType.RPAREN)
            columns = tuple(names)
        self._expect_keyword("values")
        self._expect(TokenType.LPAREN)
        values = [self.expression()]
        while self._accept(TokenType.COMMA):
            values.append(self.expression())
        self._expect(TokenType.RPAREN)
        return InsertStmt(
            table=table,
            columns=columns,
            values=tuple(values),
            param_count=self._param_counter,
        )

    def _update(self) -> UpdateStmt:
        self._expect_keyword("update")
        table = self._ident()
        self._expect_keyword("set")
        assignments = [self._assignment()]
        while self._accept(TokenType.COMMA):
            assignments.append(self._assignment())
        where = None
        if self._accept_keyword("where"):
            where = self.expression()
        return UpdateStmt(
            table=table,
            assignments=tuple(assignments),
            where=where,
            param_count=self._param_counter,
        )

    def _assignment(self) -> Tuple[str, Expr]:
        column = self._ident()
        token = self._peek()
        if token.type is not TokenType.OP or token.value != "=":
            raise self._error("expected '=' in assignment")
        self._advance()
        return column, self.expression()

    def _delete(self) -> DeleteStmt:
        self._expect_keyword("delete")
        self._expect_keyword("from")
        table = self._ident()
        where = None
        if self._accept_keyword("where"):
            where = self.expression()
        return DeleteStmt(table=table, where=where, param_count=self._param_counter)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def expression(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self._accept_keyword("or"):
            left = LogicalOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while self._accept_keyword("and"):
            left = LogicalOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> Expr:
        if self._accept_keyword("not"):
            return NotOp(self._not_expr())
        return self._predicate()

    def _predicate(self) -> Expr:
        left = self._sum()
        token = self._peek()
        if token.type is TokenType.OP and token.value in _COMPARISONS:
            op = self._advance().value
            return BinaryOp(op, left, self._sum())
        if token.is_keyword("is"):
            self._advance()
            negated = self._accept_keyword("not")
            self._expect_keyword("null")
            return IsNull(left, negated)
        negated = False
        if token.is_keyword("not"):
            # lookahead for NOT IN / NOT BETWEEN
            following = self._tokens[self._pos + 1]
            if following.is_keyword("in") or following.is_keyword("between"):
                self._advance()
                negated = True
                token = self._peek()
        if token.is_keyword("in"):
            self._advance()
            self._expect(TokenType.LPAREN)
            items = [self.expression()]
            while self._accept(TokenType.COMMA):
                items.append(self.expression())
            self._expect(TokenType.RPAREN)
            return InList(left, tuple(items), negated)
        if token.is_keyword("between"):
            self._advance()
            low = self._sum()
            self._expect_keyword("and")
            high = self._sum()
            return Between(left, low, high, negated)
        return left

    def _sum(self) -> Expr:
        left = self._product()
        while True:
            token = self._peek()
            if token.type is TokenType.OP and token.value in ("+", "-"):
                op = self._advance().value
                left = BinaryOp(op, left, self._product())
            else:
                return left

    def _product(self) -> Expr:
        left = self._atom()
        while True:
            token = self._peek()
            if token.type is TokenType.STAR:
                self._advance()
                left = BinaryOp("*", left, self._atom())
            elif token.type is TokenType.OP and token.value in ("/", "%"):
                op = self._advance().value
                left = BinaryOp(op, left, self._atom())
            else:
                return left

    def _atom(self) -> Expr:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            return Literal(float(text) if "." in text else int(text))
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)
        if token.type is TokenType.PARAM:
            self._advance()
            param = Param(self._param_counter)
            self._param_counter += 1
            return param
        if token.is_keyword("null"):
            self._advance()
            return Literal(None)
        if token.is_keyword("true"):
            self._advance()
            return Literal(True)
        if token.is_keyword("false"):
            self._advance()
            return Literal(False)
        if token.type is TokenType.KEYWORD and token.value in _AGG_FUNCS:
            return self._aggregate()
        if token.type is TokenType.LPAREN:
            self._advance()
            inner = self.expression()
            self._expect(TokenType.RPAREN)
            return inner
        if token.type is TokenType.OP and token.value == "-":
            self._advance()
            operand = self._atom()
            if isinstance(operand, Literal) and isinstance(
                operand.value, (int, float)
            ):
                return Literal(-operand.value)
            return BinaryOp("-", Literal(0), operand)
        if token.type is TokenType.IDENT:
            self._advance()
            return ColumnRef(token.value)
        raise self._error("expected an expression")

    def _aggregate(self) -> Expr:
        func = self._advance().value
        self._expect(TokenType.LPAREN)
        distinct = self._accept_keyword("distinct")
        if self._accept(TokenType.STAR):
            argument: Expr = Star()
        else:
            argument = self.expression()
        self._expect(TokenType.RPAREN)
        if func == "count" and isinstance(argument, Star) and distinct:
            raise self._error("COUNT(DISTINCT *) is not supported")
        if func != "count" and isinstance(argument, Star):
            raise self._error(f"{func.upper()}(*) is not supported")
        return Aggregate(func, argument, distinct)
