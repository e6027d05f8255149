"""SQL subset front end: lexer, AST and parser.

The grammar covers what the paper's five workloads and the TPC-H-like
category/part schema need: single-table SELECT with aggregates, WHERE
conjunctions/disjunctions, ORDER BY, LIMIT, and the DML statements
INSERT, UPDATE and DELETE, all with ``?`` positional parameters.  There
is no DDL: tables and indexes are made by ``Database.create_table`` /
``create_index``, the one path that changes every store's schema.
"""

from .ast_nodes import (
    Aggregate,
    BinaryOp,
    ColumnRef,
    DeleteStmt,
    InsertStmt,
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
from .parser import parse

__all__ = [
    "Aggregate",
    "BinaryOp",
    "ColumnRef",
    "DeleteStmt",
    "InsertStmt",
    "Literal",
    "LogicalOp",
    "NotOp",
    "OrderItem",
    "Param",
    "SelectItem",
    "SelectStmt",
    "Star",
    "Statement",
    "UpdateStmt",
    "Token",
    "TokenType",
    "tokenize",
    "parse",
]
