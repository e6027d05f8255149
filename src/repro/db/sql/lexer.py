"""Tokenizer for the SQL subset."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List

from ..errors import SqlSyntaxError

#: Reserved words.  ``order``, ``asc``, ``desc``, ``limit`` and
#: ``distinct`` start no clause of the grammar; reserved, they make text
#: that uses them a syntax error rather than an alias or a column.
KEYWORDS = {
    "select", "from", "where", "and", "or", "not", "order", "by", "asc",
    "desc", "limit", "insert", "into", "values", "update", "set", "delete",
    "as", "is", "null", "in", "between", "distinct", "count", "sum", "min",
    "max", "avg", "group", "true", "false",
}


class TokenType(Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    PARAM = "param"
    OP = "op"
    COMMA = ","
    LPAREN = "("
    RPAREN = ")"
    STAR = "*"
    DOT = "."
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word


_OPERATOR_STARTS = "<>=!+-/%"
_TWO_CHAR_OPS = {"<=", ">=", "<>", "!="}


def tokenize(sql: str) -> List[Token]:
    """Tokenize ``sql``; raises :class:`SqlSyntaxError` with position."""
    return list(_tokens(sql))


def _tokens(sql: str) -> Iterator[Token]:
    index = 0
    length = len(sql)
    while index < length:
        ch = sql[index]
        if ch.isspace():
            index += 1
            continue
        if ch == "-" and sql.startswith("--", index):
            newline = sql.find("\n", index)
            index = length if newline < 0 else newline + 1
            continue
        if ch == "?":
            yield Token(TokenType.PARAM, "?", index)
            index += 1
            continue
        if ch == ",":
            yield Token(TokenType.COMMA, ",", index)
            index += 1
            continue
        if ch == "(":
            yield Token(TokenType.LPAREN, "(", index)
            index += 1
            continue
        if ch == ")":
            yield Token(TokenType.RPAREN, ")", index)
            index += 1
            continue
        if ch == "*":
            yield Token(TokenType.STAR, "*", index)
            index += 1
            continue
        if ch == "'":
            end = index + 1
            chunks = []
            while True:
                if end >= length:
                    raise SqlSyntaxError("unterminated string literal", index)
                if sql[end] == "'":
                    if end + 1 < length and sql[end + 1] == "'":
                        chunks.append("'")
                        end += 2
                        continue
                    break
                chunks.append(sql[end])
                end += 1
            yield Token(TokenType.STRING, "".join(chunks), index)
            index = end + 1
            continue
        if ch.isdigit() or (
            ch == "." and index + 1 < length and sql[index + 1].isdigit()
        ):
            end = index
            seen_dot = False
            while end < length and (sql[end].isdigit() or (sql[end] == "." and not seen_dot)):
                if sql[end] == ".":
                    seen_dot = True
                end += 1
            yield Token(TokenType.NUMBER, sql[index:end], index)
            index = end
            continue
        if ch.isalpha() or ch == "_":
            end = index
            while end < length and (sql[end].isalnum() or sql[end] == "_"):
                end += 1
            word = sql[index:end]
            lowered = word.lower()
            if lowered in KEYWORDS:
                yield Token(TokenType.KEYWORD, lowered, index)
            else:
                yield Token(TokenType.IDENT, word, index)
            index = end
            continue
        if ch in _OPERATOR_STARTS:
            two = sql[index : index + 2]
            if two in _TWO_CHAR_OPS:
                yield Token(TokenType.OP, "<>" if two == "!=" else two, index)
                index += 2
                continue
            if ch == "!":
                raise SqlSyntaxError(f"unexpected character {ch!r}", index)
            yield Token(TokenType.OP, ch, index)
            index += 1
            continue
        if ch == ".":
            yield Token(TokenType.DOT, ".", index)
            index += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", index)
    yield Token(TokenType.EOF, "", length)
