"""Property-based tests: random loop programs stay observationally
equivalent under transformation.

The generator builds small while-loop programs over integer variables
(assignments, guarded updates, a query call, list accumulation); each
program is executed in original and transformed form against the same
deterministic fake database and must produce identical outputs.  When
the engine declines to transform (reported blocked), the program must
simply run unchanged — also asserted.

``TestRandomHeaders`` draws the loop header too — a predicate that
binds by walrus, a ``for`` over a range, a ``for ... else`` — and lets
the body pick and call a local callable: the shapes whose absence from
the first generator let a dropped header write, a dropped ``else``
clause and an unrecorded callee read go unnoticed.
"""

from __future__ import annotations

import ast

import pytest
from hypothesis import given, settings, strategies as st

from repro.transform import asyncify_source
from tests.helpers import FakeConnection

VARS = ("a", "b", "c", "d")
KINDS = ("assign", "assign", "query", "consume", "guarded", "append", "aug")

#: header -> (loop line, first body statements, else clause); every one
#: runs the body for k = 1..n.
HEADERS = {
    "while": ("while k < n:", ["k = k + 1"], []),
    "walrus": ("while (k := k + 1) <= n:", [], []),
    "for": ("for k in range(1, n + 1):", [], []),
    "for-else": ("for k in range(1, n + 1):", [], ["out.append(-1)"]),
}


@st.composite
def loop_statements(draw, kinds=KINDS):
    """A list of statement strings; tracks whether a query result
    variable is live so consumption parses and runs in both variants."""
    statements = []
    query_live = False
    count = draw(st.integers(min_value=1, max_value=6))
    for _ in range(count):
        kind = draw(st.sampled_from(kinds))
        target = draw(st.sampled_from(VARS))
        source = draw(st.sampled_from(VARS))
        other = draw(st.sampled_from(VARS))
        constant = draw(st.integers(min_value=1, max_value=9))
        if kind == "assign":
            statements.append(f"{target} = {source} + {constant}")
        elif kind == "query":
            statements.append(f'qr = conn.execute_query("q", [{source} % 31])')
            query_live = True
        elif kind == "consume" and query_live:
            statements.append(f"{target} = qr.scalar() % 13 + {other}")
        elif kind == "guarded":
            statements.append(
                f"if {source} % 2 == 0:\n        {target} = {other} + {constant}"
            )
        elif kind == "append":
            statements.append(f"out.append({target} % 97)")
        elif kind == "aug":
            statements.append(f"{target} += {constant}")
        elif kind == "pick":
            statements.append(f"fn = fns[{source} % 2]")
        elif kind == "call":
            statements.append(f"{target} = fn({other}) % 97")
        else:
            statements.append(f"{target} = {constant}")
    if not query_live:
        position = draw(st.integers(min_value=0, max_value=len(statements)))
        statements.insert(
            position, 'qr = conn.execute_query("q", [a % 31])'
        )
    return statements


def build_program(statements, header="while") -> str:
    loop, first, orelse = HEADERS[header]
    lines = [
        "def program(conn, n):",
        "    a = 1",
        "    b = 2",
        "    c = 3",
        "    d = 5",
        "    out = []",
        "    fns = [lambda v: v + 1, lambda v: v * 2]",
        "    fn = fns[0]",
        "    k = 0",
        f"    {loop}",
        *(f"        {line}" for line in "\n".join(first + statements).split("\n")),
        *(["    else:"] if orelse else []),
        *(f"        {line}" for line in orelse),
        "    return a, b, c, d, k, out",
    ]
    return "\n".join(lines) + "\n"


def run(source: str, conn, n: int):
    namespace: dict = {}
    exec(compile(source, "<prog>", "exec"), namespace)
    return namespace["program"](conn, n)


class TestRandomPrograms:
    @given(statements=loop_statements(), n=st.integers(min_value=0, max_value=12))
    @settings(max_examples=120, deadline=None)
    def test_equivalence(self, statements, n):
        source = build_program(statements)
        result = asyncify_source(source)
        conn_a = FakeConnection()
        conn_b = FakeConnection()
        out_a = run(source, conn_a, n)
        out_b = run(result.source, conn_b, n)
        assert out_a == out_b
        assert conn_a.query_multiset() == conn_b.query_multiset()

    @given(statements=loop_statements(), n=st.integers(min_value=0, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_windowed_equivalence(self, statements, n):
        source = build_program(statements)
        result = asyncify_source(source, window=3)
        out_a = run(source, FakeConnection(), n)
        out_b = run(result.source, FakeConnection(), n)
        assert out_a == out_b

    @given(statements=loop_statements(), n=st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_transform_is_idempotent_on_output(self, statements, n):
        """Transforming the transformed source changes nothing observable
        (submit/fetch calls are not registered blocking calls)."""
        source = build_program(statements)
        once = asyncify_source(source)
        twice = asyncify_source(once.source)
        out_a = run(once.source, FakeConnection(), n)
        out_b = run(twice.source, FakeConnection(), n)
        assert out_a == out_b


class TestRandomHeaders:
    @given(
        statements=loop_statements(kinds=KINDS + ("pick", "call")),
        header=st.sampled_from(sorted(HEADERS)),
        n=st.integers(min_value=0, max_value=8),
        window=st.sampled_from([None, 3]),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_equivalent_or_refused_and_unchanged(self, statements, header, n, window):
        source = build_program(statements, header)
        result = asyncify_source(source, window=window)
        conn_a = FakeConnection()
        conn_b = FakeConnection()
        assert run(source, conn_a, n) == run(result.source, conn_b, n)
        assert conn_a.query_multiset() == conn_b.query_multiset()
        if not result.transformed_loops:
            assert all(
                outcome.status == "blocked" and outcome.reason
                for report in result.reports
                for outcome in report.outcomes
            )
            assert result.source == ast.unparse(ast.parse(source))
