"""Property-based tests: DDG invariants and the reorder postcondition."""

from __future__ import annotations

import ast

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cycles import on_true_cycle
from repro.analysis.ddg import build_ddg, edge_crosses
from repro.ir.purity import PurityEnv
from repro.ir.statements import CONTROL_VAR, StatementFacts, make_block, make_header
from repro.transform.errors import ReorderFailed
from repro.transform.names import NameAllocator
from repro.transform.registry import default_registry
from repro.transform.rule_guards import flatten_block
from repro.transform.rule_reorder import reorder

PURITY = PurityEnv()
REGISTRY = default_registry()
VARS = ("a", "b", "c", "d", "e")


@st.composite
def straight_line_loop(draw):
    """A while-loop over integer assignments with one query call."""
    lines = []
    count = draw(st.integers(min_value=2, max_value=7))
    for _ in range(count):
        target = draw(st.sampled_from(VARS))
        left = draw(st.sampled_from(VARS))
        right = draw(st.sampled_from(VARS))
        form = draw(st.sampled_from(["sum", "copy", "const", "aug"]))
        if form == "sum":
            lines.append(f"{target} = {left} + {right}")
        elif form == "copy":
            lines.append(f"{target} = {left}")
        elif form == "aug":
            lines.append(f"{target} += {left}")
        else:
            lines.append(f"{target} = 7")
    position = draw(st.integers(min_value=0, max_value=len(lines)))
    source = draw(st.sampled_from(VARS))
    lines.insert(position, f'qr = conn.execute_query("q", [{source}])')
    body = "\n    ".join(lines)
    return f"while k < n:\n    k = k + 1\n    {body}"


def analyzed(code):
    loop = ast.parse(code).body[0]
    allocator = NameAllocator.for_source(code)
    header = make_header(loop, PURITY, REGISTRY)
    body = flatten_block(loop.body, StatementFacts(PURITY, REGISTRY), allocator)
    return header, body, allocator


class TestDdgInvariants:
    @given(code=straight_line_loop())
    @settings(max_examples=80, deadline=None)
    def test_edges_consistent_with_defuse(self, code):
        header, body, _alloc = analyzed(code)
        ddg = build_ddg(header, body)
        nodes = [header, *body]
        for edge in ddg.edges:
            src, dst = nodes[edge.src], nodes[edge.dst]
            if edge.external:
                continue
            if edge.kind == "FD":
                assert edge.var in src.writes
                assert edge.var in dst.reads
            elif edge.kind == "AD":
                assert edge.var in src.reads
                assert edge.var in dst.writes
            elif edge.kind == "OD":
                assert edge.var in src.writes
                assert edge.var in dst.writes

    @given(code=straight_line_loop())
    @settings(max_examples=80, deadline=None)
    def test_intra_iteration_edges_point_forward(self, code):
        header, body, _alloc = analyzed(code)
        ddg = build_ddg(header, body)
        for edge in ddg.edges:
            if not edge.loop_carried:
                assert edge.src < edge.dst

    @given(code=straight_line_loop())
    @settings(max_examples=80, deadline=None)
    def test_killed_definitions_do_not_carry(self, code):
        header, body, _alloc = analyzed(code)
        ddg = build_ddg(header, body)
        nodes = [header, *body]
        for edge in ddg.edges:
            if edge.kind == "FD" and edge.loop_carried and not edge.external:
                # no unguarded write of the variable strictly after the
                # source in the same iteration
                for later in nodes[edge.src + 1 :]:
                    assert edge.var not in later.kills
                # and none strictly before the destination
                for earlier in nodes[: edge.dst]:
                    assert edge.var not in earlier.kills


class TestReorderPostcondition:
    @given(code=straight_line_loop())
    @settings(max_examples=80, deadline=None)
    def test_theorem_4_1(self, code):
        """If the query is off every true-dependence cycle, reorder must
        terminate with no crossing LCFD edge (Theorem 4.1(a))."""
        header, body, allocator = analyzed(code)
        query = next(stmt for stmt in body if stmt.is_query)
        ddg = build_ddg(header, body)
        qpos = body.index(query) + 1
        if on_true_cycle(ddg, qpos):
            return  # precondition of the theorem not met
        try:
            new_body, _outcome = reorder(
                header, body, query, PURITY, REGISTRY, allocator
            )
        except ReorderFailed:
            pytest.fail("reorder failed although the query is off all cycles")
        new_ddg = build_ddg(header, new_body)
        new_qpos = new_body.index(query) + 1
        crossing = [
            edge
            for edge in new_ddg.edges
            if edge.kind == "FD"
            and edge.loop_carried
            and not edge.external
            and edge_crosses(edge, new_qpos, new_qpos)
        ]
        assert crossing == []

    @given(code=straight_line_loop())
    @settings(max_examples=60, deadline=None)
    def test_reorder_preserves_statement_multiset_modulo_stubs(self, code):
        header, body, allocator = analyzed(code)
        query = next(stmt for stmt in body if stmt.is_query)
        ddg = build_ddg(header, body)
        if on_true_cycle(ddg, body.index(query) + 1):
            return
        original_ids = {stmt.sid for stmt in body}
        new_body, outcome = reorder(header, body, query, PURITY, REGISTRY, allocator)
        new_ids = {stmt.sid for stmt in new_body}
        # every original statement survives; only stubs are added
        assert original_ids <= new_ids
        assert len(new_ids - original_ids) == len(outcome.reader_stubs) + len(
            outcome.writer_stubs
        )
