"""Unit tests: Rule A — preconditions, split variables, generated shape."""

import ast

import pytest

from repro.analysis.ddg import build_ddg
from repro.ir.purity import PurityEnv
from repro.ir.statements import StatementFacts, make_block, make_header
from repro.transform.errors import LoopNotTransformable
from repro.transform.names import NameAllocator
from repro.transform.registry import default_registry
from repro.transform.rule_fission import (
    ROLE_ATTR,
    ROLE_FETCH,
    ROLE_SUBMIT,
    ROLE_TABLE,
    check_preconditions,
    fission,
    split_variables,
)
from repro.transform.rule_guards import flatten_block

PURITY = PurityEnv()
REGISTRY = default_registry()


def prepare(code, registry=None):
    registry = registry or REGISTRY
    tree = ast.parse(code)
    loop = tree.body[0]
    allocator = NameAllocator.for_tree(tree)
    header = make_header(loop, PURITY, registry)
    body = flatten_block(loop.body, StatementFacts(PURITY, registry), allocator)
    return loop, header, body, allocator


EXAMPLE_2 = """
while len(worklist) > 0:
    item = worklist.pop()
    r = conn.execute_query(q, [item])
    total += r
"""


class TestPreconditions:
    def test_example_2_passes(self):
        _loop, header, body, _alloc = prepare(EXAMPLE_2)
        ddg = build_ddg(header, body)
        assert check_preconditions(ddg, 2, 2) is None

    def test_crossing_lcfd_fails(self):
        _loop, header, body, _alloc = prepare(
            """
while c is not None:
    r = conn.execute_query(q, [c])
    total += r
    c = parent(c)
"""
        )
        ddg = build_ddg(header, body)
        violation = check_preconditions(ddg, 1, 1)
        assert violation is not None
        assert "flow dependence" in violation

    def test_plain_update_fails(self):
        _loop, header, body, _alloc = prepare(
            """
while n > 0:
    conn.execute_update(u, [n])
    n = n - 1
"""
        )
        ddg = build_ddg(header, body)
        violation = check_preconditions(ddg, 1, 1)
        assert violation is not None
        assert "external" in violation

    def test_commuting_update_passes(self):
        registry = default_registry().with_effect("execute_update", "commuting_write")
        _loop, header, body, _alloc = prepare(
            """
while n > 0:
    conn.execute_update(u, [n])
    n = n - 1
""",
            registry=registry,
        )
        ddg = build_ddg(header, body)
        # the n decrement still crosses (LCFD) — but not externally
        violation = check_preconditions(ddg, 1, 1)
        assert violation is not None and "'n'" in violation

    def test_query_feeding_blocking_reader_fails(self):
        """An async read racing a blocking writer across iterations."""
        _loop, header, body, _alloc = prepare(
            """
while n > 0:
    r = conn.execute_query(q, [n])
    conn.execute_update(u, [n])
    n = n - 1
"""
        )
        ddg = build_ddg(header, body)
        violation = check_preconditions(ddg, 1, 1)
        assert violation is not None
        assert "external" in violation


class TestSplitVariables:
    def split_vars(self, code, qindex):
        _loop, header, body, _alloc = prepare(code)
        ddg = build_ddg(header, body)
        return split_variables(ddg, header, body, qindex, body[qindex])

    def test_loop_var_spilled_when_consumed(self):
        names = self.split_vars(
            """
for x in items:
    r = conn.execute_query(q, [x])
    out.append((x, r))
""",
            0,
        )
        assert "x" in names

    def test_ss1_value_spilled(self):
        names = self.split_vars(
            """
for x in items:
    y = f(x)
    r = conn.execute_query(q, [x])
    out.append((y, r))
""",
            1,
        )
        assert "y" in names

    def test_unconsumed_ss1_value_not_spilled(self):
        names = self.split_vars(
            """
for x in items:
    y = f(x)
    r = conn.execute_query(q, [y])
    out.append(r)
""",
            1,
        )
        assert "y" not in names

    def test_fetch_side_accumulator_not_spilled(self):
        names = self.split_vars(EXAMPLE_2, 1)
        assert "total" not in names

    def test_outer_constant_not_spilled(self):
        names = self.split_vars(
            """
for x in items:
    r = conn.execute_query(q, [x])
    out.append((scale, r))
""",
            0,
        )
        assert "scale" not in names


class TestGeneratedShape:
    def run_fission(self, code, qindex, registry=None):
        loop, header, body, allocator = prepare(code, registry)
        return fission(
            loop, header, body, qindex, body[qindex], PURITY,
            registry or REGISTRY, allocator,
        )

    def test_three_nodes_with_roles(self):
        result = self.run_fission(EXAMPLE_2, 1)
        assert len(result.nodes) == 3
        assert getattr(result.nodes[0], ROLE_ATTR) == ROLE_TABLE
        assert getattr(result.submit_loop, ROLE_ATTR) == ROLE_SUBMIT
        assert getattr(result.fetch_loop, ROLE_ATTR) == ROLE_FETCH

    def test_submit_loop_keeps_original_header(self):
        result = self.run_fission(EXAMPLE_2, 1)
        assert isinstance(result.submit_loop, ast.While)
        assert "worklist" in ast.unparse(result.submit_loop.test)

    def test_fetch_loop_iterates_records(self):
        result = self.run_fission(EXAMPLE_2, 1)
        assert isinstance(result.fetch_loop, ast.For)
        assert ast.unparse(result.fetch_loop.iter) == result.table_var

    def test_distinct_record_vars(self):
        result = self.run_fission(EXAMPLE_2, 1)
        assert result.record_var != result.fetch_record_var

    def test_submit_call_uses_registry_pair(self):
        result = self.run_fission(EXAMPLE_2, 1)
        submit_text = ast.unparse(result.submit_loop)
        fetch_text = ast.unparse(result.fetch_loop)
        assert "submit_query" in submit_text
        assert "execute_query" not in submit_text
        assert "fetch_result" in fetch_text

    def test_guarded_query_conditional_submit_and_fetch(self):
        code = """
for i in items:
    v = f(i)
    if v == 0:
        v = conn.execute_query(q, [i])
    out.append(v)
"""
        result = self.run_fission(code, 2)  # guard assign, v=f, query...
        submit_text = ast.unparse(result.submit_loop)
        fetch_text = ast.unparse(result.fetch_loop)
        assert "if " in submit_text
        assert "'__handle' in" in fetch_text

    def test_bare_update_fetch_discards_value(self):
        registry = default_registry().with_effect("execute_update", "commuting_write")
        code = """
for i in items:
    conn.execute_update(u, [i])
"""
        result = self.run_fission(code, 0, registry=registry)
        fetch_text = ast.unparse(result.fetch_loop)
        assert "fetch_result" in fetch_text
        assert "=" not in fetch_text.splitlines()[-1].replace("==", "")

    def test_restores_are_conditional(self):
        code = """
for x in items:
    y = f(x)
    r = conn.execute_query(q, [x])
    out.append((x, y, r))
"""
        result = self.run_fission(code, 1)
        fetch_text = ast.unparse(result.fetch_loop)
        assert f"'x' in {result.fetch_record_var}" in fetch_text
        assert f"'y' in {result.fetch_record_var}" in fetch_text


class TestRefusals:
    def test_mutated_split_variable_refused(self):
        code = """
for x in items:
    acc.append(x)
    r = conn.execute_query(q, [x])
    out.append((acc, r))
"""
        loop, header, body, allocator = prepare(code)
        with pytest.raises(LoopNotTransformable):
            fission(loop, header, body, 1, body[1], PURITY, REGISTRY, allocator)

    def test_rebound_container_allowed(self):
        """Example 5's nested-table pattern: fresh rebind before mutation."""
        code = """
for x in items:
    acc = []
    acc.append(x)
    r = conn.execute_query(q, [x])
    out.append((acc, r))
"""
        loop, header, body, allocator = prepare(code)
        result = fission(loop, header, body, 2, body[2], PURITY, REGISTRY, allocator)
        assert "acc" in result.split_vars

    def test_receiver_written_in_loop_refused(self):
        code = """
for x in items:
    conn = reconnect(conn)
    r = conn.execute_query(q, [x])
    out.append(r)
"""
        loop, header, body, allocator = prepare(code)
        with pytest.raises(LoopNotTransformable):
            fission(loop, header, body, 1, body[1], PURITY, REGISTRY, allocator)

    def test_precondition_rechecked(self):
        loop, header, body, allocator = prepare(
            """
while c is not None:
    r = conn.execute_query(q, [c])
    c = parent(c)
"""
        )
        with pytest.raises(LoopNotTransformable):
            fission(loop, header, body, 0, body[0], PURITY, REGISTRY, allocator)
