"""Unit tests: the statement reordering algorithm (paper Section IV).

Covers the paper's Examples 8, 9 and 10 structurally (which statements
move, which stubs appear) and the failure modes (external dependences,
unrenamable writes).
"""

import ast
import time

import pytest

from repro.analysis.ddg import build_ddg, edge_crosses
from repro.ir.purity import PurityEnv
from repro.ir.statements import make_block, make_header
from repro.transform import asyncify_source
from repro.transform.errors import ReorderFailed
from repro.transform.names import NameAllocator
from repro.transform.registry import default_registry
from repro.transform.rule_guards import flatten_block
from repro.transform.rule_reorder import reorder
from tests.helpers import FakeConnection
from tests.test_prop_transform import build_program, run

PURITY = PurityEnv()
REGISTRY = default_registry()


def reorder_loop(code, purity=None):
    purity = purity or PURITY
    tree = ast.parse(code)
    loop = tree.body[0]
    allocator = NameAllocator.for_tree(tree)
    header = make_header(loop, purity, REGISTRY)
    body = flatten_block(loop.body, purity, REGISTRY, allocator)
    queries = [stmt for stmt in body if stmt.is_query]
    new_body, outcome = reorder(header, body, queries[0], purity, REGISTRY, allocator)
    return header, new_body, queries[0], outcome


def no_crossing(header, body, query):
    ddg = build_ddg(header, body)
    qpos = body.index(query) + 1
    return not any(
        edge.kind == "FD" and edge.loop_carried and not edge.external
        and edge_crosses(edge, qpos, qpos)
        for edge in ddg.edges
    )


class TestExample8:
    CODE = """
while category is not None:
    icount = conn.execute_query(q, [category])
    total = total + icount
    category = get_parent(category)
"""

    def test_reorder_succeeds(self):
        header, body, query, outcome = reorder_loop(self.CODE)
        assert outcome.changed
        assert no_crossing(header, body, query)

    def test_reader_stub_for_category(self):
        _header, body, _query, outcome = reorder_loop(self.CODE)
        assert any("category" in stub for stub in outcome.reader_stubs)
        text = [ast.unparse(stmt.node) for stmt in body]
        # a snapshot of category exists and the parent update now
        # precedes the query
        assert any("= category" in line and line.split(" = ")[0] != "category"
                   for line in text)

    def test_query_moved_after_update(self):
        _header, body, query, _outcome = reorder_loop(self.CODE)
        positions = {ast.unparse(stmt.node): index for index, stmt in enumerate(body)}
        update_pos = next(
            index for text, index in positions.items() if "get_parent" in text
        )
        assert body.index(query) > update_pos


class TestExample9:
    CODE = """
while len(stack) > 0:
    current = stack.pop()
    catitems = conn.execute_query(q, [current])
    total = total + catitems
    stack.extend(block(current))
"""

    def test_reorder_moves_stack_ops_before_query(self):
        header, body, query, outcome = reorder_loop(self.CODE)
        assert no_crossing(header, body, query)
        qindex = body.index(query)
        extend_index = next(
            index
            for index, stmt in enumerate(body)
            if "extend" in ast.unparse(stmt.node)
        )
        assert extend_index < qindex

    def test_consumer_stays_after_query(self):
        _header, body, query, _outcome = reorder_loop(self.CODE)
        qindex = body.index(query)
        total_index = next(
            index
            for index, stmt in enumerate(body)
            if ast.unparse(stmt.node).startswith("total =")
        )
        assert total_index > qindex


class TestExample10:
    CODE = """
while k < n:
    k = k + 1
    cv1 = pred1(c)
    cv2 = pred2(c)
    cv3 = pred3(c)
    if cv1:
        a = conn.execute_query(q, [b])
    if cv2:
        a, c = f(x)
    d = g(a, b)
    if cv3:
        a, b = h(c)
"""

    def test_reorder_succeeds_with_stubs(self):
        header, body, query, outcome = reorder_loop(self.CODE)
        assert no_crossing(header, body, query)
        # The paper's transformation introduces both reader stubs
        # (b snapshots) and writer stubs (a renames).
        assert outcome.reader_stubs, "expected reader stubs for b"
        assert outcome.writer_stubs, "expected writer stubs for a"

    def test_b_reader_stub_feeds_query(self):
        _header, body, query, _outcome = reorder_loop(self.CODE)
        query_text = ast.unparse(query.node)
        # the query no longer reads plain ``b``
        args = query_text.split("execute_query")[1]
        assert "[b]" not in args

    def test_guarded_writer_stubs_keep_guards(self):
        _header, body, _query, _outcome = reorder_loop(self.CODE)
        stubs = [
            stmt
            for stmt in body
            if stmt.guards
            and isinstance(stmt.node, ast.Assign)
            and isinstance(stmt.node.value, ast.Name)
            and isinstance(stmt.node.targets[0], ast.Name)
            and stmt.node.targets[0].id == "a"
        ]
        assert stubs, "writer stubs restoring 'a' must carry their guards"


class TestNoReorderNeeded:
    def test_untouched_when_preconditions_hold(self):
        header, body, query, outcome = reorder_loop(
            """
while work:
    item = work.pop()
    r = conn.execute_query(q, [item])
    out.append(r)
"""
        )
        assert not outcome.changed
        assert no_crossing(header, body, query)


class TestFailureModes:
    def test_external_dependence_blocks(self):
        # ``persist`` is registered as writing the 'db' resource: the
        # read query cannot be reordered across it.
        purity = PurityEnv()
        purity.register_function("persist", writes_resources=["db"])
        code = """
while n > 0:
    r = conn.execute_query(q, [n])
    persist(r)
    n = helper(n, r)
"""
        with pytest.raises(ReorderFailed):
            reorder_loop(code, purity=purity)

    def test_unrenamable_write_blocks(self):
        # Moving the query past the subscript write needs an AD shift on
        # `arr`, but subscript writes cannot be renamed.
        code = """
while n > 0:
    v = conn.execute_query(q, [arr])
    arr[0] = v2
    n = advance(n, arr)
"""
        with pytest.raises(ReorderFailed):
            reorder_loop(code)

    def test_io_dependence_blocks_reorder(self):
        code = """
while n > 0:
    print(n)
    r = conn.execute_query(q, [n])
    print(r)
    n = advance2(n, r)
"""
        with pytest.raises(ReorderFailed):
            reorder_loop(code)


    def test_gives_up_when_the_stub_would_recreate_the_dependence(self):
        """``b = qr.scalar() + a`` follows the query wherever it goes and
        writes ``b`` too, so moving the query past the crossing write
        ``b = c + 8`` leaves a stub ``b = b_1`` behind it that crosses
        in turn — one stub longer every round.  It used to take the
        whole round budget (seconds, rebuilding the DDG of a growing
        body) to say so."""
        code = """
while n > 0:
    qr = conn.execute_query(q, [b])
    a = fn(b)
    b = qr.scalar() + a
    b = c + 8
    out.append(b)
"""
        started = time.perf_counter()
        with pytest.raises(ReorderFailed, match="recreates the crossing"):
            reorder_loop(code)
        assert time.perf_counter() - started < 0.2
        started = time.perf_counter()
        result = asyncify_source(
            "def program(conn, q, b, c, n, out):\n"
            + "".join(f"    {line}\n" for line in code.strip().splitlines())
        )
        assert time.perf_counter() - started < 0.2
        assert [o.reason for r in result.reports for o in r.outcomes] == [
            "reorder-failed"
        ]
        assert "b_1" not in result.source  # emitted unchanged


class TestRenameLeak:
    def test_dropped_stub_leaves_no_renamed_read(self):
        # Found by test_prop_transform (only when hypothesis happens on
        # it): the first query is emitted reading ``a_1``, a Rule C2/C3
        # rename whose defining stub was dropped — NameError for n >= 1.
        source = build_program(
            [
                'qr = conn.execute_query("q", [a % 31])',
                "if a % 2 == 0:\n        b = a + 1",
                "a = a + 1",
                "a = a + 1",
                "b = a + 1",
                'qr = conn.execute_query("q", [b % 31])',
            ]
        )
        transformed = asyncify_source(source).source
        for n in range(3):
            assert run(transformed, FakeConnection(), n) == run(
                source, FakeConnection(), n
            )
