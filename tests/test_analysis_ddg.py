"""Unit tests: DDG construction (the paper's Figure 1 / Section III-A)."""

import ast

import pytest

from repro.analysis.cycles import has_true_path, on_true_cycle
from repro.analysis.ddg import AD, FD, OD, DDG, build_ddg, edge_crosses
from repro.ir.purity import PurityEnv
from repro.ir.statements import make_block, make_header
from repro.transform.registry import default_registry

PURITY = PurityEnv()
REGISTRY = default_registry()


def loop_ddg(code):
    loop = ast.parse(code).body[0]
    header = make_header(loop, PURITY, REGISTRY)
    body = make_block(loop.body, PURITY, REGISTRY)
    return build_ddg(header, body), body


EXAMPLE_2 = """
while not category_list.is_empty():
    category = category_list.remove_first()
    qt.bind(1, category)
    part_count = conn.execute_query(qt)
    total += part_count.scalar()
"""


class TestExample2Figure1:
    """The paper's Figure 1 edges, translated to our positions:
    0=header(while), 1=s2(pop), 2=s3(bind), 3=s4(query), 4=s5(sum)."""

    def setup_method(self):
        self.ddg, self.body = loop_ddg(EXAMPLE_2)

    def edge(self, src, dst, kind, loop_carried=None):
        return [
            e
            for e in self.ddg.edges
            if e.src == src
            and e.dst == dst
            and (loop_carried is None or e.loop_carried == loop_carried)
        ]

    def test_flow_pop_to_bind(self):
        edges = [e for e in self.edge(1, 2, False) if e.kind == FD and e.var == "category"]
        assert edges

    def test_flow_bind_to_query(self):
        edges = [e for e in self.edge(2, 3, False) if e.kind == FD and e.var == "qt"]
        assert edges

    def test_flow_query_to_sum(self):
        edges = [
            e for e in self.edge(3, 4, False) if e.kind == FD and e.var == "part_count"
        ]
        assert edges

    def test_anti_header_to_pop(self):
        # header reads category_list, s2 writes it
        edges = [
            e
            for e in self.edge(0, 1, False)
            if e.kind == AD and e.var == "category_list"
        ]
        assert edges

    def test_loop_carried_flow_pop_to_header(self):
        edges = [
            e
            for e in self.edge(1, 0, True)
            if e.kind == FD and e.var == "category_list"
        ]
        assert edges

    def test_control_flow_header_to_all(self):
        for position in range(1, 5):
            assert any(
                e.kind == FD and e.src == 0 and e.dst == position
                for e in self.ddg.edges
            )

    def test_no_crossing_lcfd_at_query(self):
        qpos = 3
        crossing = [
            e
            for e in self.ddg.edges
            if e.kind == FD and e.loop_carried and not e.external
            and edge_crosses(e, qpos, qpos)
        ]
        assert crossing == []

    def test_query_not_on_true_cycle(self):
        assert not on_true_cycle(self.ddg, 3)


EXAMPLE_6 = """
while category is not None:
    qt.bind(1, category)
    part_count = conn.execute_query(qt)
    total += part_count.scalar()
    category = get_parent_category(category)
"""


class TestExample6:
    def setup_method(self):
        self.ddg, self.body = loop_ddg(EXAMPLE_6)

    def test_crossing_lcfd_exists(self):
        qpos = 2
        crossing = [
            e
            for e in self.ddg.edges
            if e.kind == FD and e.loop_carried and not e.external
            and edge_crosses(e, qpos, qpos)
        ]
        assert crossing, "the category update must cross the split boundary"
        assert any(e.var == "category" for e in crossing)

    def test_query_not_on_cycle(self):
        assert not on_true_cycle(self.ddg, 2)


EXAMPLE_11 = """
while eid is not None:
    mgr = conn.execute_query(q1, [eid])
    idx = conn.execute_query(q2, [mgr, eid])
    sumidx += idx
    eid = mgr
"""


class TestExample11Cycles:
    def setup_method(self):
        self.ddg, self.body = loop_ddg(EXAMPLE_11)

    def test_first_query_on_cycle(self):
        assert on_true_cycle(self.ddg, 1)

    def test_second_query_not_on_cycle(self):
        assert not on_true_cycle(self.ddg, 2)

    def test_cycle_positions(self):
        positions = {
            position
            for position in range(len(self.ddg.nodes))
            if on_true_cycle(self.ddg, position)
        }
        assert 1 in positions
        assert 2 not in positions

    def test_true_path_mgr_chain(self):
        # s1 -> s4 (mgr) then LC back to header/args
        assert has_true_path(self.ddg, 1, 4)
        assert has_true_path(self.ddg, 4, 1)


class TestKillAnalysis:
    def test_killed_write_has_no_lcfd(self):
        ddg, _body = loop_ddg(
            """
while p(n):
    x = f()
    x = g()
    y = use(x)
"""
        )
        # The first write of x is killed by the second before the back
        # edge: only position 2 may carry x to the next iteration.
        carried = [
            e for e in ddg.edges if e.kind == FD and e.loop_carried and e.var == "x"
        ]
        assert all(e.src == 2 for e in carried)

    def test_unconditional_rewrite_kills_all_carried_flow(self):
        ddg, _body = loop_ddg(
            """
while p(n):
    x = f()
    if c:
        x = g()
    y = use(x)
"""
        )
        # Every iteration rewrites x unconditionally before any read, so
        # no definition of x can reach the next iteration's uses.
        carried = [
            e for e in ddg.edges if e.kind == FD and e.loop_carried and e.var == "x"
        ]
        assert carried == []

    def test_guarded_write_reaches_next_iteration(self):
        ddg, _body = loop_ddg(
            """
while p(n):
    if c:
        x = f()
    y = use(x)
"""
        )
        # The only write of x is conditional (no kill): it may reach the
        # next iteration's read.
        carried = [
            e for e in ddg.edges if e.kind == FD and e.loop_carried and e.var == "x"
        ]
        assert any(e.src == 1 and e.dst == 2 for e in carried)


class TestExternalEdges:
    def test_update_then_query_conflict(self):
        ddg, _body = loop_ddg(
            """
while p(n):
    conn.execute_update(u, [n])
    r = conn.execute_query(q, [n])
"""
        )
        external = [e for e in ddg.edges if e.external]
        assert any(e.kind == FD and e.src == 1 and e.dst == 2 for e in external)

    def test_commuting_updates_have_no_od(self):
        registry = default_registry().with_effect("execute_update", "commuting_write")
        loop = ast.parse(
            "while p(n):\n    conn.execute_update(u, [n])\n    n = n + 1"
        ).body[0]
        header = make_header(loop, PURITY, registry)
        body = make_block(loop.body, PURITY, registry)
        ddg = build_ddg(header, body)
        od_external = [e for e in ddg.edges if e.external and e.kind == OD]
        assert od_external == []

    def test_plain_updates_keep_od(self):
        ddg, _body = loop_ddg(
            "while p(n):\n    conn.execute_update(u, [n])\n    n = n + 1"
        )
        od_external = [e for e in ddg.edges if e.external and e.kind == OD]
        assert od_external, "non-commuting updates must conflict with themselves"

