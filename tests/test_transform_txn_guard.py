"""Transaction barriers in the transformation pipeline.

The Discussion section defers the interaction between asynchronous
queries and transaction semantics; our conservative rule is: begin /
commit / rollback calls are *barriers* that conflict with every
external access, so a query statement cannot be made asynchronous if a
barrier shares its loop — the rewrite would move submissions across
transaction boundaries.
"""

import ast
import textwrap

from repro.analysis.ddg import WILDCARD, build_ddg, conflicting_resources
from repro.ir.purity import PurityEnv
from repro.ir.statements import make_block, make_header
from repro.transform import asyncify_source, default_registry
from repro.transform.registry import DEFAULT_BARRIERS


def transform(source):
    return asyncify_source(textwrap.dedent(source))


def parse_loop(source, registry):
    loop = ast.parse(textwrap.dedent(source)).body[0]
    purity = PurityEnv()
    header = make_header(loop, purity, registry)
    body = make_block(loop.body, purity, registry)
    return header, body


def loop_reports(result):
    return result.reports


TXN_LOOP = """
    def load(conn, keys):
        out = []
        for key in keys:
            conn.begin()
            row = conn.execute_query(SQL, [key])
            conn.commit()
            out.append(row)
        return out
"""

PLAIN_LOOP = """
    def load(conn, keys):
        out = []
        for key in keys:
            row = conn.execute_query(SQL, [key])
            out.append(row)
        return out
"""

BARRIER_OUTSIDE_LOOP = """
    def load(conn, keys):
        conn.begin()
        out = []
        for key in keys:
            row = conn.execute_query(SQL, [key])
            out.append(row)
        conn.commit()
        return out
"""


class TestRegistryBarriers:
    def test_default_barriers_registered(self):
        registry = default_registry()
        for name in DEFAULT_BARRIERS:
            assert registry.is_barrier(name)

    def test_non_barrier(self):
        assert not default_registry().is_barrier("execute_query")

    def test_register_custom_barrier(self):
        registry = default_registry()
        registry.register_barrier("checkpoint")
        assert registry.is_barrier("checkpoint")

    def test_copy_preserves_barriers(self):
        registry = default_registry()
        registry.register_barrier("checkpoint")
        clone = registry.copy()
        assert clone.is_barrier("checkpoint")
        assert clone.barriers() >= set(DEFAULT_BARRIERS)

    def test_with_effect_preserves_barriers(self):
        registry = default_registry().with_effect(
            "execute_update", "commuting_write"
        )
        assert registry.is_barrier("begin")


class TestWildcardConflicts:
    def test_plain_intersection(self):
        assert conflicting_resources(
            frozenset({"db"}), frozenset({"db", "web"})
        ) == frozenset({"db"})

    def test_disjoint(self):
        assert conflicting_resources(
            frozenset({"db"}), frozenset({"web"})
        ) == frozenset()

    def test_empty_sides(self):
        assert conflicting_resources(frozenset(), frozenset({"db"})) == frozenset()
        assert conflicting_resources(frozenset({WILDCARD}), frozenset()) == frozenset()

    def test_wildcard_conflicts_with_everything(self):
        assert conflicting_resources(
            frozenset({WILDCARD}), frozenset({"db"})
        ) == frozenset({"db"})
        assert conflicting_resources(
            frozenset({"web"}), frozenset({WILDCARD})
        ) == frozenset({"web"})

    def test_wildcard_vs_wildcard(self):
        assert conflicting_resources(
            frozenset({WILDCARD}), frozenset({WILDCARD})
        ) == frozenset({WILDCARD})


class TestDefuseBarrierEffect:
    def test_barrier_writes_wildcard_and_receiver(self):
        source = textwrap.dedent(
            """
            while p:
                conn.begin()
                r = conn.execute_query(q)
            """
        )
        header, body = parse_loop(source, registry=default_registry())
        begin_stmt = body[0]
        assert WILDCARD in begin_stmt.external_writes
        assert "conn" in begin_stmt.writes

    def test_barrier_query_edges_in_ddg(self):
        source = textwrap.dedent(
            """
            while p:
                conn.begin()
                r = conn.execute_query(q)
                conn.commit()
            """
        )
        header, body = parse_loop(source, registry=default_registry())
        ddg = build_ddg(header, body)
        # begin (node 1) -> query (node 2): external FD on "db"
        fd = [
            e for e in ddg.edges
            if e.src == 1 and e.dst == 2
            and e.external and e.kind == "FD" and not e.loop_carried
        ]
        assert fd, "barrier must have a flow edge into the query"
        # commit (node 3) loop-carried conflict back to begin (node 1)
        lc = [
            e for e in ddg.edges
            if e.external and e.loop_carried and e.src == 3 and e.dst == 1
        ]
        assert lc, "commit must conflict with next iteration's begin"


class TestTransformRefusal:
    def test_txn_loop_not_transformed(self):
        result = transform(TXN_LOOP)
        assert result.transformed_loops == 0
        reasons = " ".join(
            outcome.reason
            for report in result.reports
            for outcome in report.outcomes
        ).lower()
        reasons += " ".join(report.blocked_reason for report in result.reports).lower()
        # The engine attempts the Section IV reordering to satisfy Rule
        # A's preconditions; the barrier's external edges make it refuse.
        assert any(
            token in reasons for token in ("external", "dependence", "reorder")
        )

    def test_plain_loop_transformed(self):
        result = transform(PLAIN_LOOP)
        assert result.transformed_loops == 1
        assert "submit_query" in result.source

    def test_barrier_outside_loop_is_harmless(self):
        result = transform(BARRIER_OUTSIDE_LOOP)
        assert result.transformed_loops == 1
        assert "submit_query" in result.source
        # the barrier calls survive the rewrite, outside the loops
        assert "conn.begin()" in result.source
        assert "conn.commit()" in result.source

    def test_rollback_alone_blocks(self):
        result = transform(
            """
            def load(conn, keys):
                out = []
                for key in keys:
                    row = conn.execute_query(SQL, [key])
                    conn.rollback()
                    out.append(row)
                return out
            """
        )
        assert result.transformed_loops == 0

    def test_custom_barrier_blocks(self):
        # The barrier call is on a *different* receiver, so only its
        # registered barrier status (not receiver mutation) can block.
        source = """
            def load(conn, audit, keys):
                out = []
                for key in keys:
                    row = conn.execute_query(SQL, [key])
                    audit.flush_all()
                    out.append(row)
                return out
            """
        plain = transform(source)
        assert plain.transformed_loops == 1
        registry = default_registry()
        registry.register_barrier("flush_all")
        barred = asyncify_source(textwrap.dedent(source), registry=registry)
        assert barred.transformed_loops == 0

    def test_unregistered_method_does_not_block(self):
        """Sanity: only *registered* barriers block (unknown methods on
        the connection mutate the receiver but have no external effect)."""
        result = transform(
            """
            def load(conn, keys):
                out = []
                for key in keys:
                    row = conn.execute_query(SQL, [key])
                    audit_log(key)
                    out.append(row)
                return out
            """
        )
        assert result.transformed_loops == 1
