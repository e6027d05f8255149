"""Prefetch insertion: earliest-point submission with dependence limits."""

import sys

import pytest

from repro.transform import asyncify_source, prefetch_source
from tests.helpers import FakeConnection, run_both


def transform(source, **kwargs):
    return prefetch_source(source, **kwargs)


class TestHoisting:
    def test_submit_hoists_above_independent_statements(self):
        result = transform(
            """
def f(conn, x):
    a = x + 1
    b = a * 2
    r = conn.execute_query("q", [x])
    return r.scalar() + b
"""
        )
        lines = [line.strip() for line in result.source.splitlines()]
        submit_line = next(i for i, l in enumerate(lines) if "submit_query" in l)
        fetch_line = next(i for i, l in enumerate(lines) if "fetch_result" in l)
        assert submit_line < lines.index("a = x + 1")
        assert fetch_line > lines.index("b = a * 2")
        assert result.prefetch_sites[0].hoisted_past == 2

    def test_flow_dependence_stops_hoist(self):
        result = transform(
            """
def f(conn, x):
    a = x + 1
    key = a * 2
    r = conn.execute_query("q", [key])
    return r.scalar()
"""
        )
        # The argument is produced immediately above: no movement is
        # possible, so the statement stays blocking.
        assert "execute_query" in result.source
        assert "submit_query" not in result.source
        assert result.prefetch_sites == []

    def test_partial_hoist_respects_producer(self):
        result = transform(
            """
def f(conn, x):
    key = x + 1
    a = x * 2
    b = a + 3
    r = conn.execute_query("q", [key])
    return r.scalar() + b
"""
        )
        lines = [line.strip() for line in result.source.splitlines()]
        submit_line = next(i for i, l in enumerate(lines) if "submit_query" in l)
        assert submit_line > lines.index("key = x + 1")
        assert submit_line < lines.index("a = x * 2")
        assert result.prefetch_sites[0].hoisted_past == 2

    def test_guarded_lift_out_of_conditional(self):
        result = transform(
            """
def f(conn, x, detailed):
    a = x + 1
    if detailed:
        r = conn.execute_query("q", [x])
        a = a + r.scalar()
    return a
"""
        )
        source = result.source
        assert "if detailed:" in source
        submit_at = source.index("submit_query")
        fetch_at = source.index("fetch_result")
        assert submit_at < source.index("a = x + 1")
        assert fetch_at > source.index("a = x + 1")
        site = result.prefetch_sites[0]
        assert site.guarded
        # One statement passed plus the conditional boundary itself.
        assert site.hoisted_past == 2
        # The submit stays guarded: no speculative query on the false path.
        lines = source.splitlines()
        submit_index = next(i for i, l in enumerate(lines) if "submit_query" in l)
        assert lines[submit_index - 1].strip() == "if detailed:"

    def test_impure_test_is_not_lifted(self):
        result = transform(
            """
def f(conn, items):
    a = 1
    if items.pop():
        r = conn.execute_query("q", [a])
        a = r.scalar()
    return a
"""
        )
        # Lifting would evaluate items.pop() twice; the query stays put.
        assert "submit_query" not in result.source

    def test_updates_are_never_prefetched(self):
        result = transform(
            """
def f(conn, x):
    a = x + 1
    b = a * 2
    conn.execute_update("ins", [x])
    return b
"""
        )
        assert "execute_update" in result.source
        assert "submit_update" not in result.source

    def test_hoist_blocked_by_update_on_same_resource(self):
        result = transform(
            """
def f(conn, x):
    conn.execute_update("ins", [x])
    r = conn.execute_query("q", [x])
    return r.scalar()
"""
        )
        assert "submit_query" not in result.source  # cannot pass the write

    def test_hoist_blocked_by_transaction_barrier(self):
        result = transform(
            """
def f(conn, x):
    a = x + 1
    conn.commit()
    r = conn.execute_query("q", [x])
    return r.scalar() + a
"""
        )
        assert "submit_query" not in result.source

    def test_mutating_argument_not_hoisted_past_reader(self):
        result = transform(
            """
def f(conn, items):
    n = len(items)
    r = conn.execute_query("q", [items.pop()])
    return (n, r.scalar())
"""
        )
        # items.pop() must not move above len(items).
        assert "submit_query" not in result.source

    def test_submit_passes_a_blocking_read(self):
        result = transform(
            """
def f(conn, x, y):
    a = conn.execute_query("first", [x])
    b = conn.execute_query("second", [y])
    return (a.scalar(), b.scalar())
"""
        )
        # Two independent reads: the second submission overlaps the first.
        lines = [line.strip() for line in result.source.splitlines()]
        submits = [i for i, l in enumerate(lines) if "submit_query" in l]
        fetches = [i for i, l in enumerate(lines) if "fetch_result" in l]
        assert len(submits) == 2 and len(fetches) == 2
        assert max(submits) < min(fetches)

    def test_hoist_blocked_by_early_return(self):
        result = transform(
            """
def f(conn, flag, key):
    if flag:
        return None
    r = conn.execute_query("q", [key])
    return r.scalar()
"""
        )
        # Submitting above the early return would issue a query the
        # original never ran when flag is true.
        assert "submit_query" not in result.source

    def test_hoist_blocked_by_raise_guard(self):
        result = transform(
            """
def f(conn, key, ok):
    if not ok:
        raise ValueError(key)
    r = conn.execute_query("q", [key])
    return r.scalar()
"""
        )
        assert "submit_query" not in result.source

    def test_hoist_blocked_by_loop_continue(self):
        result = transform(
            """
def f(conn, items):
    out = []
    for item in items:
        if item < 0:
            continue
        a = item * 2
        r = conn.execute_query("q", [item])
        out.append(r.scalar() + a)
    return out
"""
        )
        lines = [line.strip() for line in result.source.splitlines()]
        submits = [i for i, l in enumerate(lines) if "submit_query" in l]
        if submits:  # may hoist past `a = item * 2`, never past the guard
            assert submits[0] > lines.index("continue")

    def test_hoist_past_loop_whose_break_stays_contained(self):
        # A break belongs to its own loop; control still reaches the
        # query afterwards in every execution, so passing the whole
        # loop is safe.
        result = transform(
            """
def f(conn, items, key):
    total = 0
    for item in items:
        if item > 3:
            break
        total += item
    r = conn.execute_query("q", [key])
    return (total, r.scalar())
"""
        )
        lines = [line.strip() for line in result.source.splitlines()]
        submit_line = next(i for i, l in enumerate(lines) if "submit_query" in l)
        assert submit_line < lines.index("for item in items:")

    def test_hoist_above_whole_loop(self):
        result = transform(
            """
def f(conn, items, key):
    total = 0
    for item in items:
        total += item
    r = conn.execute_query("q", [key])
    return total + r.scalar()
"""
        )
        lines = [line.strip() for line in result.source.splitlines()]
        submit_line = next(i for i, l in enumerate(lines) if "submit_query" in l)
        assert submit_line < lines.index("for item in items:")

    def test_hoist_inside_blocked_loop_body(self):
        # `return` inside the loop blocks Rule A; prefetch still moves the
        # submit earlier within each iteration.
        result = transform(
            """
def f(conn, items):
    for item in items:
        a = item * 2
        b = a + 1
        r = conn.execute_query("q", [item])
        if r.scalar() > b:
            return item
    return None
"""
        )
        lines = [line.strip() for line in result.source.splitlines()]
        submit_line = next(i for i, l in enumerate(lines) if "submit_query" in l)
        assert submit_line < lines.index("a = item * 2")
        assert lines.index("for item in items:") < submit_line


class TestFrontEnd:
    def test_prefetch_source_is_asyncify_with_prefetch(self):
        # No header, hint or other decoration is ever added: over every
        # workload module the front end emits exactly what
        # asyncify_source(prefetch=True) emits.
        import inspect

        from repro.workloads import (
            category,
            forms,
            hotset,
            moviegraph,
            paper_examples,
            rubbos,
            rubis,
        )

        for module in (
            category, forms, hotset, moviegraph, paper_examples, rubbos, rubis
        ):
            source = inspect.getsource(module)
            assert (
                transform(source).source
                == asyncify_source(source, prefetch=True).source
            ), module.__name__

    def test_loop_fission_still_runs(self):
        result = transform(
            """
def f(conn, items):
    out = []
    for item in items:
        r = conn.execute_query("q", [item])
        out.append(r.scalar())
    return out
"""
        )
        assert result.transformed_loops == 1
        assert "submit_query" in result.source

    def test_engine_default_leaves_straight_line_queries_alone(self):
        source = """
def f(conn, x):
    a = x + 1
    r = conn.execute_query("q", [x])
    return r.scalar() + a
"""
        assert "submit_query" not in asyncify_source(source).source


class TestPrefetchEquivalence:
    def assert_equivalent(self, source, func_name, args_factory, **kwargs):
        out_a, out_b, conn_a, conn_b, result = run_both(
            source, func_name, args_factory, prefetch=True, **kwargs
        )
        assert out_a == out_b
        assert conn_a.query_multiset() == conn_b.query_multiset()
        return result

    def test_straight_line_guarded(self):
        for detailed in (True, False):
            result = self.assert_equivalent(
                """
def program(conn, x, detailed):
    a = x + 1
    b = a * 3
    if detailed:
        r = conn.execute_query("extra", [x])
        b = b + r.scalar()
    return (a, b)
""",
                "program",
                lambda detailed=detailed: (5, detailed),
            )
            assert result.prefetch_sites

    def test_chain_of_reads_with_update_between(self):
        self.assert_equivalent(
            """
def program(conn, x):
    first = conn.execute_query("first", [x])
    conn.execute_update("ins", [first.scalar()])
    second = conn.execute_query("second", [x])
    return (first.scalar(), second.scalar())
""",
            "program",
            lambda: (3,),
        )

    def test_loop_plus_straight_line(self):
        self.assert_equivalent(
            """
def program(conn, items, key):
    out = []
    for item in items:
        r = conn.execute_query("q", [item])
        out.append(r.scalar())
    tail = conn.execute_query("tail", [key])
    out.append(tail.scalar())
    return out
""",
            "program",
            lambda: (list(range(8)), 99),
        )

    def test_early_exit_query_multiset_preserved(self):
        for flag in (True, False):
            self.assert_equivalent(
                """
def program(conn, flag, key):
    header = conn.execute_query("header", [key])
    n = header.scalar()
    if flag:
        return n
    detail = conn.execute_query("detail", [n])
    return (n, detail.scalar())
""",
                "program",
                lambda flag=flag: (flag, 7),
            )

    def test_threaded_prefetch(self):
        self.assert_equivalent(
            """
def program(conn, x, flag):
    a = x * 2
    b = a + 1
    if flag:
        r = conn.execute_query("q", [x])
        b = b + r.scalar()
    s = conn.execute_query("s", [b])
    return s.scalar()
""",
            "program",
            lambda: (7, True),
            threaded=True,
        )


class TestSpeculativeMode:
    SOURCE = """
def f(conn, x):
    row = conn.execute_query("first", [x])
    level = row.scalar()
    if level > 3:
        extra = conn.execute_query("second", [x])
        level = level + extra.scalar()
    return level
"""

    def test_off_by_default(self):
        result = transform(self.SOURCE)
        assert "speculate_query" not in result.source
        assert all(not site.speculative for site in result.prefetch_sites)

    def test_unguarded_lift_climbs_past_the_guard_producer(self):
        """The guard depends on the first query's result; only the
        speculative mode can start the second read before it."""
        result = transform(self.SOURCE, speculate=True)
        lines = [line.strip() for line in result.source.splitlines()]
        speculate_line = next(
            i for i, l in enumerate(lines) if "speculate_query" in l
        )
        fetch_first = next(
            i for i, l in enumerate(lines)
            if "fetch_result" in l and "extra" not in l
        )
        assert speculate_line < fetch_first  # above the producing fetch
        assert "if level > 3:" in result.source  # the consumer stays guarded
        site = next(s for s in result.prefetch_sites if s.speculative)
        assert not site.guarded
        assert "(speculative)" in result.summary()

    def test_guarded_mode_cannot_climb_past_the_guard_producer(self):
        result = transform(self.SOURCE)
        lines = [line.strip() for line in result.source.splitlines()]
        submits = [i for i, l in enumerate(lines) if "submit_query" in l]
        if submits:  # the guarded submit stays below the producing fetch
            level_line = next(
                i for i, l in enumerate(lines) if l == "level = row.scalar()"
            )
            assert all(s > level_line for s in submits)

    def test_policy_rejection_falls_back_to_guarded(self):
        from repro.db.latency import INSTANT
        from repro.transform.costmodel import SpeculationPolicy

        result = transform(
            self.SOURCE,
            speculate=True,
            speculation=SpeculationPolicy(profile=INSTANT),
        )
        assert "speculate_query" not in result.source

    def test_threshold_rejection_falls_back_to_guarded(self):
        result = transform(self.SOURCE, speculate=True, speculate_threshold=0.95)
        assert "speculate_query" not in result.source
        # the guarded lift still happens where legal
        assert all(not site.speculative for site in result.prefetch_sites)

    def test_threshold_requires_speculate(self):
        with pytest.raises(ValueError):
            transform(self.SOURCE, speculate_threshold=0.5)

    def test_updates_are_never_speculated(self):
        result = transform(
            """
def f(conn, x, flag):
    a = x + 1
    if flag:
        conn.execute_update("ins", [x])
    return a
""",
            speculate=True,
        )
        assert "speculate_query" not in result.source
        assert "speculate_update" not in result.source

    def test_specs_without_speculative_form_stay_guarded(self):
        """Web-service calls declare no speculative counterpart."""
        result = transform(
            """
def f(client, key, detailed):
    base = key + 1
    if detailed:
        entity = client.get_entity(key)
        base = base + entity["n"]
    return base
""",
            speculate=True,
        )
        assert "submit_get_entity" in result.source
        assert "speculate" not in result.source

    def test_guard_protected_argument_stays_guarded(self):
        """`x.id` is only safe to evaluate under `x is not None`;
        speculation must not move it to the false path."""
        result = transform(
            """
def f(conn, x):
    a = 1
    if x is not None:
        r = conn.execute_query("q", [x.id])
        a = r.scalar()
    return a
""",
            speculate=True,
        )
        assert "speculate_query" not in result.source
        # The site falls back to the guarded hoist, not to nothing.
        assert "submit_query" in result.source
        assert "if x is not None:" in result.source
        assert any(
            site.guarded and not site.speculative
            for site in result.prefetch_sites
        )

    def test_mutating_argument_stays_guarded(self):
        """`items.pop()` guarded mutates only when the guard is true;
        an unguarded lift would mutate state the original never touched."""
        result = transform(
            """
def f(conn, items, flag):
    a = 1
    if flag:
        r = conn.execute_query("q", [items.pop()])
        a = r.scalar()
    return a
""",
            speculate=True,
        )
        assert "speculate_query" not in result.source
        assert "submit_query" in result.source

    def test_guard_protected_receiver_stays_guarded(self):
        """The receiver is evaluated too: `state.conn` under
        `state is not None` must not escape the guard."""
        result = transform(
            """
def f(state, x):
    a = 1
    if state is not None:
        r = state.conn.execute_query("q", [x])
        a = r.scalar()
    return a
""",
            speculate=True,
        )
        assert "speculate_query" not in result.source

    def test_plain_name_and_constant_arguments_still_speculate(self):
        result = transform(
            """
def f(conn, x):
    row = conn.execute_query("first", [x])
    n = row.scalar()
    if n > 0:
        extra = conn.execute_query("second", [x, 7])
        n = n + extra.scalar()
    return n
""",
            speculate=True,
        )
        assert "speculate_query" in result.source

    def test_conditionally_bound_argument_stays_guarded(self):
        """A local assigned only under the guard's condition is unbound
        on the false path: evaluating it unguarded would raise
        UnboundLocalError the original program never raised."""
        result = transform(
            """
def f(conn, flag):
    if flag:
        y = 1
    if flag:
        r = conn.execute_query("q", [y])
        return r.scalar()
    return 0
""",
            speculate=True,
        )
        assert "speculate_query" not in result.source
        assert "submit_query" in result.source  # guarded fallback

    def test_definitely_bound_local_argument_still_speculates(self):
        """An unconditional prior assignment makes a local safe to
        evaluate on the false path; the lift lands below it."""
        result = transform(
            """
def f(conn, x):
    row = conn.execute_query("first", [x])
    n = row.scalar()
    if n > 0:
        extra = conn.execute_query("second", [n])
        n = n + extra.scalar()
    return n
""",
            speculate=True,
        )
        lines = [line.strip() for line in result.source.splitlines()]
        speculate_line = next(
            i for i, l in enumerate(lines) if "speculate_query" in l
        )
        binding = next(
            i for i, l in enumerate(lines) if l == "n = row.scalar()"
        )
        assert speculate_line > binding  # the data dependence pins it

    def test_import_bound_argument_stays_below_the_import(self):
        """A function-local import binds its names like an assignment;
        the lifted submit may speculate but must not climb above the
        binding (the defuse pass records import bindings as writes)."""
        result = transform(
            """
def f(conn, flag):
    from json import dumps
    if flag:
        r = conn.execute_query("q", [dumps])
        return r.scalar()
    return 0
""",
            speculate=True,
        )
        lines = [line.strip() for line in result.source.splitlines()]
        speculate_line = next(
            i for i, l in enumerate(lines) if "speculate_query" in l
        )
        import_line = next(
            i for i, l in enumerate(lines) if l == "from json import dumps"
        )
        assert speculate_line > import_line

    def test_class_bound_argument_stays_below_the_class(self):
        result = transform(
            """
def f(conn, flag):
    class Q:
        pass
    if flag:
        r = conn.execute_query("q", [Q])
        return r.scalar()
    return 0
""",
            speculate=True,
        )
        lines = [line.strip() for line in result.source.splitlines()]
        speculate_line = next(
            i for i, l in enumerate(lines) if "speculate_query" in l
        )
        class_line = next(i for i, l in enumerate(lines) if l == "class Q:")
        assert speculate_line > class_line

    def test_with_body_binding_stays_guarded(self):
        """A context manager may suppress the exception that skipped
        the body's binding — control reaches the query with the name
        unbound, so with-body bindings are never definite."""
        result = transform(
            """
def f(conn, d, k, flag):
    from contextlib import suppress
    with suppress(KeyError):
        y = d[k]
    if flag:
        r = conn.execute_query("q", [y])
        return r.scalar()
    return 0
""",
            speculate=True,
        )
        assert "speculate_query" not in result.source

    def test_later_with_item_target_stays_guarded(self):
        """With multiple items, a later item's __enter__ can raise, be
        suppressed by an earlier item, and leave its as-target unbound
        while control continues; only the first target is definite."""
        result = transform(
            """
def f(conn, cm, thing, flag):
    with cm as s, thing as y:
        pass
    if flag:
        r = conn.execute_query("q", [y])
        return r.scalar()
    return 0
""",
            speculate=True,
        )
        assert "speculate_query" not in result.source

    def test_first_with_item_target_still_speculates(self):
        result = transform(
            """
def f(conn, cm, flag):
    with cm as y:
        pass
    if flag:
        r = conn.execute_query("q", [y])
        return r.scalar()
    return 0
""",
            speculate=True,
        )
        assert "speculate_query" in result.source

    def test_deleted_local_stays_guarded(self):
        """``del`` revokes a definite binding; a later conditional
        rebinding must not resurrect the unguarded lift."""
        result = transform(
            """
def f(conn, flag):
    y = 1
    del y
    if flag:
        y = 2
    if flag:
        r = conn.execute_query("q", [y])
        return r.scalar()
    return 0
""",
            speculate=True,
        )
        assert "speculate_query" not in result.source

    def test_deleted_in_loop_body_stays_guarded(self):
        """A prior iteration may have run the body's del: the loop
        body's entry set must not inherit the name as bound."""
        result = transform(
            """
def f(conn, flag, items):
    y = 1
    for it in items:
        if flag:
            r = conn.execute_query("q", [y])
            s = r.scalar()
        if it < 0:
            del y
    return 0
""",
            speculate=True,
        )
        assert "speculate_query" not in result.source

    def test_deleted_in_try_body_keeps_handler_guarded(self):
        """The handler runs after a partial body execution whose del
        already happened."""
        result = transform(
            """
def f(conn, risky, flag):
    y = 1
    try:
        del y
        risky()
    except Exception:
        if flag:
            r = conn.execute_query("q", [y])
            return r.scalar()
    return 0
""",
            speculate=True,
        )
        assert "speculate_query" not in result.source

    @pytest.mark.skipif(
        sys.version_info < (3, 10), reason="match statements are 3.10+"
    )
    def test_match_capture_stays_guarded(self):
        """A case capture binds through a string attribute, invisible
        to Name(Store) walks; a non-matching subject leaves it unbound."""
        result = transform(
            """
def f(conn, x, flag):
    match x:
        case [y]:
            pass
    if flag:
        r = conn.execute_query("q", [y])
        return r.scalar()
    return 0
""",
            speculate=True,
        )
        assert "speculate_query" not in result.source

    def test_impure_test_blocks_the_speculative_lift_too(self):
        result = transform(
            """
def f(conn, items):
    a = 1
    if items.pop():
        r = conn.execute_query("q", [a])
        a = r.scalar()
    return a
""",
            speculate=True,
        )
        # The lift is decided before mode: an impure test never lifts.
        assert "speculate_query" not in result.source
        assert "submit_query" not in result.source


class TestSpeculativeEquivalence:
    def assert_equivalent(self, source, func_name, args_factory, **kwargs):
        """Outputs must match; the speculative query multiset may only
        *add* read-only queries to the original's."""
        out_a, out_b, conn_a, conn_b, result = run_both(
            source, func_name, args_factory, prefetch=True, speculate=True,
            **kwargs
        )
        assert out_a == out_b
        original = conn_a.query_multiset()
        speculative = conn_b.query_multiset()
        for key, count in original.items():
            assert speculative.get(key, 0) >= count, (key, original, speculative)
        extras = {
            key: speculative[key] - original.get(key, 0)
            for key in speculative
            if speculative[key] > original.get(key, 0)
        }
        assert all(kind == "query" for kind, _sql, _params in extras), (
            f"speculation may only add reads, got {extras}"
        )
        return result

    def test_guard_true_consumes_the_speculation(self):
        result = self.assert_equivalent(
            """
def program(conn, x):
    row = conn.execute_query("first", [x])
    n = row.scalar()
    if n >= 0:
        extra = conn.execute_query("second", [x])
        n = n + extra.scalar()
    return n
""",
            "program",
            lambda: (5,),
        )
        assert any(site.speculative for site in result.prefetch_sites)

    def test_guard_false_abandons_the_speculation(self):
        out_a, out_b, conn_a, conn_b, _result = run_both(
            """
def program(conn, x):
    row = conn.execute_query("first", [x])
    n = row.scalar()
    if n < 0:
        extra = conn.execute_query("second", [x])
        n = n + extra.scalar()
    return n
""",
            "program",
            lambda: (5,),
            prefetch=True,
            speculate=True,
        )
        assert out_a == out_b
        # The speculation ran a "second" query the original never did.
        assert ("query", "second", (5,)) not in conn_a.query_multiset()
        assert conn_b.query_multiset().get(("query", "second", (5,)), 0) == 1

    def test_conditionally_bound_local_false_path_executes(self):
        """Regression: a local bound only under the guard must not be
        evaluated speculatively — the transformed false path used to
        raise UnboundLocalError the original never raised."""
        out_a, out_b, _conn_a, _conn_b, _result = run_both(
            """
def program(conn, flag):
    if flag:
        y = 1
    if flag:
        r = conn.execute_query("q", [y])
        return r.scalar()
    return 0
""",
            "program",
            lambda: (False,),
            prefetch=True,
            speculate=True,
        )
        assert out_a == out_b == 0

    def test_threaded_speculation(self):
        self.assert_equivalent(
            """
def program(conn, x):
    row = conn.execute_query("first", [x])
    n = row.scalar()
    if n >= 0:
        extra = conn.execute_query("second", [n])
        n = n + extra.scalar()
    s = conn.execute_query("tail", [x])
    return n + s.scalar()
""",
            "program",
            lambda: (7,),
            threaded=True,
        )
