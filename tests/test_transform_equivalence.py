"""Observational equivalence: transformed programs behave identically.

Every program here is executed twice — original and automatically
transformed — against deterministic fake connections; results, final
accumulators and the multiset of issued queries must match.  (Query
*order* may legitimately change: that is the transformation's point.)
"""

import ast
import copy
import textwrap

import pytest

from repro.ir.purity import PurityEnv
from repro.transform import (
    engine,
    REASON_CONTROL,
    REASON_PRECONDITION,
    REASON_UNSUPPORTED_STMT,
    asyncify_source,
)
from repro.transform.errors import LoopNotTransformable
from repro.transform.pipelining import wrap_window
from repro.transform.registry import default_registry
from repro.workloads.paper_examples import ALL_EXAMPLES
from tests.helpers import FakeConnection, run_both


def assert_equivalent(source, func_name, args_factory, **kwargs):
    out_a, out_b, conn_a, conn_b, result = run_both(
        source, func_name, args_factory, **kwargs
    )
    assert out_a == out_b
    assert conn_a.query_multiset() == conn_b.query_multiset()
    return result


class TestBasicLoops:
    def test_worklist_while(self):
        result = assert_equivalent(
            """
def program(conn, items):
    total = 0
    while len(items) > 0:
        item = items.pop()
        r = conn.execute_query("q", [item])
        total += r.scalar()
    return total
""",
            "program",
            lambda: ([3, 1, 4, 1, 5, 9, 2, 6],),
        )
        assert result.transformed_loops == 1

    def test_for_with_accumulator_list(self):
        assert_equivalent(
            """
def program(conn, items):
    out = []
    for item in items:
        r = conn.execute_query("q", [item])
        out.append((item, r.scalar()))
    return out
""",
            "program",
            lambda: (list(range(12)),),
        )

    def test_empty_input(self):
        assert_equivalent(
            """
def program(conn, items):
    out = []
    for item in items:
        r = conn.execute_query("q", [item])
        out.append(r.scalar())
    return out
""",
            "program",
            lambda: ([],),
        )

    def test_single_iteration(self):
        assert_equivalent(
            """
def program(conn, items):
    out = []
    for item in items:
        r = conn.execute_query("q", [item])
        out.append(r.scalar())
    return out
""",
            "program",
            lambda: ([7],),
        )

    def test_value_threaded_through_iterations(self):
        """Loop-carried accumulator consumed after the query."""
        assert_equivalent(
            """
def program(conn, items):
    best = -1
    winners = []
    for item in items:
        r = conn.execute_query("q", [item])
        v = r.scalar()
        if v > best:
            best = v
            winners.append(item)
    return best, winners
""",
            "program",
            lambda: (list(range(20)),),
        )


class TestReorderedLoops:
    def test_parent_chain(self):
        assert_equivalent(
            """
def program(conn, start):
    total = 0
    current = start
    while current > 0:
        r = conn.execute_query("q", [current])
        total += r.scalar()
        current = current - 3
    return total
""",
            "program",
            lambda: (20,),
        )

    def test_stack_dfs(self):
        assert_equivalent(
            """
def program(conn, children, roots):
    stack = list(roots)
    seen = []
    while len(stack) > 0:
        node = stack.pop()
        r = conn.execute_query("visit", [node])
        seen.append((node, r.scalar()))
        kids = children.get(node, [])
        stack.extend(kids)
    return seen
""",
            "program",
            lambda: ({0: [1, 2], 1: [3, 4], 2: [5]}, [0]),
        )

    def test_guarded_program_with_stubs(self):
        assert_equivalent(
            """
def program(conn, n):
    d = 0
    a = 0
    b = 0
    c = 1
    k = 0
    trace = []
    while k < n:
        k = k + 1
        cv1 = k % 2 == 0
        cv2 = k % 3 == 0
        cv3 = k % 5 == 0
        if cv1:
            r = conn.execute_query("q", [b])
            a = r.scalar()
        if cv2:
            a = a + c
            c = c + 1
        d = a + b
        trace.append(d)
        if cv3:
            a = a - 1
            b = b + 2
    return d, a, b, c, trace
""",
            "program",
            lambda: (30,),
        )


class TestGuardedQueries:
    def test_conditional_query(self):
        assert_equivalent(
            """
def program(conn, items):
    out = []
    for item in items:
        v = item * 2
        if item % 3 == 0:
            r = conn.execute_query("q", [item])
            v = r.scalar()
        out.append(v)
    return out
""",
            "program",
            lambda: (list(range(15)),),
        )

    def test_if_else_queries(self):
        assert_equivalent(
            """
def program(conn, items):
    out = []
    for item in items:
        if item % 2 == 0:
            r = conn.execute_query("even", [item])
        else:
            r = conn.execute_query("odd", [item])
        out.append(r.scalar())
    return out
""",
            "program",
            lambda: (list(range(10)),),
        )

    def test_nested_guards(self):
        assert_equivalent(
            """
def program(conn, items):
    out = []
    for item in items:
        if item > 3:
            if item % 2 == 0:
                r = conn.execute_query("q", [item])
                out.append(r.scalar())
    return out
""",
            "program",
            lambda: (list(range(12)),),
        )


class TestNestedLoops:
    def test_nested_fission(self):
        assert_equivalent(
            """
def program(conn, groups):
    out = []
    for group in groups:
        for item in group:
            r = conn.execute_query("q", [item])
            out.append(r.scalar())
    return out
""",
            "program",
            lambda: ([[1, 2], [3], [], [4, 5, 6]],),
        )

    def test_nested_with_outer_state(self):
        assert_equivalent(
            """
def program(conn, groups):
    sums = []
    for group in groups:
        total = 0
        for item in group:
            r = conn.execute_query("q", [item])
            total += r.scalar()
        sums.append(total)
    return sums
""",
            "program",
            lambda: ([[1, 2, 3], [4], [5, 6]],),
        )


class TestUpdates:
    def test_commuting_updates_same_final_state(self):
        registry = default_registry().with_effect("execute_update", "commuting_write")
        out_a, out_b, conn_a, conn_b, _result = run_both(
            """
def program(conn, n):
    i = 0
    while i < n:
        conn.execute_update("ins", [i])
        i = i + 1
    return i
""",
            "program",
            lambda: (25,),
            registry=registry,
        )
        assert out_a == out_b == 25
        assert sorted(conn_a.updates) == sorted(conn_b.updates)

    def test_plain_updates_stay_blocking(self):
        _out_a, _out_b, _conn_a, conn_b, result = run_both(
            """
def program(conn, n):
    i = 0
    while i < n:
        conn.execute_update("ins", [i])
        i = i + 1
    return i
""",
            "program",
            lambda: (5,),
        )
        assert result.transformed_loops == 0
        # untransformed: still executes via the blocking call
        assert all(kind == "update" for kind, _sql, _params in conn_b.calls)


class TestChainedQueries:
    def test_dependent_pair(self):
        assert_equivalent(
            """
def program(conn, items):
    out = []
    for item in items:
        a = conn.execute_query("first", [item])
        b = conn.execute_query("second", [a.scalar()])
        out.append(b.scalar())
    return out
""",
            "program",
            lambda: (list(range(8)),),
        )

    def test_partial_cycle(self):
        assert_equivalent(
            """
def program(conn, seed):
    total = 0
    current = seed
    steps = 0
    while steps < 6:
        nxt = conn.execute_query("walk", [current])
        extra = conn.execute_query("score", [current])
        total += extra.scalar()
        current = nxt.scalar() % 50
        steps = steps + 1
    return total, current
""",
            "program",
            lambda: (11,),
        )


class TestPrefetchedPaperExamples:
    """Prefetch insertion preserves program semantics: the full pipeline
    (loop fission + prefetch) run over the paper's examples produces
    identical outputs and the identical query multiset."""

    _CHAIN = {0: 3, 3: 6, 6: None}
    HELPERS = {
        1: {"foo": lambda x: x * 3, "bar": lambda a, b: (a, b)},
        4: {"foo": lambda i: i % 3, "log": lambda v: None},
        6: {"get_parent_category": _CHAIN.get},
        8: {"get_parent_category": _CHAIN.get},
        10: {
            "pred1": lambda c: c % 2 == 0,
            "pred2": lambda c: c % 3 == 0,
            "pred3": lambda c: c % 5 == 0,
            "f": lambda x: (x % 5, x % 7),
            "g": lambda a, b: a + 2 * b,
            "h": lambda c: (c % 3, c % 4),
        },
    }
    ARGS = {
        1: (5,),
        2: ([3, 1, 4, 1, 5],),
        4: (12,),
        5: ([[1, 2], [3], [4, 5, 6]],),
        6: (0,),
        8: (0,),
        9: ({0: [1, 2], 1: [3], 2: []}, [0]),
        10: (4, 9, 12),
    }
    # Example 11's termination depends on a NULL manager, which the
    # deterministic fake answer never produces; its prefetch coverage
    # lives in the real-database integration tests.

    @pytest.mark.parametrize("number", [1, 2, 4, 5, 6, 8, 9, 10])
    def test_example_outputs_identical(self, number):
        source = ALL_EXAMPLES[number]
        result = asyncify_source(source, prefetch=True)
        helpers = self.HELPERS.get(number, {})
        env_orig = dict(helpers)
        env_pref = dict(helpers)
        exec(compile(source, f"<ex{number}>", "exec"), env_orig)
        exec(compile(result.source, f"<ex{number}p>", "exec"), env_pref)
        name = f"example_{number}"
        conn_a = FakeConnection()
        conn_b = FakeConnection()
        out_a = env_orig[name](conn_a, *copy.deepcopy(self.ARGS[number]))
        out_b = env_pref[name](conn_b, *copy.deepcopy(self.ARGS[number]))
        assert out_a == out_b
        assert conn_a.query_multiset() == conn_b.query_multiset()

    def test_example_1_hoist_overlaps_local_computation(self):
        result = asyncify_source(ALL_EXAMPLES[1], prefetch=True)
        # Example 1 is the paper's "simple opportunity": the submit must
        # not move (nothing precedes it), but splitting would also be
        # pointless — the statement stays blocking only when no overlap
        # is gained, which here means no statement exists above it.
        assert result.prefetch_sites == []


class TestThreadedExecution:
    def test_real_concurrency_matches(self):
        assert_equivalent(
            """
def program(conn, items):
    out = []
    for item in items:
        r = conn.execute_query("q", [item])
        out.append(r.scalar())
    return out
""",
            "program",
            lambda: (list(range(40)),),
            threaded=True,
        )

    def test_windowed_threaded(self):
        assert_equivalent(
            """
def program(conn, items):
    out = []
    for item in items:
        r = conn.execute_query("q", [item])
        out.append(r.scalar())
    return out
""",
            "program",
            lambda: (list(range(40)),),
            threaded=True,
            window=8,
        )


class TestConditionallyWrittenSplitVariables:
    """Regression: a split variable written only under a guard used to
    be restored only "when the guard fired", so fetch iterations before
    the first firing write read the submit loop's *final* value instead
    of the value those iterations observed (hypothesis-found)."""

    SOURCE = """
def program(conn, n):
    a = 1
    b = 2
    k = 0
    out = []
    while k < n:
        k = k + 1
        if a % 2 == 0:
            b = a + 1
        a = a + 1
        qr = conn.execute_query("q", [a % 31])
        qr = conn.execute_query("q", [b % 31])
        out.append(qr.scalar())
    return a, b, out
"""

    def test_prefix_iterations_see_the_preloop_value(self):
        for n in range(6):
            assert_equivalent(self.SOURCE, "program", lambda n=n: (n,))

    def test_unconditional_capture_is_emitted(self):
        from repro.transform import asyncify_source

        result = asyncify_source(self.SOURCE)
        # The conditionally-written b is captured every iteration (the
        # covered guard variables keep the presence-based spill).
        assert "['b'] = b" in result.source

    def test_covered_reads_keep_presence_based_restore(self):
        """Nested guards: the inner guard variable is conditionally
        written but every read of it is covered by the outer guard —
        the presence-based machinery stays (and stays correct)."""
        assert_equivalent(
            """
def program(conn, items):
    out = []
    for item in items:
        if item > 3:
            if item % 2 == 0:
                r = conn.execute_query("q", [item])
                out.append(r.scalar())
    return out
""",
            "program",
            lambda: (list(range(12)),),
        )

    def test_guard_firing_only_late_in_the_loop(self):
        # No iteration before the last sees the write: the worst case
        # for the old conditional restore.
        assert_equivalent(
            """
def program(conn, n):
    label = 7
    k = 0
    out = []
    while k < n:
        k = k + 1
        if k == n:
            label = 99
        r = conn.execute_query("q", [k])
        out.append(r.scalar() + label)
    return label, out
""",
            "program",
            lambda: (5,),
        )

    def test_guard_firing_only_first_iteration(self):
        assert_equivalent(
            """
def program(conn, n):
    label = 7
    k = 0
    out = []
    while k < n:
        k = k + 1
        if k == 1:
            label = 99
        r = conn.execute_query("q", [k])
        out.append(r.scalar() + label)
    return label, out
""",
            "program",
            lambda: (5,),
        )

    def test_fetch_side_rewrite_of_the_same_variable_refuses(self):
        """Submit-side conditional write + fetch-side write of the same
        variable: the per-iteration value cannot be reconstructed from
        records, so the loop must stay blocking (and stay correct)."""
        source = """
def program(conn, n):
    b = 2
    k = 0
    out = []
    while k < n:
        k = k + 1
        if k % 2 == 0:
            b = k
        r = conn.execute_query("q", [k])
        b = b + r.scalar() % 3
        out.append(b)
    return b, out
"""
        result = assert_equivalent(source, "program", lambda: (6,))
        assert result.transformed_loops == 0

    def test_unbound_variable_faults_exactly_like_the_original(self):
        """If the conditionally-written variable is unbound in early
        iterations, the fetch side must fault with UnboundLocalError
        exactly where the original did — never silently read a later
        iteration's value (the restore's else-branch unbinds it)."""
        from repro.transform import asyncify_source

        source = """
def program(conn, rows):
    out = []
    for r in rows:
        if r > 0:
            total = r
        x = conn.execute_query("Q", [r])
        out.append((x.scalar(), total))
    return out
"""
        result = asyncify_source(source)
        for rows in ([-1, 2, 3], [1, -2, 3], [-1, -2]):
            def run(src):
                namespace = {}
                exec(compile(src, "<prog>", "exec"), namespace)
                try:
                    return ("ok", namespace["program"](FakeConnection(), list(rows)))
                except UnboundLocalError:
                    return ("unbound", None)
            assert run(source) == run(result.source), rows


def reasons(result):
    return [outcome.reason for report in result.reports for outcome in report.outcomes]


class TestFoundByReading:
    """Eight programs (P1–P8, and ``raise`` beside P4) whose transformed
    form used to behave differently from the original — each was a
    place where two copies of one question (what a loop header writes,
    whether control can leave a block, which statement kinds are
    understood) disagreed, or where the one copy lacked a rule.  Each
    now transforms correctly or is refused with the stated reason; N1
    pins the exemption the every-level supportedness check needs for
    generated nodes."""

    def test_p1_header_walrus_is_a_split_variable(self):
        result = assert_equivalent(
            """
def program(conn, src):
    out = []
    while (row := src.pop() if src else None) is not None:
        r = conn.execute_query("q", [row])
        out.append((row, r.scalar()))
    return out
""",
            "program",
            lambda: ([1, 2, 3],),
        )
        assert result.transformed_loops == 1

    def test_p2_predicate_mutated_split_variable_is_refused(self):
        result = assert_equivalent(
            """
class Cursor:
    def __init__(self, rows):
        self.rows = list(rows)
        self.current = None

    def advance(self):
        if not self.rows:
            return False
        self.current = self.rows.pop(0)
        return True


def program(conn, rows):
    cursor = Cursor(rows)
    out = []
    while cursor.advance():
        r = conn.execute_query("q", [cursor.current])
        out.append((cursor.current, r.scalar()))
    return out
""",
            "program",
            lambda: ([1, 2, 3],),
        )
        assert result.transformed_loops == 0
        assert reasons(result) == [REASON_PRECONDITION]

    @pytest.mark.parametrize("window", [None, 2])
    def test_p3_loop_else_is_refused(self, window):
        result = assert_equivalent(
            """
def program(conn, ids):
    out = []
    for i in ids:
        r = conn.execute_query("q", [i])
        out.append(r.scalar())
    else:
        out.append("done")
    return out
""",
            "program",
            lambda: ([1, 2, 3],),
            window=window,
        )
        assert reasons(result) == [REASON_CONTROL]

    def test_p4_yield_in_a_loop_is_refused(self):
        # The consumer stops after one value: the original has issued
        # one query by then, a fissioned loop all three.
        result = assert_equivalent(
            """
def rows(conn, ids):
    for i in ids:
        r = conn.execute_query("q", [i])
        yield r.scalar()


def program(conn, ids):
    first = next(rows(conn, ids))
    return first, len(conn.calls)
""",
            "program",
            lambda: ([1, 2, 3],),
        )
        assert reasons(result) == [REASON_CONTROL]

    def test_raise_in_a_loop_is_refused(self):
        # Falls out of the same owner: the prefetch pass's copy already
        # knew ``raise`` as an exit, the engine's knew only ``return``.
        # The original has issued two queries when it raises, a
        # fissioned loop all three.
        result = assert_equivalent(
            """
def checked(conn, ids):
    out = []
    for i in ids:
        r = conn.execute_query("q", [i])
        if i == 2:
            raise ValueError(i)
        out.append(r.scalar())
    return out


def program(conn, ids):
    try:
        return checked(conn, ids)
    except ValueError:
        return len(conn.calls)
""",
            "program",
            lambda: ([1, 2, 3],),
        )
        assert reasons(result) == [REASON_CONTROL]

    def test_p5_prefetch_submit_never_crosses_a_yield(self):
        source = """
def program(conn, a):
    yield "ready"
    r = conn.execute_query("q", [a])
    yield r.scalar()
"""
        result = asyncify_source(source, prefetch=True)

        def drive(text):
            namespace = {}
            exec(compile(text, "<prog>", "exec"), namespace)
            row = {"name": "old"}
            conn = FakeConnection(answer=lambda sql, params: row["name"])
            consumer = namespace["program"](conn, 1)
            assert next(consumer) == "ready"
            row["name"] = "new"  # the UPDATE between the two next() calls
            return next(consumer)

        assert drive(source) == drive(result.source) == "new"
        assert result.prefetch_sites == []

    def test_p6_nested_def_under_an_if_is_refused(self):
        result = assert_equivalent(
            """
def program(conn, ids):
    sink = []
    for i in ids:
        if i:
            def emit():
                sink.append(i)
        r = conn.execute_query("q", [i])
        emit()
        sink.append(r.scalar())
    return sink
""",
            "program",
            lambda: ([1, 2, 3],),
        )
        assert reasons(result) == [REASON_UNSUPPORTED_STMT]

    def test_p7_nested_def_in_an_inner_loop_is_refused(self):
        result = assert_equivalent(
            """
def program(conn, ids):
    sink = []
    for i in ids:
        for _once in (0,):
            def emit():
                sink.append(i)
        r = conn.execute_query("q", [i])
        emit()
        sink.append(r.scalar())
    return sink
""",
            "program",
            lambda: ([1, 2, 3],),
        )
        assert reasons(result) == [REASON_UNSUPPORTED_STMT]

    @pytest.mark.parametrize(
        "statement",
        [
            "try:\n    pass\nexcept KeyError:\n    pass",
            "with open(i):\n    pass",
            "del sink[0]",
            "global g",
            "import os",
            "assert i",
            "class C:\n    pass",
        ],
        ids=["try", "with", "del", "global", "import", "assert", "class"],
    )
    @pytest.mark.parametrize("under", ["if i:", "for _once in (0,):"])
    def test_unsupported_kinds_are_refused_at_any_depth(self, statement, under):
        result = asyncify_source(
            "def program(conn, ids):\n"
            "    sink = []\n"
            "    for i in ids:\n"
            f"        {under}\n"
            + textwrap.indent(statement, " " * 12)
            + "\n"
            '        r = conn.execute_query("q", [i])\n'
            "        sink.append(r.scalar())\n"
            "    return sink\n"
        )
        assert reasons(result) == [REASON_UNSUPPORTED_STMT]

    def test_p8_local_callable_is_a_split_variable(self):
        result = assert_equivalent(
            """
def program(conn, ids):
    fns = [lambda v: v + 1, lambda v: -v]
    out = []
    for i in ids:
        fn = fns[i % 2]
        r = conn.execute_query("q", [i])
        out.append(fn(r.scalar()))
    return out
""",
            "program",
            lambda: ([1, 2, 3],),
        )
        assert result.transformed_loops == 1

    @pytest.mark.parametrize("window", [None, 2])
    def test_query_in_a_windowed_predicate_is_not_duplicated(
        self, window, monkeypatch
    ):
        # Three answers to "is re-evaluating this harmless?" disagreed:
        # the window wrapper's called a registered query pure
        # (``execute_query`` does not mutate its receiver), so it copied
        # the predicate into the outer and the inner ``while`` and the
        # count query ran once per window on top of once per iteration.
        # The one owner says no; the wrapper refuses with
        # ``fission-precondition`` and the loop is fissioned unwindowed.
        source = """
def program(conn, ids):
    out = []
    i = 0
    while conn.execute_query("count", []).scalar() > i:
        r = conn.execute_query("q", [ids[i]])
        out.append(r.scalar())
        i += 1
    return out
"""
        refusals = []

        def spying(*args):
            try:
                return wrap_window(*args)
            except LoopNotTransformable as exc:
                refusals.append(exc.reason)
                raise

        monkeypatch.setattr(engine, "wrap_window", spying)
        # FakeConnection answers "count" with 68, whatever ``i`` is.
        result = assert_equivalent(
            source, "program", lambda: (list(range(68)),), window=window
        )
        assert result.transformed_loops == 1
        assert result.source.count("'count'") == 1
        assert refusals == ([REASON_PRECONDITION] if window else [])
        from repro.ir.defuse import harmless_to_reevaluate

        predicate = ast.parse(source).body[0].body[2].test
        assert not harmless_to_reevaluate(
            predicate, PurityEnv(), default_registry()
        )

    def test_n1_generated_fetch_loop_does_not_block_the_outer_loop(self):
        # The inner fetch loop carries a try/except NameError capture
        # for the conditionally written ``last``; generated nodes are
        # exempt from the supported-kinds check.
        result = assert_equivalent(
            """
def program(conn, groups):
    out = []
    for group in groups:
        last = 0
        for item in group:
            if item % 2:
                last = item
            r = conn.execute_query("q", [item])
            out.append((last, r.scalar()))
    return out
""",
            "program",
            lambda: ([[1, 2], [], [4, 5, 6]],),
        )
        assert "except NameError" in result.source
        assert result.transformed_loops == result.opportunities == 2
        assert [o.label for o in result.reports[1].outcomes] == ["(nested loops)"]
