"""Each fact the transformer shares is the fact it replaced.

One ``transform_source`` call computes a fact once and hands it on:
each generated node is positioned once, by ``codegen.located`` where it
is built (nothing on the path calls ``ast.fix_missing_locations`` or
``copy.deepcopy``); each statement is analyzed once, through the
transform's ``StatementFacts`` memo, whose answers must equal a fresh
``analyze_statement`` / ``find_query_call`` / ``contains_loop`` of the
same node, when asked and when the transform ends; one DDG per loop
attempt (the cycle test's, or the reorder's last round); ``Stmt.reads``
computed at construction and refreshed where a rewrite rebinds it; the
engine's name allocator reused by the prefetch pass; and one
per-function index (locals, deletion sets) for that pass.  Each is
checked here against a fresh computation, over the benchmark corpus
and the property generator, with must-fail mutations showing that the
checks can fail.  The corpus also has to be a fixpoint: every emission,
transformed again under the same options, comes back unchanged.
"""

from __future__ import annotations

import ast
import copy
import sys
from collections import deque

import pytest
from hypothesis import given, strategies as st

import tests.test_prefetch_insertion as prefetch_tests
from perfbench.data import corpus_sources
from repro.analysis.ddg import build_ddg
from repro.ir import statements as statements_module
from repro.ir.defuse import analyze_statement, import_bound_names
from repro.ir.purity import PurityEnv
from repro.ir.statements import (
    CONTROL_VAR,
    MATCH_CAPTURE_NODES,
    MATCH_REST_NODES,
    ROLE_ATTR,
    StatementFacts,
    Stmt,
    find_query_call,
)
from repro.prefetch import insertion
from repro.transform import asyncify_source, engine, prefetch_source, rule_reorder
from repro.transform import normalize
from repro.transform.names import NameAllocator
from repro.transform.registry import default_registry
from tests.helpers import drawn
from tests.test_prop_transform import HEADERS, build_program, loop_statements

CORPUS = corpus_sources()

#: The option sets of ``tools/emit_diff.py`` and the repo benchmark.
OPTION_SETS = {
    "asyncify": lambda source: asyncify_source(source),
    "asyncify+prefetch": lambda source: asyncify_source(source, prefetch=True),
    "prefetch+speculate": lambda source: prefetch_source(source, speculate=True),
}


def unpositioned(node):
    return [
        child
        for child in ast.walk(node)
        if "lineno" in child._attributes and not hasattr(child, "lineno")
    ]


class TestPositions:
    @pytest.mark.parametrize("option_set", sorted(OPTION_SETS))
    def test_every_emitted_node_is_positioned_and_compiles(self, option_set):
        for name, source in CORPUS:
            tree = OPTION_SETS[option_set](source).tree
            assert not unpositioned(tree), name
            compile(tree, f"<{name}>", "exec")

    def test_fission_positions_its_own_result(self, monkeypatch):
        """``located`` positions only the node it is given, so the raw
        ``Assign`` of a restore (``if 'v' in rec: v = rec['v']``) gets its
        line from the fix over fission's result — nothing later."""
        results = []
        real = engine.fission

        def fission(*args, **kwargs):
            result = real(*args, **kwargs)
            for node in result.nodes:
                assert not unpositioned(node)
                ast.unparse(node)
                compile(ast.Module(body=[node], type_ignores=[]), "<fission>", "exec")
            results.append(result)
            return result

        monkeypatch.setattr(engine, "fission", fission)
        for _name, source in CORPUS:
            asyncify_source(source)
        assert len(results) >= 31


class TestOneGraphPerAttempt:
    def check_handed_graphs(self, monkeypatch, transform):
        """Run the corpus with every graph fission is handed compared to
        the one ``build_ddg`` builds for its arguments; how many were."""
        handed = []
        real = engine.fission

        def fission(loop, header, body, split_index, query, *rest, ddg=None):
            assert ddg is not None or query is None
            if ddg is not None:
                assert ddg.edges == build_ddg(header, body).edges
                handed.append(ddg)
            return real(loop, header, body, split_index, query, *rest, ddg=ddg)

        monkeypatch.setattr(engine, "fission", fission)
        for _name, source in CORPUS:
            transform(source)
        return len(handed)

    @pytest.mark.parametrize("option_set", sorted(OPTION_SETS))
    def test_fission_gets_the_graph_build_ddg_would_build(self, monkeypatch, option_set):
        assert self.check_handed_graphs(monkeypatch, OPTION_SETS[option_set]) >= 31

    def test_must_fail_with_the_graph_from_before_a_reorder(self, monkeypatch):
        """Handing fission the pre-reorder graph (what the engine may only
        do when nothing moved) is caught on the corpus loops that reorder."""
        real = engine.reorder

        def stale(header, body, query, purity, registry, allocator, ddg=None):
            new_body, outcome = real(header, body, query, purity, registry, allocator, ddg)
            outcome.ddg = ddg
            return new_body, outcome

        monkeypatch.setattr(engine, "reorder", stale)
        with pytest.raises(AssertionError):
            self.check_handed_graphs(monkeypatch, asyncify_source)


def fresh_reads(stmt):
    """``Stmt.reads`` as it was computed on every access."""
    names = set(stmt.du.reads)
    names.update(guard.var for guard in stmt.guards)
    if not stmt.is_header:
        names.add(CONTROL_VAR)
    return frozenset(names)


def check_rewrites(monkeypatch):
    """Compare ``reads`` with a fresh computation after every
    ``_rewrite_in_place``; returns the rewritten statements."""
    rewritten = []
    real = rule_reorder._rewrite_in_place

    def rewrite(stmt, *args, **kwargs):
        real(stmt, *args, **kwargs)
        assert stmt.reads == fresh_reads(stmt)
        rewritten.append(stmt)

    monkeypatch.setattr(rule_reorder, "_rewrite_in_place", rewrite)
    return rewritten


#: Paper Example 8: the reorder snapshots ``category`` with a reader
#: stub, which renames the moving statement's reads.
EXAMPLE_8 = """
def f(conn, q, category, total):
    while category is not None:
        icount = conn.execute_query(q, [category])
        total = total + icount
        category = get_parent(category)
    return total
"""


class TestReadsComputedOnce:
    @given(
        statements=loop_statements(),
        header=st.sampled_from(sorted(HEADERS)),
    )
    @drawn(100)
    def test_reads_stay_fresh_over_the_generator(self, statements, header):
        with pytest.MonkeyPatch.context() as patch:
            check_rewrites(patch)
            asyncify_source(build_program(statements, header))

    def test_a_reader_stub_refreshes_reads(self, monkeypatch):
        rewritten = check_rewrites(monkeypatch)
        asyncify_source(EXAMPLE_8)
        assert rewritten

    def test_must_fail_without_the_refresh(self, monkeypatch):
        real = Stmt.refresh_reads

        def at_construction_only(stmt):
            if not stmt.reads:
                real(stmt)

        monkeypatch.setattr(Stmt, "refresh_reads", at_construction_only)
        check_rewrites(monkeypatch)
        with pytest.raises(AssertionError):
            asyncify_source(EXAMPLE_8)


def walk_sites(node, registry):
    """``(depth, call, spec)`` of every registered call under ``node``,
    breadth-first — the walk ``find_query_call`` made."""
    found = []
    todo = deque([(node, 0)])
    while todo:
        child, depth = todo.popleft()
        todo.extend((below, depth + 1) for below in ast.iter_child_nodes(child))
        if isinstance(child, ast.Call):
            func = child.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            spec = registry.lookup(name) if registry and name else None
            if spec is not None:
                found.append((depth, child, spec))
    return found


def walk_exits(node, in_loop):
    """The ``leaves_block`` walk the memo replaced (a loop's ``else``
    clause runs outside it)."""
    if isinstance(node, (ast.Return, ast.Raise, ast.Yield, ast.YieldFrom)):
        return True
    if isinstance(node, (ast.Break, ast.Continue)):
        return not in_loop
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
        return False
    if isinstance(node, (ast.While, ast.For)):
        return any(
            walk_exits(child, child not in node.orelse or in_loop)
            for child in ast.iter_child_nodes(node)
        )
    return any(walk_exits(child, in_loop) for child in ast.iter_child_nodes(node))


def fresh_entry(facts, node):
    """A statement's subtree entry, field by field, walked again."""
    sites = walk_sites(node, facts.registry)
    return {
        "sites": sites,
        "query": find_query_call(node, facts.registry) if facts.registry else None,
        "callees": {
            child.func.id
            for child in ast.walk(node)
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
        },
        "deleted": deleted_names(node),
        "bound": bound_names_below(node),
        "roles": {
            getattr(child, ROLE_ATTR)
            for child in ast.walk(node)
            if hasattr(child, ROLE_ATTR)
        },
        "loop": any(isinstance(child, (ast.While, ast.For)) for child in ast.walk(node)),
        "exits": (walk_exits(node, False), walk_exits(node, True)),
    }


def entry_fields(entry):
    return entry._asdict()


def check_entry(facts, node, entry):
    assert entry_fields(entry) == fresh_entry(facts, node), ast.unparse(node)


def check_memo(monkeypatch):
    """Compare each answer of every transform's statement memo with a
    fresh analysis of the same node — when it is a hit, and, for every
    entry, when the transform ends (an entry no later round asks for can
    still go stale).  A subtree entry is compared field by field: the
    query sites in order, the callees, the ``del``-ed and bound names,
    the role tags, the loop flag and both exit answers.  Returns the
    hit counts of ``defuse`` and of the subtree entries (``of``)."""
    hits = {"defuse": 0, "of": 0}
    made = []
    real_init = StatementFacts.__init__
    real_defuse, real_of = StatementFacts.defuse, StatementFacts.of

    def init(facts, *args, **kwargs):
        real_init(facts, *args, **kwargs)
        made.append(facts)

    def defuse(facts, node):
        known = node in facts._defuse
        answer = real_defuse(facts, node)
        if known:
            assert answer == fresh_defuse(facts, node), ast.unparse(node)
            hits["defuse"] += 1
        return answer

    def of(facts, node):
        known = node in facts._subtrees
        answer = real_of(facts, node)
        if known:
            check_entry(facts, node, answer)
            hits["of"] += 1
        return answer

    monkeypatch.setattr(StatementFacts, "__init__", init)
    monkeypatch.setattr(StatementFacts, "defuse", defuse)
    monkeypatch.setattr(StatementFacts, "of", of)

    real_transform = engine.TransformEngine.transform_source

    def transform_source(self, source):
        start = len(made)
        result = real_transform(self, source)
        for facts in made[start:]:
            for node, answer in facts._defuse.items():
                assert answer == fresh_defuse(facts, node), ast.unparse(node)
            for node, entry in facts._subtrees.items():
                check_entry(facts, node, entry)
        return result

    monkeypatch.setattr(engine.TransformEngine, "transform_source", transform_source)
    return hits


def fresh_defuse(facts, node):
    return analyze_statement(node, facts.purity, facts.registry)


#: An inner loop fission refuses (its query is on a true-dependence
#: cycle), analyzed as one statement of the outer loop, which is refused
#: too; the prefetch pass then hoists the submit inside the inner loop.
NESTED_BLOCKED = """
def f(conn, q, starts):
    out = []
    for s in starts:
        node = s
        while node is not None:
            label = fmt(s)
            node = conn.execute_query(q, [node])
        out.append(label)
    return out
"""


class TestStatementMemo:
    """The transform's statement memo answers what a fresh analysis of
    the same node answers, and it is asked again: the fetch-loop rounds
    and the prefetch pass hit it."""

    @pytest.mark.parametrize("option_set", sorted(OPTION_SETS))
    def test_every_answer_is_a_fresh_analysis(self, monkeypatch, option_set):
        hits = check_memo(monkeypatch)
        for _name, source in CORPUS:
            OPTION_SETS[option_set](source)
        assert hits["defuse"] >= 40 and hits["of"] >= 40

    @given(
        statements=loop_statements(),
        header=st.sampled_from(sorted(HEADERS)),
    )
    @drawn(60)
    def test_every_answer_is_a_fresh_analysis_over_the_generator(
        self, statements, header
    ):
        with pytest.MonkeyPatch.context() as patch:
            check_memo(patch)
            program = build_program(statements, header)
            for transform in OPTION_SETS.values():
                tree = transform(program).tree
                assert not unpositioned(tree)
                compile(tree, "<generated>", "exec")

    def test_must_fail_when_a_rewrite_changes_the_analyzed_node(self, monkeypatch):
        """The memo is sound because a rewrite swaps in a new node:
        renaming the reorder's statement in place keeps its old entry,
        which the end-of-transform audit catches on Example 8."""
        real = rule_reorder._rewrite_in_place

        def in_place(stmt, new_node, *args, **kwargs):
            stmt.node.__dict__.update(new_node.__dict__)
            real(stmt, stmt.node, *args, **kwargs)

        check_memo(monkeypatch)
        monkeypatch.setattr(rule_reorder, "_rewrite_in_place", in_place)
        with pytest.raises(AssertionError):
            asyncify_source(EXAMPLE_8)

    def test_the_prefetch_pass_rebuilds_what_the_engine_analyzed(self, monkeypatch):
        check_memo(monkeypatch)
        prefetch_source(NESTED_BLOCKED, speculate=True)

    def test_must_fail_when_the_prefetch_pass_rewrites_a_block_in_place(
        self, monkeypatch
    ):
        """The engine analyzed the blocked inner ``while`` as one
        statement of the outer loop; the prefetch pass then hoists a
        submit inside it.  Changing its body in place leaves the memo's
        entry stale."""

        def in_place(node, **blocks):
            for name, block in blocks.items():
                setattr(node, name, block)
            return node

        check_memo(monkeypatch)
        monkeypatch.setattr(insertion, "rebuilt", in_place)
        with pytest.raises(AssertionError):
            prefetch_source(NESTED_BLOCKED, speculate=True)


#: A loop whose body normalization rewrites (the call is hoisted into
#: ``__qres``), in place on the loop and on the ``if`` holding it.
NORMALIZED = """
def f(conn, q, xs, c):
    total = 0
    for x in xs:
        total += conn.execute_query(q, [x]).scalar()
        if c:
            total += conn.execute_query(q, [x, c]).scalar()
    return total
"""

#: A def inside a loop: the loop's entry holds it, and the ``if`` in it,
#: before the engine transforms the def's inner loop (rewriting the
#: ``if``'s block in place) and then asks about the loop around the
#: ``if``.
NESTED_DEF = """
def f(conn, q, groups):
    out = []
    for g in groups:
        def load(ids):
            rows = []
            for i in ids:
                if i:
                    for j in i:
                        rows.append(conn.execute_query(q, [j]))
            return rows
        out.append(load(g))
    return out
"""

#: Several query sites per statement, at several depths, and every exit.
ORDERED_SITES = """
def f(conn, q, xs, c):
    while c:
        if conn.execute_query(q, [1]):
            y = g(conn.execute_query(q, [h(conn.execute_query(q, [2]))]), conn.execute_query(q))
            continue
        try:
            z = [conn.execute_query(q, [x]) for x in xs]
        except KeyError as e:
            conn.execute_update(q, [e])
            del z
            break
        for x in xs:
            k = yield conn.execute_query(q, [x])
            w = lambda: (yield)
            if k:
                break
        return f(conn, q, xs, c)
"""


class TestSubtreeEntries:
    """Each statement's entry, composed from its children's, equals a
    fresh walk of the statement; the ways an entry could go stale are
    each caught by the end-of-transform audit."""

    def test_each_entry_equals_a_fresh_walk_of_its_statement(self):
        tree = ast.parse(ORDERED_SITES)
        facts = StatementFacts(PurityEnv(), default_registry())
        statements = [node for node in ast.walk(tree) if isinstance(node, ast.stmt)]
        for node in statements:
            check_entry(facts, node, facts.of(node))
        outer = facts.of(tree.body[0].body[0])
        assert len(outer.sites) == 7 and outer.exits == (True, True)
        assert [depth for depth, _call, _spec in outer.sites] == sorted(
            depth for depth, _call, _spec in outer.sites
        )

    @given(
        statements=loop_statements(),
        header=st.sampled_from(sorted(HEADERS)),
    )
    @drawn(40)
    def test_each_entry_equals_a_fresh_walk_over_the_generator(
        self, statements, header
    ):
        """Every statement of a generated program, and of what each
        option set emits for it; every function's locals too."""
        program = build_program(statements, header)
        trees = [ast.parse(program)]
        trees += [transform(program).tree for transform in OPTION_SETS.values()]
        for tree in trees:
            facts = StatementFacts(PurityEnv(), default_registry())
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    assert facts.local_names(node) == assigned_names(node)
                if isinstance(node, ast.stmt):
                    check_entry(facts, node, facts.of(node))

    def test_must_fail_with_sites_in_walk_order(self, monkeypatch):
        """Without the stable sort by depth, a statement whose deepest
        site comes first in the walk names the wrong first call."""
        monkeypatch.setattr(statements_module, "_depth", lambda site: 0)
        facts = StatementFacts(PurityEnv(), default_registry())
        loop = ast.parse(ORDERED_SITES).body[0].body[0]
        with pytest.raises(AssertionError):
            check_entry(facts, loop, facts.of(loop))

    @pytest.mark.parametrize("source", [NORMALIZED, NESTED_DEF, ORDERED_SITES])
    def test_every_answer_is_a_fresh_analysis(self, monkeypatch, source):
        check_memo(monkeypatch)
        for transform in OPTION_SETS.values():
            transform(source)

    def test_must_fail_with_a_loops_facts_from_before_normalization(
        self, monkeypatch
    ):
        """The structural checks ask about the loop before
        ``normalize_block`` rewrites its body in place; keeping that
        entry leaves it without the hoisted ``__qres``."""
        check_memo(monkeypatch)
        monkeypatch.setattr(StatementFacts, "forget", lambda facts, node: None)
        with pytest.raises(AssertionError):
            asyncify_source(NORMALIZED)

    def test_must_fail_when_normalization_rewrites_an_if_in_place(
        self, monkeypatch
    ):
        def in_place(node, **blocks):
            for name, block in blocks.items():
                setattr(node, name, block)
            return node

        check_memo(monkeypatch)
        monkeypatch.setattr(normalize, "rebuilt", in_place)
        with pytest.raises(AssertionError):
            asyncify_source(NORMALIZED)

    def test_must_fail_when_a_nested_def_is_rewritten_unreleased(
        self, monkeypatch
    ):
        """The loop around ``load`` was analyzed, the ``if`` in ``load``
        with it, before the engine transformed ``load``'s inner loop:
        the loop around the ``if`` then reads a stale entry."""
        check_memo(monkeypatch)
        monkeypatch.setattr(StatementFacts, "release", lambda facts, fn: None)
        with pytest.raises(AssertionError):
            asyncify_source(NESTED_DEF)


class TestNothingWalksAFinishedTree:
    def test_no_whole_tree_fix_or_deep_copy(self, monkeypatch):
        calls = []
        for module, name in ((ast, "fix_missing_locations"), (copy, "deepcopy")):
            real = getattr(module, name)

            def counted(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        for transform in OPTION_SETS.values():
            for _name, source in CORPUS + [("example 8", EXAMPLE_8)]:
                transform(source)
        assert calls == []


#: A local that spells the prefetch pass's first handle name.
COLLIDING = """
def f(conn, x):
    __prefetch_h1 = x + 1
    a = __prefetch_h1 * 2
    r = conn.execute_query("q", [x])
    return a, r.scalar()
"""


class TestSharedAllocator:
    def check_fresh_names(self, monkeypatch, forget_the_tree=False):
        """Run the corpus and ``COLLIDING`` under every option set: no
        fresh name may already be in the tree it is generated for."""
        handed = []
        real_fresh = NameAllocator.fresh

        def fresh(allocator, base):
            handed.append(real_fresh(allocator, base))
            return handed[-1]

        real_run = insertion.PrefetchInserter.run

        def run(inserter, tree, allocator, facts):
            in_tree = NameAllocator.for_tree(tree)
            start = len(handed)
            if forget_the_tree:
                allocator = NameAllocator()
            sites = real_run(inserter, tree, allocator, facts)
            assert not [name for name in handed[start:] if name in in_tree]
            return sites

        monkeypatch.setattr(NameAllocator, "fresh", fresh)
        monkeypatch.setattr(insertion.PrefetchInserter, "run", run)
        for transform in OPTION_SETS.values():
            for _name, source in CORPUS + [("colliding", COLLIDING)]:
                handed.clear()
                original = NameAllocator.for_tree(ast.parse(source))
                transform(source)
                assert not [name for name in handed if name in original]
                assert len(set(handed)) == len(handed)

    def test_no_generated_name_is_already_in_the_tree(self, monkeypatch):
        self.check_fresh_names(monkeypatch)

    def test_must_fail_with_an_allocator_that_does_not_know_the_tree(
        self, monkeypatch
    ):
        with pytest.raises(AssertionError):
            self.check_fresh_names(monkeypatch, forget_the_tree=True)


def deleted_names(node):
    """The deletion set the memo composes, by one walk per statement."""
    return {
        child.id
        for child in ast.walk(node)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Del)
    }


def bound_names_below(node):
    """The names any node under ``node`` binds — the bound set the memo
    composes, ``node``'s own name excluded when it is a def or class."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, (ast.Store, ast.Del)):
            names.add(child.id)
        elif isinstance(child, ast.ExceptHandler) and child.name:
            names.add(child.name)
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            names.update(import_bound_names(child))
        elif isinstance(child, ast.arg):
            names.add(child.arg)
        elif isinstance(child, MATCH_CAPTURE_NODES) and child.name:
            names.add(child.name)
        elif isinstance(child, MATCH_REST_NODES) and child.rest:
            names.add(child.rest)
        elif (
            isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and child is not node
        ):
            names.add(child.name)
    return names


def assigned_names(fn):
    """The locals over-approximation the prefetch pass's own walk made."""
    return insertion._parameter_names(fn) | bound_names_below(fn)


#: ``del`` at several depths, in a handler and a nested def ...
NESTED_DELS = """
def f(conn, items, flag, *rest, **extra):
    y = 1
    for it in items:
        if flag:
            try:
                del y
            except (KeyError, NameError) as err:
                import json as j
                del it
    def inner(p):
        q = p
        del q
    class K:
        pass
    return y
"""
#: ... and under a ``match`` (3.10+).
MATCH_DELS = """
def g(items):
    match items:
        case [first, *others]:
            del first
        case {"k": v, **more}:
            pass
"""


class TestFunctionIndex:
    """The per-function index the prefetch pass reads — the names a
    function may bind and, per statement, the names a ``del`` may
    unbind — is the statement memo's, and equals a walk of the tree."""

    #: The speculation tests in test_prefetch_insertion.py that a ``del``
    #: keeps guarded: an emptied deletion index must fail each of them.
    DEL_TESTS = (
        "test_deleted_local_stays_guarded",
        "test_deleted_in_loop_body_stays_guarded",
        "test_deleted_in_try_body_keeps_handler_guarded",
    )

    def test_the_index_equals_the_walks_it_replaced(self):
        """Over every tree the prefetch pass sees on the corpus (fission's
        restores carry ``del``) and a nest of dels."""
        trees = [asyncify_source(source).tree for _name, source in CORPUS]
        trees.append(ast.parse(NESTED_DELS))
        if sys.version_info >= (3, 10):
            trees.append(ast.parse(MATCH_DELS))
        checked = 0
        for tree in trees:
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                facts = StatementFacts(PurityEnv(), default_registry())
                assert facts.local_names(fn) == assigned_names(fn)
                for node in ast.walk(fn):
                    if isinstance(node, ast.stmt) and node is not fn:
                        deleted = facts.of(node).deleted
                        assert deleted == deleted_names(node)
                        checked += bool(deleted)
        assert checked >= 10

    @pytest.mark.parametrize("test_name", DEL_TESTS)
    def test_must_fail_with_an_empty_deletion_index(self, monkeypatch, test_name):
        real = StatementFacts._compose

        def forgetful(facts, node):
            return real(facts, node)._replace(deleted=frozenset())

        monkeypatch.setattr(StatementFacts, "_compose", forgetful)
        with pytest.raises(AssertionError):
            getattr(prefetch_tests.TestSpeculativeMode(), test_name)()


class TestCorpusFixpoint:
    """ROADMAP direction 3(d): the engine's own output is input it
    leaves alone, for all 108 (function, option set) emissions."""

    @pytest.mark.parametrize("option_set", sorted(OPTION_SETS))
    def test_each_emission_comes_back_unchanged(self, option_set):
        transform = OPTION_SETS[option_set]
        for name, source in CORPUS:
            once = transform(source)
            twice = transform(once.source)
            assert twice.source == once.source, name
            assert not twice.transformed_loops and not twice.prefetch_sites, name
