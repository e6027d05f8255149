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
import textwrap
from collections import deque

import pytest
from hypothesis import given, strategies as st

import tests.test_prefetch_insertion as prefetch_tests
from perfbench.data import corpus_sources
from repro.analysis.ddg import build_ddg
from repro.ir import defuse as defuse_module
from repro.ir import nodes as nodes_module
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
    function_defs,
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


#: The engine's statement builders, by the names it calls them.
BUILDERS = ("fission", "wrap_window")

#: The option sets above and the bounded window, whose wrapper builds
#: statements too.
BUILDING_SETS = {
    **OPTION_SETS,
    "asyncify+window": lambda source: asyncify_source(source, window=4),
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
    fresh analysis of the same node — when it is a hit, when fission or
    the window wrapper returns what it built (each statement there must
    have its entry already), and, for every entry, when the transform
    ends (an entry no later round asks for can still go stale).  A
    subtree entry is compared field by field: the query sites in order,
    the callees, the ``del``-ed and bound names, the role tags, the loop
    flag and both exit answers.  Returns the hit counts of ``defuse``
    and of the subtree entries (``of``), and how many statements the
    builders returned with their entries (``built``)."""
    hits = {"defuse": 0, "of": 0, "built": 0}
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

    def audited(builder):
        def build(*args, **kwargs):
            result = builder(*args, **kwargs)
            facts = next(arg for arg in args if isinstance(arg, StatementFacts))
            for top in getattr(result, "nodes", result):
                for node in ast.walk(top):
                    if isinstance(node, ast.stmt):
                        assert node in facts._subtrees, ast.unparse(node)
                        check_entry(facts, node, facts._subtrees[node])
                        hits["built"] += 1
            return result

        return build

    monkeypatch.setattr(StatementFacts, "__init__", init)
    monkeypatch.setattr(StatementFacts, "defuse", defuse)
    monkeypatch.setattr(StatementFacts, "of", of)
    for name in BUILDERS:
        monkeypatch.setattr(engine, name, audited(getattr(engine, name)))

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
        assert hits["defuse"] >= 40 and hits["of"] >= 40 and hits["built"] >= 200

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


def drop_one(field):
    """A ``StatementFacts._compose`` whose entries of role-tagged
    statements (those fission builds) each lack one name of ``field``
    (the least), where they have one."""
    real = StatementFacts._compose

    def compose(facts, node):
        entry = real(facts, node)
        names = getattr(entry, field)
        if ROLE_ATTR in node.__dict__ and names:
            return entry._replace(**{field: names - {min(names)}})
        return entry

    return compose


class TestBuilderEntries:
    """Fission and the window wrapper compose each statement they build
    before they return it; the engine composes a fetch loop its own
    round forgot again.  Every such entry equals a fresh walk."""

    @pytest.mark.parametrize("option_set", sorted(BUILDING_SETS))
    def test_every_registered_entry_is_a_fresh_walk(self, monkeypatch, option_set):
        hits = check_memo(monkeypatch)
        for _name, source in CORPUS:
            BUILDING_SETS[option_set](source)
        assert hits["built"] >= 150

    @given(
        statements=loop_statements(),
        header=st.sampled_from(sorted(HEADERS)),
    )
    @drawn(60)
    def test_every_registered_entry_is_a_fresh_walk_over_the_generator(
        self, statements, header
    ):
        with pytest.MonkeyPatch.context() as patch:
            check_memo(patch)
            program = build_program(statements, header)
            for transform in BUILDING_SETS.values():
                transform(program)

    @pytest.mark.parametrize("field", ["bound", "roles"])
    def test_must_fail_with_a_registered_entry_missing_a_name(
        self, monkeypatch, field
    ):
        """A table init without the name it binds, or without its
        ``ROLE_TABLE`` tag: each is caught."""
        monkeypatch.setattr(StatementFacts, "_compose", drop_one(field))
        check_memo(monkeypatch)
        with pytest.raises(AssertionError):
            asyncify_source(EXAMPLE_8)


def original_statements(monkeypatch):
    """Record the statements of every tree parsed from now on; returns
    their ids (the trees are kept alive with them)."""
    seen = set()
    trees = []
    real_parse, walk = ast.parse, ast.walk

    def parse(*args, **kwargs):
        tree = real_parse(*args, **kwargs)
        trees.append(tree)
        seen.update(id(node) for node in walk(tree) if isinstance(node, ast.stmt))
        return tree

    monkeypatch.setattr(ast, "parse", parse)
    return seen


def walked_seed(text):
    """The allocator seeded by a walk of the parsed tree."""
    return NameAllocator(
        node.id for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Name)
    )


def walked_bound_names(target):
    """Every store under ``target``, by a walk, even of a plain name."""
    return {
        node.id
        for node in ast.walk(target)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }


def in_a_memo_of_its_own(builder):
    """``builder`` composing what it builds in a memo no later pass
    reads."""

    def build(*args, **kwargs):
        args = [
            StatementFacts(arg.purity, arg.registry)
            if isinstance(arg, StatementFacts)
            else arg
            for arg in args
        ]
        return builder(*args, **kwargs)

    return build


#: The walks this file's no-walk case replaced, as mutations.
OLD_WALKS = {
    "builders compose for nobody": [
        (engine, name, in_a_memo_of_its_own(getattr(engine, name))) for name in BUILDERS
    ],
    "seed walks the tree": [(NameAllocator, "for_source", staticmethod(walked_seed))],
    "binding read walks": [(insertion, "bound_names", walked_bound_names)],
}


class TestNothingWalksAFinishedTree:
    def test_no_pass_walks_a_tree_or_composes_what_a_builder_made(
        self, monkeypatch
    ):
        """During a transform nothing walks a module, a function or any
        other statement (the allocator's seed is the source text), no
        plain-name target is walked for the name it binds, and the
        prefetch pass composes no statement the engine built: each
        arrived with its entry."""
        original = original_statements(monkeypatch)
        walks = []
        real_walk, real_subtree = ast.walk, nodes_module.subtree

        def refuse(node, real):
            plain_target = isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            if isinstance(node, (ast.mod, ast.stmt)) or plain_target:
                walks.append(type(node).__name__)
            return real(node)

        monkeypatch.setattr(ast, "walk", lambda node: refuse(node, real_walk))
        monkeypatch.setattr(defuse_module, "subtree", lambda node: refuse(node, real_subtree))
        composed = []
        real_run, real_compose = insertion.PrefetchInserter.run, StatementFacts._compose
        made = set()

        def run(inserter, tree, allocator, facts):
            made.clear()
            made.update(
                node
                for node in real_walk(tree)
                if isinstance(node, ast.stmt) and id(node) not in original
            )
            try:
                return real_run(inserter, tree, allocator, facts)
            finally:
                made.clear()

        def compose(facts, node):
            if node in made:
                composed.append(ast.unparse(node))
            return real_compose(facts, node)

        monkeypatch.setattr(insertion.PrefetchInserter, "run", run)
        monkeypatch.setattr(StatementFacts, "_compose", compose)
        transformed = 0
        for transform in BUILDING_SETS.values():
            for _name, source in CORPUS + [("example 8", EXAMPLE_8)]:
                transformed += transform(source).transformed_loops
        assert transformed >= 100
        assert walks == [] and composed == [], (walks[:3], composed[:3])

    @pytest.mark.parametrize("walk", sorted(OLD_WALKS))
    def test_must_fail_with_each_walk_it_replaced(self, monkeypatch, walk):
        """Builders whose entries no later pass reads (the prefetch pass
        composes their statements again), a seed walked from the tree,
        and binding reads that walk a plain name: each fails the case
        above."""
        for owner, name, replacement in OLD_WALKS[walk]:
            monkeypatch.setattr(owner, name, replacement)
        with pytest.raises(AssertionError):
            self.test_no_pass_walks_a_tree_or_composes_what_a_builder_made(monkeypatch)

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
            in_tree = NameAllocator.for_source(ast.unparse(tree))
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
                original = NameAllocator.for_source(source)
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


#: A def in every block a statement can sit in, at several depths, and
#: expressions whose fields are also called ``body`` / ``orelse``.
DEFS_EVERYWHERE = """
def a(y, z, w, m, E):
    v = (lambda: [x for x in y]) if z else 2
    def b():
        pass
    for x in y:
        def c():
            def d():
                pass
    try:
        def e():
            pass
    except E:
        def f():
            pass
    else:
        def g():
            pass
    finally:
        def h():
            pass
    with m:
        def i():
            pass
    class K:
        def j(self):
            pass
    if z:
        def k():
            pass
    else:
        def l():
            pass
    while w:
        pass
    else:
        def m2():
            pass
def n():
    pass
"""


def walked_defs(tree):
    """The defs of ``tree`` in ``ast.walk``'s order: the filtered walk
    ``function_defs`` replaced."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


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
            def inner():
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

    def test_function_defs_in_the_walks_order(self):
        """``function_defs`` reads statement lists only; its order is the
        filtered breadth-first walk's, on the corpus before and after
        each option set and on a nest of defs in loops, handlers and
        match cases."""
        trees = [ast.parse(DEFS_EVERYWHERE), ast.parse(NESTED_DELS), ast.parse(NESTED_DEF)]
        if sys.version_info >= (3, 10):
            trees.append(ast.parse(MATCH_DELS))
        for _name, source in CORPUS:
            trees.append(ast.parse(source))
            trees += [transform(source).tree for transform in OPTION_SETS.values()]
        for tree in trees:
            assert list(function_defs(tree)) == walked_defs(tree)
        assert len(walked_defs(trees[0])) == 14

    @given(
        statements=loop_statements(),
        header=st.sampled_from(sorted(HEADERS)),
    )
    @drawn(40)
    def test_function_defs_in_the_walks_order_over_the_generator(
        self, statements, header
    ):
        program = build_program(statements, header)
        nested = "def outer():\n" + textwrap.indent(program, "    ") + "\n" + program
        for tree in (ast.parse(program), ast.parse(nested)):
            assert list(function_defs(tree)) == walked_defs(tree)

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
