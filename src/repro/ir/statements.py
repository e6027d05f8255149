"""Statement wrappers: the unit of the dependence analysis.

A :class:`Stmt` pairs one Python statement node with

* its def/use summary,
* its *guards* — the boolean conditions Rule B hoisted it under
  (``cv == true ? stmt`` in the paper's notation), and
* its query-call description when the statement is a query execution.

A loop body is a flat list of Stmts (compound ``if``s are either
flattened into guards by Rule B or kept as opaque composite statements),
preceded by a pseudo *header* statement representing the loop predicate
/ iterator.  The header writes the pseudo-variable ``CONTROL_VAR`` read
by every body statement — this encodes the control dependence of the
body on the predicate as a flow dependence, which Section IV of the
paper requires for the true-dependence cycle test.

This module (with :mod:`.defuse`) owns every question about *one*
statement; the rule modules and the prefetch pass ask here instead of
walking the AST themselves.  One transform asks through
:class:`StatementFacts`, which answers each once per node: its
``DefUse``, and one :class:`SubtreeFacts` entry per statement holding
the registered query calls below it (what :func:`find_query_call`
describes), the plain-name callees, the ``del``-ed and bound names,
whether it holds a loop and whether control can leave the enclosing
block through it.  A statement fission or the window wrapper builds
is composed where it is built, so no later pass scans it again.
Besides: whether a statement's kind is one the rules understand at
every level they reach (:func:`is_supported`), how reports name it
(:func:`label`) and which functions a module holds
(:func:`function_defs`, read from statement lists only), where both
passes start.  The names in use in a module are the allocator's seed,
read from the source text (``transform/names.py``).  Questions about
*two* statements belong to :mod:`repro.analysis.ddg`.
"""

from __future__ import annotations

import ast
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from .defuse import (
    COMPOUND, DefUse, analyze_expression, analyze_statement, compound_summary,
    import_bound_names,
)
from .nodes import children
from .purity import PurityEnv

#: Pseudo-variable carrying the loop-control dependence.  Excluded from
#: split-variable spilling (it is not program state).
CONTROL_VAR = "__loop_control__"

#: Attribute naming the role of a node an earlier fission generated
#: (table init / submit loop / fetch loop; values in ``rule_fission``).
ROLE_ATTR = "_repro_role"

_sid_counter = itertools.count(1)


@dataclass(frozen=True)
class Guard:
    """One hoisted condition: ``var == value`` must hold to execute."""

    var: str
    value: bool

    def negated(self) -> "Guard":
        return Guard(self.var, not self.value)


@dataclass(frozen=True)
class QueryCall:
    """Description of the query call inside a statement."""

    call: ast.Call
    spec: object  # transform.registry.QuerySpec (duck-typed to avoid a cycle)
    receiver: Optional[ast.expr]
    target: Optional[ast.expr]  # assignment target, None for bare calls
    top_level: bool  # the call is the entire RHS / expression statement


@dataclass(eq=False)  # identity semantics: reordering tracks statements by object
class Stmt:
    """One analyzed statement."""

    node: ast.stmt
    du: DefUse
    guards: Tuple[Guard, ...] = ()
    query: Optional[QueryCall] = None
    is_header: bool = False
    sid: int = field(default_factory=lambda: next(_sid_counter))

    # ------------------------------------------------------------------
    # effective def/use (guards add reads; guarded writes never kill)
    # ------------------------------------------------------------------
    #: ``du.reads`` plus the guard variables and, for a body statement,
    #: the loop-control variable.  Computed once (the DDG asks it of
    #: every pair); whoever rebinds ``du`` or ``guards`` calls
    #: :meth:`refresh_reads`.
    reads: FrozenSet[str] = field(init=False, repr=False, default=frozenset())

    def __post_init__(self) -> None:
        self.refresh_reads()

    def refresh_reads(self) -> None:
        names = set(self.du.reads)
        names.update(guard.var for guard in self.guards)
        if not self.is_header:
            names.add(CONTROL_VAR)
        self.reads = frozenset(names)

    @property
    def writes(self) -> FrozenSet[str]:
        return self.du.writes

    @property
    def kills(self) -> FrozenSet[str]:
        if self.guards:
            return frozenset()
        return self.du.kills

    @property
    def external_reads(self) -> FrozenSet[str]:
        return self.du.external_reads

    @property
    def external_writes(self) -> FrozenSet[str]:
        return self.du.external_writes

    @property
    def commuting(self) -> FrozenSet[str]:
        return self.du.commuting

    @property
    def is_query(self) -> bool:
        return self.query is not None and self.query.top_level

    @property
    def has_embedded_query(self) -> bool:
        return self.query is not None and not self.query.top_level

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        try:
            text = ast.unparse(self.node)
        except Exception:
            text = type(self.node).__name__
        prefix = "".join(
            f"[{'' if guard.value else 'not '}{guard.var}] " for guard in self.guards
        )
        return f"<s{self.sid} {prefix}{text!r}>"


#: Statement node types the transformation rules understand natively.
SUPPORTED_SIMPLE = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Pass)


def is_supported(node: ast.stmt, nested: bool = False) -> bool:
    """Is ``node`` a statement kind the rules understand — at every
    level they reach?  Rule B flattens each loop-free ``if`` into guarded
    statements and a nested loop is summarized as one opaque statement,
    so a kind whose effects the def/use collector does not model (a
    ``def`` whose closure reads are invisible, ``try``, ``with``, ...)
    is as wrong three levels down as directly in the body.

    ``break``/``continue`` are understood only inside a ``nested`` loop
    (which owns them).  Nodes an earlier fission generated are exempt:
    they may carry the ``try``-guarded capture of a conditionally
    written split variable, whose effects fission itself accounted for.
    """
    if hasattr(node, ROLE_ATTR):
        return True
    if isinstance(node, ast.If):
        return all(is_supported(child, nested) for child in node.body + node.orelse)
    if isinstance(node, (ast.While, ast.For)):
        return all(is_supported(child, True) for child in node.body + node.orelse)
    if isinstance(node, (ast.Break, ast.Continue)):
        return nested
    return isinstance(node, SUPPORTED_SIMPLE)


def label(subject) -> str:
    """How reports name a statement: its source text, clipped.  A
    report keeps the node and names it only when read; a ``str``
    subject (``"(loop)"``) is its own name."""
    if isinstance(subject, str):
        return subject
    return ast.unparse(subject)[:70]


#: The fields that hold statements, handlers or match cases, in the
#: order every node class that has several of them lists them.
_BLOCK_FIELDS = ("body", "handlers", "orelse", "finalbody", "cases")


def function_defs(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    """Every ``def`` in ``tree``, in ``ast.walk``'s breadth-first order,
    read from the statement-list fields only: a statement sits one level
    below the statement, handler or match case holding it, so the order
    is the walk's.  A def's body is queued before the def is yielded, so
    a caller may replace it."""
    todo = deque([tree])
    while todo:
        node = todo.popleft()
        state = node.__dict__
        for name in _BLOCK_FIELDS:
            if name in state:
                todo.extend(state[name])
        if isinstance(node, ast.FunctionDef):
            yield node


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


class SubtreeFacts(NamedTuple):
    """What one statement and every node below it hold: the answers to
    the subtree questions the passes ask, one entry per statement.
    Nested ``def``s, ``class``es and lambdas are walked like any other
    node (``exits`` excepted: their bodies do not run here)."""

    #: ``(depth, call, spec)`` for every registered blocking call, in
    #: :func:`query_calls`' breadth-first order (``depth`` counts levels
    #: below the statement).
    sites: List[Tuple[int, ast.Call, object]]
    #: The :class:`QueryCall` :func:`find_query_call` builds from them.
    query: Optional[QueryCall]
    #: The names of plain-name calls (``f(...)``).
    callees: FrozenSet[str]
    #: The names a ``del`` unbinds.
    deleted: FrozenSet[str]
    #: The names any node binds (a store or ``del`` of a name, a
    #: parameter, ``except ... as``, an import, a nested ``def`` or
    #: ``class``, a match capture), except the name a ``def`` or
    #: ``class`` statement binds for itself.
    bound: FrozenSet[str]
    #: The :data:`ROLE_ATTR` tags on the statement or below it.
    roles: FrozenSet[str]
    #: A ``while`` or ``for`` is the statement or below it.
    loop: bool
    #: :meth:`StatementFacts.leaves_block`'s answer, indexed by ``in_loop``.
    exits: Tuple[bool, bool]


_LOOPS = frozenset((ast.While, ast.For))
_SCOPES = frozenset((ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
_IMPORTS = frozenset((ast.Import, ast.ImportFrom))
_YIELDS = frozenset((ast.Yield, ast.YieldFrom))
_AST, _STMT, _LOAD, _DEL = ast.AST, ast.stmt, ast.Load, ast.Del
_NAME, _ATTRIBUTE, _CALL, _LAMBDA = ast.Name, ast.Attribute, ast.Call, ast.Lambda
_NOTHING: FrozenSet[str] = frozenset()
#: Match-pattern nodes (3.10+) that bind a capture through a plain
#: string attribute instead of a ``Name(Store)`` node.
MATCH_CAPTURE_NODES = tuple(
    getattr(ast, name) for name in ("MatchAs", "MatchStar") if hasattr(ast, name)
)
MATCH_REST_NODES = tuple(
    getattr(ast, name) for name in ("MatchMapping",) if hasattr(ast, name)
)
#: Nodes that bind the name a plain string attribute holds.
_BINDING_ATTRS = {
    ast.arg: "arg",
    ast.ExceptHandler: "name",
    **{cls: "name" for cls in MATCH_CAPTURE_NODES},
    **{cls: "rest" for cls in MATCH_REST_NODES},
}
#: Nodes that hold nothing the scan looks for.
_LEAVES = frozenset(
    getattr(ast, name) for name in ("Constant", "MatchSingleton") if hasattr(ast, name)
)
#: Fields that never hold a node the scan looks for: contexts,
#: operators, names and other plain values, import aliases.
_SCALAR_FIELDS = frozenset(
    ("ctx", "op", "id", "attr", "arg", "name", "asname", "names", "module",
     "level", "kind", "rest", "type_comment", "conversion", "is_async")
)


def _node_classes(cls: type = ast.AST) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _node_classes(sub)


#: Per node class, the fields left to walk, last first (the scan pops
#: them in field order).
_FIELDS: Dict[type, Tuple[str, ...]] = {
    cls: tuple(name for name in reversed(cls._fields) if name not in _SCALAR_FIELDS)
    for cls in _node_classes()
}
#: ``exits`` of the statements whose kind alone decides it.
_FIXED_EXITS = {
    ast.Return: (True, True),
    ast.Raise: (True, True),
    ast.Break: (True, False),
    ast.Continue: (True, False),
    **dict.fromkeys(_SCOPES, (False, False)),
}


class StatementFacts:
    """The statement facts of one ``transform_source`` call, each
    computed once per node: :func:`analyze_statement`'s ``DefUse`` and
    the :class:`SubtreeFacts` every subtree question is answered from.
    A compound statement's entry is composed from its child statements'
    entries and one scan of its own expression fields, so no statement
    is walked twice, however many enclosing loops ask about it.
    The engine creates one per call and hands it to every round (a
    fission round re-flattens the statements it moved into the fetch
    loop) and to the prefetch pass (which asks again about the
    engine's output).

    Entries are keyed by the node object.  The key holds a reference,
    so a node's ``id`` is never reused while the memo lives.  The memo
    cannot go stale because no pass changes a node after it was
    analyzed, and where one does, it drops the entries first:

    * the engine rewrites the blocks of a loop or ``if`` (innermost
      loops first) before the round that analyzes the statement holding
      them;
    * a loop round asks about the loop before ``normalize_block``
      rewrites its body in place, so it drops the loop's entries first
      (:meth:`forget`; no enclosing statement was analyzed yet:
      innermost first); the engine composes a fetch loop it keeps again
      after the fetch loop's own round;
    * ``normalize`` rewrites a statement, or an ``if`` whose block it
      rewrote, as new nodes, and the old one leaves the tree;
    * a round's statements move into the loops fission and the window
      wrapper build around them unchanged, and both compose (:meth:`of`)
      what they return, so each statement they build has its entry
      before a later pass asks;
    * ``rule_reorder._rewrite_in_place`` swaps in a *new* renamed node;
    * the prefetch pass rebuilds, as new nodes, a compound statement
      whose block it rewrote and a submit it makes speculative;
    * both passes rewrite a ``def``'s body in place only after
      :meth:`release`, which drops every subtree entry when an
      enclosing statement's entry may hold the def.

    Positions may still be added: no fact reads them.  A role tag is
    set where fission builds the node, before it is composed."""

    def __init__(self, purity: PurityEnv, registry=None) -> None:
        self.purity = purity
        self.registry = registry
        self._lookup = registry.lookup if registry is not None else None
        self._defuse: Dict[ast.stmt, DefUse] = {}
        self._subtrees: Dict[ast.stmt, SubtreeFacts] = {}

    def defuse(self, node: ast.stmt) -> DefUse:
        """``node``'s :func:`analyze_statement` summary; an ``if`` /
        ``while`` / ``for`` one is composed from its header and its
        child statements' entries, so no statement is walked twice."""
        du = self._defuse.get(node)
        if du is None:
            if isinstance(node, COMPOUND):
                children = map(self.defuse, node.body + node.orelse)
                du = compound_summary(node, self.purity, self.registry, children)
            else:
                du = analyze_statement(node, self.purity, self.registry)
            self._defuse[node] = du
        return du

    def of(self, node: ast.stmt) -> SubtreeFacts:
        """The subtree entry of ``node``."""
        found = self._subtrees.get(node)
        if found is None:
            found = self._subtrees[node] = self._compose(node)
        return found

    def query(self, node: ast.stmt) -> Optional[QueryCall]:
        return self.of(node).query

    def contains_loop(self, node: ast.stmt) -> bool:
        return self.of(node).loop

    def leaves_block(self, node: ast.stmt, in_loop: bool = False) -> bool:
        """May executing ``node`` transfer control out of the current
        block?

        True for ``return``/``raise``/``yield`` anywhere (except inside
        nested function/class definitions and lambdas, which do not
        execute here) and for ``break``/``continue`` that belong to a
        loop *enclosing* ``node`` (ones in the body of a loop nested
        within ``node`` stay contained; ones in its ``else`` clause
        belong to the loop around it).  A ``yield`` hands control to a
        consumer that may write the database or never resume.
        (``await`` cannot be met: both passes walk ``ast.FunctionDef``
        only.)"""
        return self.of(node).exits[in_loop]

    def local_names(self, fn: ast.FunctionDef) -> FrozenSet[str]:
        """Every name ``fn`` may bind, its parameters included — an
        *over*-approximation of its locals (nested scopes are not
        excluded: misclassifying a global as a local only costs the
        prefetch pass a guarded fallback, never a crash).  Kept as an
        entry only if an enclosing statement asked about ``fn``."""
        found = self._subtrees.get(fn)
        return (found or self._compose(fn)).bound

    def forget(self, node: ast.stmt) -> None:
        """Drop ``node``'s entries: its caller is about to change it in
        place, and no entry of an enclosing statement holds it yet."""
        self._subtrees.pop(node, None)
        self._defuse.pop(node, None)

    def release(self, fn: ast.FunctionDef) -> None:
        """``fn``'s body is about to be rewritten in place.  If ``fn``
        has an entry, the entries of an enclosing statement and of the
        statements in ``fn`` may hold what changes, so every subtree
        entry is dropped (a ``DefUse`` never looks inside a ``def``)."""
        if fn in self._subtrees:
            self._subtrees.clear()

    def stmt(self, node: ast.stmt, guards: Tuple[Guard, ...] = ()) -> Stmt:
        """``node`` as a :class:`Stmt` under ``guards``."""
        return Stmt(
            node=node, du=self.defuse(node), guards=guards, query=self.query(node)
        )

    def _compose(self, node: ast.stmt) -> SubtreeFacts:
        """One pre-order scan of ``node``'s fields, down to its child
        statements (through handlers and match cases too), whose entries
        it takes whole."""
        lookup, of = self._lookup, self.of
        sites: List[Tuple[int, ast.Call, object]] = []
        callees: List[str] = []
        deleted: List[str] = []
        bound: List[str] = []
        roles: List[str] = []
        state = node.__dict__
        if ROLE_ATTR in state:
            roles.append(state[ROLE_ATTR])
        if node.__class__ in _IMPORTS:
            bound.extend(import_bound_names(node))
        loop = node.__class__ in _LOOPS
        exit_out = exit_in = yields = False
        # ``(node, depth, in_lambda)``; ``in_lambda`` is None for a child
        # statement.  Names are taken as they are met, constants skipped.
        todo = [(node, 0, False)]
        pop, push = todo.pop, todo.append
        while todo:
            item, depth, in_lambda = pop()
            if in_lambda is None:
                child = of(item)
                if child.sites:
                    sites.extend(
                        (depth + below, call, spec) for below, call, spec in child.sites
                    )
                callees.extend(child.callees)
                deleted.extend(child.deleted)
                bound.extend(child.bound)
                roles.extend(child.roles)
                if item.__class__ in _SCOPES:
                    bound.append(item.name)
                loop = loop or child.loop
                exit_out = exit_out or child.exits[0]
                exit_in = exit_in or child.exits[1]
                continue
            cls = item.__class__
            if cls is _CALL:
                func = item.func
                if func.__class__ is _ATTRIBUTE:
                    name = func.attr
                elif func.__class__ is _NAME:
                    name = func.id
                    callees.append(name)
                else:
                    name = None
                if name is not None and lookup is not None:
                    spec = lookup(name)
                    if spec is not None:
                        sites.append((depth, item, spec))
            elif cls is _LAMBDA:
                in_lambda = True
            elif cls in _YIELDS:
                yields = yields or not in_lambda
            elif cls in _BINDING_ATTRS:
                name = getattr(item, _BINDING_ATTRS[cls])
                if name:
                    bound.append(name)
            depth += 1
            for field in _FIELDS[cls]:
                value = getattr(item, field, None)
                for element in reversed(value) if value.__class__ is list else (value,):
                    if element.__class__ is _NAME:
                        ctx = element.ctx.__class__
                        if ctx is not _LOAD:
                            bound.append(element.id)
                            if ctx is _DEL:
                                deleted.append(element.id)
                    elif isinstance(element, _STMT):
                        push((element, depth, None))
                    elif isinstance(element, _AST) and element.__class__ not in _LEAVES:
                        push((element, depth, in_lambda))
        exits = _FIXED_EXITS.get(node.__class__)
        if exits is None:
            if yields:
                exits = (True, True)
            elif node.__class__ in _LOOPS:
                # A ``break``/``continue`` in the body is this loop's; in
                # its ``else`` clause, the enclosing loop's.
                exits = (
                    any(of(child).exits[1] for child in node.body)
                    or any(of(child).exits[0] for child in node.orelse),
                    exit_in,
                )
            else:
                exits = (exit_out, exit_in)
        query = None
        if sites:
            if len(sites) > 1:
                # Pre-order, stably sorted by depth: breadth-first.
                sites.sort(key=_depth)
            _below, call, spec = sites[0]
            query = _query_call(node, call, spec, alone=len(sites) == 1)
        return SubtreeFacts(
            sites,
            query,
            frozenset(callees) if callees else _NOTHING,
            frozenset(deleted) if deleted else _NOTHING,
            frozenset(bound) if bound else _NOTHING,
            frozenset(roles) if roles else _NOTHING,
            loop,
            exits,
        )


def _depth(site: Tuple[int, ast.Call, object]) -> int:
    return site[0]


def make_stmt(
    node: ast.stmt,
    purity: PurityEnv,
    registry=None,
    guards: Tuple[Guard, ...] = (),
) -> Stmt:
    """Analyze one statement node into a :class:`Stmt`, outside any
    transform's memo."""
    return StatementFacts(purity, registry).stmt(node, guards)


def make_block(
    nodes: Sequence[ast.stmt],
    purity: PurityEnv,
    registry=None,
    guards: Tuple[Guard, ...] = (),
) -> List[Stmt]:
    facts = StatementFacts(purity, registry)
    return [facts.stmt(node, guards) for node in nodes]


def make_header(
    loop: ast.stmt, purity: PurityEnv, registry=None
) -> Stmt:
    """Build the pseudo header statement of a ``while`` or ``for`` loop.

    The header reads, writes and mutates whatever the predicate /
    iterable does (``while (row := src.pop()) ...``, ``while
    cursor.advance()``), binds the loop target (for-loops) and writes
    :data:`CONTROL_VAR` — read by every body statement — so control
    dependence shows up as flow dependence.  Only the target's plain
    names and the control variable are rewritten unconditionally each
    iteration; a walrus in the predicate may sit under ``and``/``or``.
    """
    if isinstance(loop, ast.While):
        du, target = analyze_expression(loop.test, purity, registry), DefUse()
    elif isinstance(loop, ast.For):
        du = analyze_expression(loop.iter, purity, registry)
        target = analyze_expression(loop.target, purity, registry)
    else:
        raise TypeError(f"not a loop node: {loop!r}")
    du |= target
    du = du._replace(
        writes=du.writes | {CONTROL_VAR},
        kills=target.name_writes | {CONTROL_VAR},
    )
    return Stmt(node=loop, du=du, is_header=True)


# ----------------------------------------------------------------------
# query-call detection
# ----------------------------------------------------------------------


def find_query_call(node: ast.stmt, registry) -> Optional[QueryCall]:
    """Find the registry-matching call in ``node``, if any, by a fresh
    walk (:class:`StatementFacts` answers from its entries instead)."""
    calls = query_calls(node, registry)
    if not calls:
        return None
    call, spec = calls[0]
    return _query_call(node, call, spec, alone=len(calls) == 1)


def _query_call(node: ast.stmt, call: ast.Call, spec, alone: bool) -> QueryCall:
    """The description of ``node``'s first query call ``call``.

    The call is *top level* — and the statement therefore transformable
    as a query execution statement — only when it is the entire value of
    a simple assignment or expression statement and is the only query
    call in the statement (``alone``).
    """
    receiver = _receiver_of(call)
    if alone and getattr(node, "value", None) is call:
        if isinstance(node, ast.Assign):
            if len(node.targets) == 1 and _is_simple_target(node.targets[0]):
                return QueryCall(call, spec, receiver, node.targets[0], top_level=True)
        elif isinstance(node, ast.Expr):
            return QueryCall(call, spec, receiver, None, top_level=True)
    return QueryCall(call, spec, receiver, None, top_level=False)


def query_calls(node: ast.AST, registry) -> List[tuple]:
    """``(call, spec)`` for every registered blocking call under ``node``,
    in ``ast.walk``'s breadth-first order."""
    found: List[tuple] = []
    todo = deque([node])
    while todo:
        child = todo.popleft()
        todo.extend(children(child))
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Attribute):
                spec = registry.lookup(func.attr)
            elif isinstance(func, ast.Name):
                spec = registry.lookup(func.id)
            else:
                continue
            if spec is not None:
                found.append((child, spec))
    return found


def _receiver_of(call: ast.Call) -> Optional[ast.expr]:
    if isinstance(call.func, ast.Attribute):
        return call.func.value
    return None


def _is_simple_target(target: ast.expr) -> bool:
    if isinstance(target, ast.Name):
        return True
    if isinstance(target, (ast.Tuple, ast.List)):
        return all(isinstance(element, ast.Name) for element in target.elts)
    return False
