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
walking the AST themselves: which registered query calls it contains
(:func:`query_calls`, :func:`find_query_call`), whether control can
leave the enclosing block through it (:func:`leaves_block`), whether
its kind is one the rules understand at every level they reach
(:func:`is_supported`), and how reports name it (:func:`label`) — and
which functions a module holds (:func:`function_defs`), the walk both
passes start from.  Questions about *two* statements belong to
:mod:`repro.analysis.ddg`.
"""

from __future__ import annotations

import ast
import itertools
from collections import deque
from dataclasses import dataclass, field, replace
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .defuse import DefUse, analyze_expression, analyze_statement
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


def leaves_block(node: ast.AST, in_loop: bool = False) -> bool:
    """May executing ``node`` transfer control out of the current block?

    True for ``return``/``raise``/``yield`` anywhere (except inside
    nested function/class definitions, which do not execute here) and
    for ``break``/``continue`` that belong to a loop *enclosing*
    ``node`` (ones inside a loop nested within ``node`` stay contained).
    A ``yield`` hands control to a consumer that may write the database
    or never resume.  (``await`` cannot be met: both passes walk
    ``ast.FunctionDef`` only.)
    """
    if isinstance(node, (ast.Return, ast.Raise, ast.Yield, ast.YieldFrom)):
        return True
    if isinstance(node, (ast.Break, ast.Continue)):
        return not in_loop
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
        return False
    inside = in_loop or isinstance(node, (ast.While, ast.For))
    return any(leaves_block(child, inside) for child in ast.iter_child_nodes(node))


def label(node: ast.AST) -> str:
    """How reports name a statement: its source text, clipped."""
    return ast.unparse(node)[:70]


def function_defs(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    """Every ``def`` in ``tree``, in ``ast.walk``'s breadth-first order,
    without entering expressions (no expression holds a statement).  A
    def's body is queued before the def is yielded, so a caller may
    replace it."""
    todo = deque([tree])
    while todo:
        node = todo.popleft()
        todo.extend(
            child
            for child in ast.iter_child_nodes(node)
            if not isinstance(child, ast.expr)
        )
        if isinstance(node, ast.FunctionDef):
            yield node


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def make_stmt(
    node: ast.stmt,
    purity: PurityEnv,
    registry=None,
    guards: Tuple[Guard, ...] = (),
) -> Stmt:
    """Analyze one statement node into a :class:`Stmt`."""
    du = analyze_statement(node, purity, registry)
    query = find_query_call(node, registry) if registry is not None else None
    return Stmt(node=node, du=du, guards=guards, query=query)


def make_block(
    nodes: Sequence[ast.stmt],
    purity: PurityEnv,
    registry=None,
    guards: Tuple[Guard, ...] = (),
) -> List[Stmt]:
    return [make_stmt(node, purity, registry, guards) for node in nodes]


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
    du = replace(
        du,
        writes=du.writes | {CONTROL_VAR},
        kills=target.name_writes | {CONTROL_VAR},
    )
    return Stmt(node=loop, du=du, is_header=True)


# ----------------------------------------------------------------------
# query-call detection
# ----------------------------------------------------------------------


def find_query_call(node: ast.stmt, registry) -> Optional[QueryCall]:
    """Find the registry-matching call in ``node``, if any.

    The call is *top level* — and the statement therefore transformable
    as a query execution statement — only when it is the entire value of
    a simple assignment or expression statement and is the only query
    call in the statement.
    """
    calls = query_calls(node, registry)
    if not calls:
        return None
    call, spec = calls[0]
    receiver = _receiver_of(call)
    if len(calls) == 1 and getattr(node, "value", None) is call:
        if isinstance(node, ast.Assign):
            if len(node.targets) == 1 and _is_simple_target(node.targets[0]):
                return QueryCall(call, spec, receiver, node.targets[0], top_level=True)
        elif isinstance(node, ast.Expr):
            return QueryCall(call, spec, receiver, None, top_level=True)
    return QueryCall(call, spec, receiver, None, top_level=False)


def query_calls(node: ast.AST, registry) -> List[tuple]:
    """``(call, spec)`` for every registered blocking call under ``node``,
    in ``ast.walk``'s breadth-first order (inlined: every transformed
    statement is searched at least once)."""
    found: List[tuple] = []
    todo = deque([node])
    while todo:
        child = todo.popleft()
        for name in child._fields:
            value = getattr(child, name, None)
            if isinstance(value, ast.AST):
                if not isinstance(value, ast.expr_context):
                    todo.append(value)
            elif isinstance(value, list):
                todo.extend(item for item in value if isinstance(item, ast.AST))
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
