"""Prefetch insertion: hoist query submissions to their earliest safe point.

Loop fission (Rule A) overlaps queries *across iterations*.  This pass
covers the complementary straight-line case: a blocking query statement

    profile = conn.execute_query(PROFILE_SQL, [user_id])
    summary = summarize(inputs)
    if detailed:
        extra = conn.execute_query(EXTRA_SQL, [user_id])
        ...

is split into a ``submit`` and a ``fetch`` half, and the submit is moved
*backward* — past every statement it does not depend on, and (guarded)
out of the conditional that consumes it::

    if detailed:
        __prefetch_h1 = conn.submit_query(EXTRA_SQL, [user_id])
    profile = conn.execute_query(PROFILE_SQL, [user_id])
    summary = summarize(inputs)
    if detailed:
        extra = conn.fetch_result(__prefetch_h1)
        ...

The legality rules are the same dependence conditions the loop rules
use, applied within one block (moving a statement earlier inside one
iteration never reorders anything across iterations):

* no flow/anti/output dependence between the submit and any statement it
  passes (argument expressions may mutate — ``items.pop()`` — so both
  directions are checked);
* no conflicting *external* access may be crossed: an ``execute_update``
  or a transaction barrier on the same resource stops the hoist — this
  reuses the registry effect machinery and the barrier wildcard;
* only ``read``-effect queries are prefetched; writes keep their order;
* the submit never crosses an early exit — ``return``/``raise``, or a
  ``break``/``continue`` belonging to an enclosing loop — so no query
  is issued in an execution where the original exited first;
* the submit never crosses a ``yield``: the consumer runs there, and
  may update the row the query reads or never resume the generator;
* a hoist out of a conditional duplicates the test, so the test must be
  effect-free, and the emitted submit stays guarded — the query multiset
  is unchanged, submissions just start earlier.

A rewrite is kept only when the submit actually moved (or escaped its
conditional); a split that stays put would add noise for no overlap.

**Speculative (unguarded) mode** — ``speculate=True`` — relaxes the
last rule for read-only queries whose registry spec declares a
speculative form: the lifted submit is emitted *without* its guard, as
a ``speculate_query`` dispatch whose handle is simply abandoned when
the guard turns out false.  Dropping the guard also drops the data
dependence on the guard's inputs, so a speculative submit can climb
past the very statements that *compute* the guard — the case the
guarded hoist can never touch (e.g. a detail lookup conditioned on the
first query's result).  The query multiset is deliberately no longer
preserved: extra read-only submissions may be issued.  Nothing *else*
may change, though — the lifted submit's receiver and argument
expressions are evaluated in executions where the guard was false, so
the lift is taken only when every one of them is total and effect-free
(constants and plain names that are definitely bound at the lift
point; see ``_total_unguarded``).  An argument like ``x.id`` under
``if x is not None``, a mutating one like ``items.pop()``, or a local
bound only conditionally (``if flag: y = 1`` before ``if flag:
... [y]`` would raise ``UnboundLocalError`` unguarded) keeps the site
on the guarded hoist.  Every surviving
site is gated by a :class:`~repro.transform.costmodel.SpeculationPolicy`
(estimated hit probability x round trip saved vs. wasted-submit cost),
so cold or worthless speculations fall back to the guarded hoist.  The
runtime contract for the abandoned handles lives in
:meth:`repro.core.submission.SubmissionPipeline.speculate`.
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..transform.costmodel import SpeculationPolicy

from ..analysis.ddg import external_dependences
from ..ir.defuse import (
    analyze_statement,
    bound_names,
    harmless_to_reevaluate,
    import_bound_names,
)
from ..ir.purity import PurityEnv
from ..ir.statements import find_query_call, label, leaves_block
from ..transform.codegen import located, name_load, name_store, split_query
from ..transform.names import NameAllocator
from ..transform.registry import QueryRegistry, default_registry

#: Attribute set on a submit statement sitting at the top of an ``if``
#: body whose test is effect-free: the parent block may lift it out.
HOIST_ATTR = "_repro_prefetch_hoistable"
#: Attribute linking a generated submit back to its report entry.
SITE_ATTR = "_repro_prefetch_site"


@dataclass
class PrefetchSite:
    """One query submission moved by the pass (for reports/tests)."""

    function: str
    lineno: int
    label: str
    #: Statements (and lifted conditionals) the submit moved above.
    hoisted_past: int = 0
    #: True when the submit was lifted out of a conditional and re-guarded.
    guarded: bool = False
    #: True when the submit was lifted out *unguarded* (speculative mode):
    #: the query may be issued in executions the original never ran it.
    speculative: bool = False


class PrefetchInserter:
    """AST pass inserting earliest-point ``submit_query`` calls.

    ``speculate=True`` enables the unguarded lift for read-only queries
    whose spec declares a speculative form; ``speculation`` (a
    :class:`~repro.transform.costmodel.SpeculationPolicy`, default
    policy when omitted) prices each site — rejected sites keep the
    guarded hoist.
    """

    def __init__(
        self,
        registry: Optional[QueryRegistry] = None,
        purity: Optional[PurityEnv] = None,
        speculate: bool = False,
        speculation: Optional["SpeculationPolicy"] = None,
    ) -> None:
        self.registry = registry or default_registry()
        self.purity = purity or PurityEnv()
        self.speculate = speculate
        if speculate and speculation is None:
            from ..transform.costmodel import SpeculationPolicy

            speculation = SpeculationPolicy()
        self.speculation = speculation
        #: Locals of the function currently being processed (an
        #: over-approximation — see ``_assigned_names``); a name in it
        #: may only escape a guard where it is definitely bound.
        self._locals: Set[str] = set()

    # ------------------------------------------------------------------
    def run(self, tree: ast.AST) -> List[PrefetchSite]:
        """Rewrite ``tree`` in place; returns the inserted sites."""
        allocator = NameAllocator.for_tree(tree)
        sites: List[PrefetchSite] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                self._locals = _assigned_names(node)
                node.body = self._process_block(
                    node.body, node.name, allocator, sites,
                    liftable=False, bound=_parameter_names(node),
                )
        ast.fix_missing_locations(tree)
        return sites

    # ------------------------------------------------------------------
    # block processing (innermost first; lifts propagate outward)
    # ------------------------------------------------------------------
    def _process_block(
        self,
        nodes: List[ast.stmt],
        function: str,
        allocator: NameAllocator,
        sites: List[PrefetchSite],
        liftable: bool,
        bound: Set[str],
    ) -> List[ast.stmt]:
        """``bound`` is the set of locals definitely bound when the
        block is entered; it grows statement by statement and prices
        the unguarded lift (a lifted submit may only read locals that
        are definitely bound where it lands)."""
        out: List[ast.stmt] = []
        for node in nodes:
            deleted = _deleted_names(node)
            if isinstance(node, ast.If):
                node.body = self._process_block(
                    node.body, function, allocator, sites,
                    # Lifting duplicates the test.
                    liftable=harmless_to_reevaluate(
                        node.test, self.purity, self.registry
                    ),
                    bound=set(bound),
                )
                node.orelse = self._process_block(
                    node.orelse, function, allocator, sites,
                    liftable=False, bound=set(bound),
                )
                for guarded in self._lift_from_if(node, bound):
                    out.append(guarded)
                    self._hoist_existing(out, len(out) - 1)
                out.append(node)
            elif isinstance(node, (ast.While, ast.For)):
                # Within a loop body submits may move earlier *inside the
                # iteration*; crossing the loop boundary would change how
                # many times the query runs, so nothing lifts out.  A
                # prior iteration may already have run the body's dels,
                # so they are subtracted from the body's own entry set.
                body_bound = set(bound) - deleted
                if isinstance(node, ast.For):
                    body_bound |= bound_names(node.target)
                node.body = self._process_block(
                    node.body, function, allocator, sites,
                    liftable=False, bound=body_bound,
                )
                if node.orelse:
                    node.orelse = self._process_block(
                        node.orelse, function, allocator, sites,
                        liftable=False, bound=set(bound) - deleted,
                    )
                out.append(node)
            elif isinstance(node, (ast.Try, ast.With)):
                body_bound = set(bound)
                if isinstance(node, ast.With):
                    for item in node.items:
                        if item.optional_vars is not None:
                            body_bound |= bound_names(item.optional_vars)
                # Handlers/orelse/finalbody run after a (possibly
                # partial) body execution whose dels already happened.
                after_partial = set(bound) - deleted
                for attr in ("body", "orelse", "finalbody"):
                    block = getattr(node, attr, None)
                    if block:
                        setattr(
                            node,
                            attr,
                            self._process_block(
                                block, function, allocator, sites,
                                liftable=False,
                                bound=(
                                    body_bound if attr == "body"
                                    else set(after_partial)
                                ),
                            ),
                        )
                for handler in getattr(node, "handlers", []):
                    handler.body = self._process_block(
                        handler.body, function, allocator, sites,
                        liftable=False, bound=set(after_partial),
                    )
                out.append(node)
            else:
                out.append(node)
            # Union before subtracting: a path that dels a name beats
            # a sibling path that binds it.
            bound |= _definite_bindings(node)
            bound -= deleted
        self._insert_prefetches(out, function, allocator, sites, liftable)
        return out

    # ------------------------------------------------------------------
    # splitting query statements and hoisting their submits
    # ------------------------------------------------------------------
    def _insert_prefetches(
        self,
        block: List[ast.stmt],
        function: str,
        allocator: NameAllocator,
        sites: List[PrefetchSite],
        liftable: bool,
    ) -> None:
        index = len(block) - 1
        while index >= 0:
            rewrite = self._try_rewrite(block[index], allocator)
            if rewrite is None:
                index -= 1
                continue
            submit_stmt, fetch_stmt = rewrite
            target = self._hoist_target(block, index, submit_stmt)
            if target == index and not (liftable and index == 0):
                index -= 1  # no movement, no lift possible: keep blocking
                continue
            site = PrefetchSite(
                function=function,
                lineno=getattr(block[index], "lineno", 0),
                label=label(block[index]),
                hoisted_past=index - target,
            )
            setattr(submit_stmt, SITE_ATTR, site)
            block[index] = fetch_stmt
            block.insert(target, submit_stmt)
            if target == 0 and liftable:
                setattr(submit_stmt, HOIST_ATTR, True)
            sites.append(site)
            # The element formerly at index-1 now sits at index (when the
            # insert landed above it); otherwise step down normally.
            if target == index:
                index -= 1

    def _try_rewrite(
        self, node: ast.stmt, allocator: NameAllocator
    ) -> Optional[Tuple[ast.stmt, ast.stmt]]:
        query = find_query_call(node, self.registry)
        if query is None or not query.top_level:
            return None
        if query.spec.effect != "read":
            return None  # writes are never speculated or reordered
        if query.receiver is None:
            return None  # method-style calls only (the registry contract)
        handle = allocator.fresh("__prefetch_h")
        return split_query(query, name_store(handle), name_load(handle))

    # ------------------------------------------------------------------
    # hoisting machinery
    # ------------------------------------------------------------------
    def _hoist_target(
        self, block: List[ast.stmt], index: int, moving: ast.stmt
    ) -> int:
        moving_du = analyze_statement(moving, self.purity, self.registry)
        target = index
        while target > 0:
            prev = block[target - 1]
            if leaves_block(prev):
                # Hoisting above a return/raise/yield (or a break/
                # continue of an enclosing loop) would issue queries in
                # executions where the original exited first — the
                # multiset invariant only holds below such statements.
                break
            prev_du = analyze_statement(prev, self.purity, self.registry)
            if (
                prev_du.writes & moving_du.reads  # flow: prev feeds the submit
                # anti/output: argument expressions may mutate state
                or moving_du.writes & (prev_du.reads | prev_du.writes)
                # an update or barrier on the resource the query reads
                or next(external_dependences(prev_du, moving_du), None)
            ):
                break
            target -= 1
        return target

    def _hoist_existing(self, block: List[ast.stmt], index: int) -> int:
        """Move an already-materialized statement (a lifted, guarded
        submit) as far up its new block as dependences allow."""
        target = self._hoist_target(block, index, block[index])
        if target != index:
            node = block.pop(index)
            block.insert(target, node)
            site = getattr(node, SITE_ATTR, None)
            if site is not None:
                site.hoisted_past += index - target
        return target

    # ------------------------------------------------------------------
    # lifting guarded submits out of conditionals
    # ------------------------------------------------------------------
    def _lift_from_if(self, node: ast.If, bound: Set[str]) -> List[ast.stmt]:
        lifted: List[ast.stmt] = []
        while len(node.body) > 1 and getattr(node.body[0], HOIST_ATTR, False):
            submit = node.body.pop(0)
            setattr(submit, HOIST_ATTR, False)
            site = getattr(submit, SITE_ATTR, None)
            speculative_name = self._speculative_name(submit, bound)
            if speculative_name is not None:
                # Unguarded lift: the submit escapes the conditional as
                # a speculative dispatch.  No guard is emitted, so the
                # later hoist is free of the guard's data dependences.
                submit.value.func.attr = speculative_name
                if site is not None:
                    site.speculative = True
                    site.hoisted_past += 1  # crossed the conditional
                lifted.append(submit)
                continue
            guarded = located(
                ast.copy_location(
                    ast.If(test=copy.deepcopy(node.test), body=[submit], orelse=[]),
                    node,
                )
            )
            if site is not None:
                site.guarded = True
                site.hoisted_past += 1  # crossed the conditional boundary
                setattr(guarded, SITE_ATTR, site)
            lifted.append(guarded)
        return lifted

    def _speculative_name(
        self, submit: ast.stmt, bound: Set[str]
    ) -> Optional[str]:
        """Speculative method name for a lifted submit, or None when the
        site must stay guarded (mode off, no speculative form declared,
        receiver/argument expressions unsafe to evaluate unguarded, or
        the cost model rejects the speculation)."""
        if not self.speculate or self.speculation is None:
            return None
        call = getattr(submit, "value", None)
        if not isinstance(call, ast.Call) or not isinstance(
            call.func, ast.Attribute
        ):
            return None
        spec = self.registry.lookup_async(call.func.attr)
        if spec is None or not spec.speculate:
            return None
        if not self._total_unguarded(call, bound):
            return None
        if not self.speculation.approves():
            return None
        return spec.speculate

    def _total_unguarded(self, call: ast.Call, bound: Set[str]) -> bool:
        """May the lifted submit be *evaluated* where its guard is false?

        Speculation only adds extra read-only submissions — it must not
        add crashes or side effects.  The unguarded lift evaluates the
        call's receiver and argument expressions in executions the
        original never evaluated them in, so every one of them must be
        total (cannot raise) and effect-free (cannot mutate) without
        the guard's premise.  Only constants, plain names, and
        tuples/lists of those qualify — and a name that is a local of
        the function must additionally be *definitely bound* at the
        lift point (``bound``): a local assigned only under the same
        condition would raise ``UnboundLocalError`` on the false path.
        An attribute access (``x.id`` under ``if x is not None``), a
        call (``items.pop()``), a subscript, or an operator may crash
        or mutate state exactly when the guard would have been false.
        Non-local names (module globals like a SQL constant, builtins)
        are assumed bound, as the module-evaluation order already does.
        """

        def total(node: ast.expr) -> bool:
            if isinstance(node, ast.Constant):
                return True
            if isinstance(node, ast.Name):
                return isinstance(node.ctx, ast.Load) and (
                    node.id in bound or node.id not in self._locals
                )
            if isinstance(node, (ast.Tuple, ast.List)):
                return all(total(elt) for elt in node.elts)
            return False

        if not total(call.func.value):
            return False
        if any(kw.arg is None for kw in call.keywords):
            return False  # ** unpacking may raise on a non-mapping
        return all(total(arg) for arg in call.args) and all(
            total(kw.value) for kw in call.keywords
        )


def _parameter_names(fn: ast.FunctionDef) -> Set[str]:
    """The function's parameters — bound from the moment it is entered."""
    args = fn.args
    names = {
        a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


#: Match-pattern nodes (3.10+) that bind a capture through a plain
#: string attribute instead of a ``Name(Store)`` node.
_MATCH_CAPTURE_NODES = tuple(
    cls
    for cls in (getattr(ast, "MatchAs", None), getattr(ast, "MatchStar", None))
    if cls is not None
)
_MATCH_REST_NODES = tuple(
    cls for cls in (getattr(ast, "MatchMapping", None),) if cls is not None
)


def _assigned_names(fn: ast.FunctionDef) -> Set[str]:
    """Every name ``fn`` may bind — an *over*-approximation of its
    locals (nested scopes are not excluded: misclassifying a global as
    a local only costs a guarded fallback, never a crash)."""
    names = _parameter_names(fn)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(import_bound_names(node))
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, _MATCH_CAPTURE_NODES) and node.name:
            names.add(node.name)
        elif isinstance(node, _MATCH_REST_NODES) and node.rest:
            names.add(node.rest)
        elif (
            isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            and node is not fn
        ):
            names.add(node.name)
    return names


def _definite_bindings(node: ast.stmt) -> Set[str]:
    """Names definitely bound once control passes ``node``.

    An *under*-approximation — loops (zero iterations) and ``try``
    blocks (a binding may be skipped by the exception) contribute
    nothing, an ``if`` only what both branches bind, a ``with`` only
    its *first* ``as`` target (a suppressing context manager —
    ``contextlib.suppress`` — can swallow the exception that skipped
    the body's bindings *and* a later item's ``__enter__``, leaving
    those names unbound while control still reaches the next
    statement; only the first item's enter has nothing above it to
    suppress) — so a name reported here can never be unbound on any
    path that reaches the next statement.  Deletions are handled by the caller
    (``_deleted_names`` is subtracted *after* this union, so a branch
    that dels wins over one that binds).
    """
    out: Set[str] = set()
    if isinstance(node, ast.Assign):
        for target in node.targets:
            out |= bound_names(target)
    elif isinstance(node, ast.AnnAssign):
        if node.value is not None:
            out |= bound_names(node.target)
    elif isinstance(node, ast.AugAssign):
        out |= bound_names(node.target)  # completing implies it was bound
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        out |= import_bound_names(node)
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        out.add(node.name)
    elif isinstance(node, ast.If) and node.orelse:
        def block(stmts: List[ast.stmt]) -> Set[str]:
            names: Set[str] = set()
            for stmt in stmts:
                names |= _definite_bindings(stmt)
            return names

        out |= block(node.body) & block(node.orelse)
    elif isinstance(node, ast.With) and node.items:
        first = node.items[0]
        if first.optional_vars is not None:
            out |= bound_names(first.optional_vars)
    return out


def _deleted_names(node: ast.stmt) -> Set[str]:
    """Names a ``del`` anywhere inside ``node`` *may* unbind — an
    over-approximation (a del on any conditional path revokes the
    definite binding; erring toward unbound only costs a guarded
    fallback)."""
    return {
        child.id
        for child in ast.walk(node)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Del)
    }


# ----------------------------------------------------------------------
# front end
# ----------------------------------------------------------------------


def prefetch_source(
    source: str,
    *,
    speculate: bool = False,
    speculate_threshold: Optional[float] = None,
    speculation: Optional["SpeculationPolicy"] = None,
    **options,
):
    """Transform ``source`` with the full pipeline *plus* prefetch
    insertion — the companion of :func:`repro.transform.asyncify_source`,
    whose other ``options`` it forwards.

    Query loops get Rule A fission as usual; remaining straight-line
    query statements get earliest-point submission.

    ``speculate=True`` additionally enables the unguarded (speculative)
    lift, gated per site by ``speculation`` (a
    :class:`~repro.transform.costmodel.SpeculationPolicy`; a default
    policy is built when omitted).  ``speculate_threshold`` overrides
    the policy's minimum hit probability — the CLI's
    ``--speculate-threshold``.
    """
    from ..transform.asyncify import asyncify_source

    if speculate_threshold is not None:
        if not speculate:
            raise ValueError("speculate_threshold requires speculate=True")
        if speculation is None:
            from ..transform.costmodel import SpeculationPolicy

            speculation = SpeculationPolicy()
        speculation = speculation.with_threshold(speculate_threshold)

    return asyncify_source(
        source,
        prefetch=True,
        speculate=speculate,
        speculation=speculation,
        **options,
    )
