"""Def/use extraction and variable renaming over Python ``ast`` nodes.

Variables are tracked at *object granularity*: ``a.b = x`` and
``a[i] = x`` are writes of ``a`` (plus a read — the container survives),
the way the paper's analysis treats updates through references.  Method
calls consult the :class:`~repro.ir.purity.PurityEnv`; query calls
consult the transformation registry for their external (database / web /
io) effects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, fields
from typing import Dict, FrozenSet, Optional, Set, Tuple

from .nodes import copy_tree, subtree
from .purity import PurityEnv


class RenameUnsupported(Exception):
    """A read/write of the variable cannot be syntactically renamed
    (e.g. it happens through a subscript, attribute or method-call
    mutation).  The reordering rules treat this as "statement cannot be
    moved"."""


@dataclass(frozen=True)
class DefUse:
    """Def/use summary of one statement."""

    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()
    #: Variables *unconditionally* overwritten — used by the loop-carried
    #: kill analysis (a killed definition cannot reach the next
    #: iteration).
    kills: FrozenSet[str] = frozenset()
    #: Subset of ``writes`` performed through a plain name binding or
    #: unbinding (``v = ...`` / ``v += ...`` / ``del v``); the complement
    #: happens through mutation (attribute/subscript stores, mutating
    #: method calls) and cannot be spilled by value into split-variable
    #: records.
    name_writes: FrozenSet[str] = frozenset()
    #: Subset of ``name_writes`` that leave the name unbound (``del v``).
    unbinds: FrozenSet[str] = frozenset()
    external_reads: FrozenSet[str] = frozenset()
    external_writes: FrozenSet[str] = frozenset()
    #: External resources whose writes from this statement commute with
    #: each other (e.g. key-distinct INSERTs declared commuting).
    commuting: FrozenSet[str] = frozenset()

    def __or__(self, other: "DefUse") -> "DefUse":
        """Both summaries' accesses, as of one statement."""
        return DefUse(
            *(getattr(self, f.name) | getattr(other, f.name) for f in fields(self))
        )


class _Collector(ast.NodeVisitor):
    """Accumulates def/use facts while walking one statement."""

    def __init__(self, purity: PurityEnv, registry=None) -> None:
        self._purity = purity
        self._registry = registry
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        self.name_writes: Set[str] = set()
        self.unbinds: Set[str] = set()
        self.kills: Set[str] = set()
        self.external_reads: Set[str] = set()
        self.external_writes: Set[str] = set()
        self.commuting: Set[str] = set()

    def summary(self, kills: FrozenSet[str]) -> DefUse:
        """The facts collected so far, under the caller's kill set."""
        return DefUse(
            reads=frozenset(self.reads),
            writes=frozenset(self.writes),
            kills=kills,
            name_writes=frozenset(self.name_writes),
            unbinds=frozenset(self.unbinds),
            external_reads=frozenset(self.external_reads),
            external_writes=frozenset(self.external_writes),
            commuting=frozenset(self.commuting),
        )

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.reads.add(node.id)
        elif isinstance(node.ctx, ast.Store):
            self.writes.add(node.id)
            self.name_writes.add(node.id)
            self.kills.add(node.id)
        elif isinstance(node.ctx, ast.Del):
            # Unbinding rebinds the name and mutates no object.
            self.writes.add(node.id)
            self.name_writes.add(node.id)
            self.unbinds.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        base = base_name(node)
        if base is not None:
            self.reads.add(base)
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                # Partial object update: write without kill.
                self.writes.add(base)
        else:
            self.visit(node.value)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        base = base_name(node.value)
        if base is not None:
            self.reads.add(base)
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                self.writes.add(base)
        else:
            self.visit(node.value)
        self.visit(node.slice)

    def visit_Call(self, node: ast.Call) -> None:
        for argument in node.args:
            self.visit(argument)
        for keyword in node.keywords:
            self.visit(keyword.value)
        func = node.func
        if isinstance(func, ast.Attribute):
            self.visit(func.value)
            method = func.attr
            spec = self._registry.lookup(method) if self._registry else None
            if spec is not None:
                self._apply_query_effect(spec)
                return
            if self._registry is not None:
                async_spec = self._registry.lookup_async(method)
                if async_spec is not None:
                    # Generated submit call: the external action happens
                    # at submission; the receiver is not mutated.
                    self._apply_query_effect(async_spec)
                    return
                if self._registry.is_barrier(method):
                    # Transaction-scope call: conflicts with every
                    # external access, and mutates the connection.
                    self.external_writes.add("*")
                    base = base_name(func.value)
                    if base is not None:
                        self.writes.add(base)
                    return
            if self._purity.method_mutates_receiver(method):
                base = base_name(func.value)
                if base is not None:
                    self.writes.add(base)
            return
        if isinstance(func, ast.Name):
            name = func.id
            self.reads.add(name)  # the callee may be a local variable
            effect = self._purity.function_effect(name)
            if effect is not None:
                for index in effect.mutates_args:
                    if index < len(node.args):
                        base = base_name(node.args[index])
                        if base is not None:
                            self.writes.add(base)
                self.external_reads.update(effect.reads_resources)
                self.external_writes.update(effect.writes_resources)
                return
            if self._purity.is_io_function(name):
                if self._purity.io_ordering_matters:
                    self.external_writes.add("io")
                return
            # Unknown plain function: assumed argument-pure (documented
            # policy; register mutators explicitly).
            return
        self.visit(func)

    def _apply_query_effect(self, spec) -> None:
        if spec.effect == "read":
            self.external_reads.add(spec.resource)
        elif spec.effect == "write":
            self.external_writes.add(spec.resource)
        elif spec.effect == "commuting_write":
            self.external_writes.add(spec.resource)
            self.commuting.add(spec.resource)
        else:  # pragma: no cover - registry validates
            raise ValueError(f"unknown query effect {spec.effect!r}")

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        target = node.target
        if isinstance(target, ast.Name):
            self.reads.add(target.id)
            self.writes.add(target.id)
            self.name_writes.add(target.id)
            self.kills.add(target.id)
        else:
            base = base_name(target)
            if base is not None:
                self.reads.add(base)
                self.writes.add(base)
            if isinstance(target, ast.Subscript):
                self.visit(target.slice)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        # Comprehension targets are scoped to the comprehension;
        # only the iterable and conditions constitute reads.
        self.visit(node.iter)
        for condition in node.ifs:
            self.visit(condition)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # Free variables of the body are reads; parameter names shadow.
        shadowed = {arg.arg for arg in node.args.args}
        inner = _Collector(self._purity, self._registry)
        inner.visit(node.body)
        self.reads.update(inner.reads - shadowed)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.writes.add(node.name)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # The class *name* is bound like a def's; the body still
        # contributes its own reads/writes.
        self.writes.add(node.name)
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        # Imports bind names just like assignments do; without this a
        # statement referencing the imported name could be reordered
        # above its import.
        self.writes.update(import_bound_names(node))

    visit_ImportFrom = visit_Import  # type: ignore[assignment]

    # Match patterns (3.10+) bind captures through a plain string
    # attribute, invisible to visit_Name; the methods simply never
    # dispatch on interpreters without the node types.
    def visit_MatchAs(self, node) -> None:
        if node.name:
            self.writes.add(node.name)
        self.generic_visit(node)

    def visit_MatchStar(self, node) -> None:
        if node.name:
            self.writes.add(node.name)

    def visit_MatchMapping(self, node) -> None:
        if node.rest:
            self.writes.add(node.rest)
        self.generic_visit(node)


def base_name(node: ast.expr) -> Optional[str]:
    """Innermost ``Name`` of an attribute/subscript chain, else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def bound_names(target: ast.expr) -> Set[str]:
    """Plain names a store through ``target`` binds (tuple/list/star
    patterns included; ``a.b = ...`` / ``a[i] = ...`` bind no name)."""
    return {
        node.id
        for node in ast.walk(target)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }


def import_bound_names(node) -> Set[str]:
    """Names an ``import``/``from-import`` statement binds — the one
    definition shared by the def/use collector and the prefetch pass's
    binding analyses, so they cannot diverge."""
    return {
        alias.asname or alias.name.split(".")[0] for alias in node.names
    }


def analyze_statement(node: ast.stmt, purity: PurityEnv, registry=None) -> DefUse:
    """Compute the def/use summary of one statement node.

    Compound statements (If/While/For) are summarized conservatively as
    a unit: union of reads/writes, empty kill set (their writes may not
    execute).
    """
    collector = _Collector(purity, registry)
    if isinstance(node, (ast.If, ast.While, ast.For)):
        _collect_compound(node, collector)
        return collector.summary(frozenset())
    collector.visit(node)
    return collector.summary(frozenset(collector.kills))


def _collect_compound(node: ast.stmt, collector: _Collector) -> None:
    if isinstance(node, ast.If):
        collector.visit(node.test)
        for child in node.body + node.orelse:
            _collect_into(child, collector)
    elif isinstance(node, ast.While):
        collector.visit(node.test)
        for child in node.body + node.orelse:
            _collect_into(child, collector)
    elif isinstance(node, ast.For):
        collector.visit(node.iter)
        # The loop variable is written each iteration.
        target_collector = _Collector(collector._purity, collector._registry)
        target_collector.visit(node.target)
        collector.writes.update(target_collector.writes)
        for child in node.body + node.orelse:
            _collect_into(child, collector)


def _collect_into(node: ast.stmt, collector: _Collector) -> None:
    if isinstance(node, (ast.If, ast.While, ast.For)):
        _collect_compound(node, collector)
    else:
        collector.visit(node)


def analyze_expression(node: ast.expr, purity: PurityEnv, registry=None) -> DefUse:
    """Def/use of a bare expression (loop predicates, iterables)."""
    collector = _Collector(purity, registry)
    collector.visit(node)
    return collector.summary(frozenset())


def harmless_to_reevaluate(node: ast.expr, purity: PurityEnv, registry) -> bool:
    """Is evaluating ``node`` once more — or at another point — invisible
    to the rest of the program?  The one answer behind duplicating a
    ``while`` predicate per window, lifting a guard above its ``if`` and
    hoisting a query past the calls evaluated before it.

    It writes nothing (a walrus is a write), touches no external
    resource (a registered query is a read of one), suspends nowhere,
    and every call in it is a registered-pure function or a
    non-mutating method: an unknown plain function is assumed not to
    mutate its *arguments* (the def/use policy), which does not make
    running it twice harmless.
    """
    du = analyze_expression(node, purity, registry)
    if du.writes or du.external_reads or du.external_writes:
        return False
    for child in subtree(node):
        if isinstance(child, (ast.Await, ast.Yield, ast.YieldFrom)):
            return False
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Name):
                pure = purity.is_pure_function(func.id)
            else:
                pure = isinstance(
                    func, ast.Attribute
                ) and not purity.method_mutates_receiver(func.attr)
            if not pure:
                return False
    return True


# ----------------------------------------------------------------------
# renaming (Rules C2 / C3 support)
# ----------------------------------------------------------------------


class _ReadRenamer(ast.NodeTransformer):
    def __init__(self, old: str, new: str) -> None:
        self._old = old
        self._new = new
        self.blocked: Optional[str] = None

    def visit_Name(self, node: ast.Name) -> ast.AST:
        if node.id == self._old and isinstance(node.ctx, ast.Load):
            return ast.copy_location(ast.Name(id=self._new, ctx=ast.Load()), node)
        return node

    def visit_AugAssign(self, node: ast.AugAssign) -> ast.AST:
        # ``old += e``: the target is both read and write — reads cannot
        # be renamed independently at this syntax level.
        if isinstance(node.target, ast.Name) and node.target.id == self._old:
            self.blocked = (
                f"augmented assignment to {self._old!r} fuses its read and write"
            )
            return node
        self.generic_visit(node)
        return node


def rename_reads(node: ast.stmt, old: str, new: str) -> ast.stmt:
    """Return a copy of ``node`` with all *reads* of ``old`` renamed;
    each new name takes the position of the one it replaces.

    Raises :class:`RenameUnsupported` when the read cannot be separated
    from a write (augmented assignment).
    """
    renamer = _ReadRenamer(old, new)
    result = renamer.visit(copy_tree(node))
    if renamer.blocked:
        raise RenameUnsupported(renamer.blocked)
    return result


class _WriteRenamer(ast.NodeTransformer):
    def __init__(self, old: str, new: str, purity: Optional[PurityEnv] = None) -> None:
        self._old = old
        self._new = new
        self._purity = purity or _DEFAULT_PURITY
        self.blocked: Optional[str] = None

    def visit_Name(self, node: ast.Name) -> ast.AST:
        if node.id == self._old and isinstance(node.ctx, ast.Store):
            return ast.copy_location(ast.Name(id=self._new, ctx=ast.Store()), node)
        if node.id == self._old and isinstance(node.ctx, ast.Del):
            # ``del new`` would unbind nothing the restore could copy.
            self.blocked = f"{self._old!r} is unbound, not written"
        return node

    def visit_AugAssign(self, node: ast.AugAssign) -> ast.AST:
        if isinstance(node.target, ast.Name) and node.target.id == self._old:
            # ``old += e``  ==>  ``new = old <op> e`` — write renamed,
            # read preserved (this is exactly Rule C3's requirement).
            target = node.target
            replacement = ast.Assign(
                targets=[
                    ast.copy_location(ast.Name(id=self._new, ctx=ast.Store()), target)
                ],
                value=ast.copy_location(
                    ast.BinOp(
                        left=ast.copy_location(
                            ast.Name(id=self._old, ctx=ast.Load()), target
                        ),
                        op=node.op,
                        right=node.value,
                    ),
                    node,
                ),
            )
            return ast.copy_location(replacement, node)
        self.generic_visit(node)
        return node

    def visit_Attribute(self, node: ast.Attribute) -> ast.AST:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            if base_name(node) == self._old:
                self.blocked = (
                    f"write of {self._old!r} happens through an attribute"
                )
        self.generic_visit(node)
        return node

    def visit_Subscript(self, node: ast.Subscript) -> ast.AST:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            if base_name(node.value) == self._old:
                self.blocked = (
                    f"write of {self._old!r} happens through a subscript"
                )
        self.generic_visit(node)
        return node

    def visit_Call(self, node: ast.Call) -> ast.AST:
        # A mutation through a method call cannot be renamed (pure
        # methods are only reads and are fine).
        if isinstance(node.func, ast.Attribute):
            if base_name(node.func.value) == self._old:
                if self._purity.method_mutates_receiver(node.func.attr):
                    self.blocked = (
                        f"write of {self._old!r} happens through a method call"
                    )
        self.generic_visit(node)
        return node


#: Default effect environment used when the caller does not supply one.
_DEFAULT_PURITY = PurityEnv()


def rename_writes(node: ast.stmt, old: str, new: str) -> ast.stmt:
    """Return a copy of ``node`` with all *writes* of ``old`` renamed.

    Augmented assignments are rewritten to plain assignments reading the
    old variable.  Each new node takes the position of the node it
    replaces.  Writes through attributes, subscripts or mutating method
    calls, and a ``del`` of the variable, raise
    :class:`RenameUnsupported`.
    """
    renamer = _WriteRenamer(old, new)
    result = renamer.visit(copy_tree(node))
    if renamer.blocked:
        raise RenameUnsupported(renamer.blocked)
    return result
