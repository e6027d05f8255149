"""The transformation engine: the paper's Figure 7 pipeline.

``parse -> analyze -> apply rules iteratively -> emit source``:

1. parse the module and walk every function,
2. for each loop (innermost first) containing blocking query calls:
   flatten conditionals into guards (Rule B), build the DDG, check the
   true-dependence-cycle condition (Theorem 4.1), reorder statements if
   the fission preconditions fail (Section IV), and split the loop
   (Rule A) — repeating on the generated fetch loop for further query
   statements, and splitting enclosing loops across inner submit/fetch
   pairs (nested-loop rule, Example 5),
3. regroup guards for readability (Section V) and unparse.

Every outcome — transformed or blocked, and why — is recorded in the
:class:`TransformResult` report consumed by the Table I applicability
analyzer.
"""

from __future__ import annotations

import ast
import copy
import textwrap
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..analysis.cycles import on_true_cycle
from ..analysis.ddg import DDG, build_ddg
from ..ir.purity import PurityEnv
from ..ir.statements import (
    ROLE_ATTR,
    StatementFacts,
    Stmt,
    function_defs,
    is_supported,
    label,
    make_header,
)
from .errors import (
    REASON_CONTROL,
    REASON_EMBEDDED_QUERY,
    REASON_PRECONDITION,
    REASON_RECURSION,
    REASON_TRUE_CYCLE,
    REASON_UNSUPPORTED_STMT,
    LoopNotTransformable,
    ReorderFailed,
    TransformError,
)
from .names import NameAllocator
from .normalize import normalize_block
from .pipelining import wrap_window
from .registry import QueryRegistry, default_registry
from .rule_fission import ROLE_FETCH, ROLE_SUBMIT, check_preconditions, fission
from .rule_guards import flatten_block
from .rule_reorder import ReorderOutcome, reorder


@dataclass
class QueryOutcome:
    """Fate of one query-execution site."""

    #: The statement (named when the report is read) or a name such as
    #: ``"(loop)"``.
    subject: object
    status: str  # "transformed" | "blocked"
    reason: str = ""
    reorder_moves: int = 0
    reader_stubs: int = 0
    writer_stubs: int = 0
    split_vars: List[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return label(self.subject)


@dataclass
class LoopReport:
    """Fate of one loop that contained query calls."""

    function: str
    lineno: int
    kind: str  # "while" | "for"
    outcomes: List[QueryOutcome] = field(default_factory=list)
    blocked_reason: str = ""

    @property
    def transformed(self) -> bool:
        return any(outcome.status == "transformed" for outcome in self.outcomes)


@dataclass
class TransformResult:
    """Output of one engine run."""

    source: str
    tree: ast.Module
    reports: List[LoopReport]
    elapsed_s: float = 0.0
    #: Filled by the prefetch-insertion pass (``prefetch=True``): one
    #: :class:`repro.prefetch.insertion.PrefetchSite` per hoisted submit.
    prefetch_sites: List[object] = field(default_factory=list)

    @property
    def opportunities(self) -> int:
        return len(self.reports)

    @property
    def transformed_loops(self) -> int:
        return sum(1 for report in self.reports if report.transformed)

    def summary(self) -> str:
        lines = [
            f"{self.transformed_loops}/{self.opportunities} query loops "
            f"transformed in {self.elapsed_s * 1000:.1f} ms"
        ]
        for report in self.reports:
            state = "transformed" if report.transformed else "blocked"
            lines.append(
                f"  {report.function}:{report.lineno} ({report.kind}) {state}"
            )
            for outcome in report.outcomes:
                detail = outcome.reason and f" [{outcome.reason}]" or ""
                lines.append(f"    {outcome.status}: {outcome.label}{detail}")
        for site in self.prefetch_sites:
            if getattr(site, "speculative", False):
                mode = " (speculative)"
            elif getattr(site, "guarded", False):
                mode = " (guarded)"
            else:
                mode = ""
            lines.append(
                f"  prefetch {site.function}:{site.lineno}{mode} "
                f"hoisted past {site.hoisted_past}: {site.label}"
            )
        return "\n".join(lines)


class TransformEngine:
    """Applies the full rule set to Python source."""

    def __init__(
        self,
        registry: Optional[QueryRegistry] = None,
        purity: Optional[PurityEnv] = None,
        reorder_enabled: bool = True,
        window: Optional[int] = None,
        select: Optional[Callable[[str, str], bool]] = None,
        prefetch: bool = False,
        speculate: bool = False,
        speculation=None,
    ) -> None:
        """``select(function_name, statement_text) -> bool`` restricts
        which query statements are made asynchronous — the paper's
        "we assume that user can specify which query submission
        statements to be transformed" (Section VII).  Unselected
        statements stay blocking; None transforms everything eligible.

        ``prefetch=True`` additionally runs the prefetch-insertion pass
        (:mod:`repro.prefetch.insertion`) after loop fission: remaining
        straight-line query statements are split into submit/fetch and
        the submits hoisted to their earliest safe program point.
        ``speculate=True`` (with ``prefetch``) enables that pass's
        unguarded lift, gated by ``speculation`` — a
        :class:`~repro.transform.costmodel.SpeculationPolicy`.
        """
        self.registry = registry or default_registry()
        self.purity = purity or PurityEnv()
        self.reorder_enabled = reorder_enabled
        self.window = window
        self.select = select
        self.prefetch = prefetch
        self.speculate = speculate
        self.speculation = speculation

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def transform_source(self, source: str) -> TransformResult:
        """Transform every function in a module's source text."""
        started = time.perf_counter()
        text = textwrap.dedent(source)
        tree = ast.parse(text)
        allocator = NameAllocator.for_source(text)
        # Every round and the prefetch pass ask about a node once.
        facts = StatementFacts(self.purity, self.registry)
        reports: List[LoopReport] = []
        for node in function_defs(tree):
            facts.release(node)
            node.body = self._transform_block(
                node.body, node.name, allocator, facts, reports, allow_window=True
            )
        prefetch_sites: List[object] = []
        if self.prefetch:
            # Imported here: repro.prefetch depends on this module.
            from ..prefetch.insertion import PrefetchInserter

            inserter = PrefetchInserter(
                self.registry,
                self.purity,
                speculate=self.speculate,
                speculation=self.speculation,
            )
            prefetch_sites = inserter.run(tree, allocator, facts)
        elapsed = time.perf_counter() - started
        return TransformResult(
            source=ast.unparse(tree),
            tree=tree,
            reports=reports,
            elapsed_s=elapsed,
            prefetch_sites=prefetch_sites,
        )

    # ------------------------------------------------------------------
    # recursive block processing
    # ------------------------------------------------------------------
    def _transform_block(
        self,
        nodes: List[ast.stmt],
        function: str,
        allocator: NameAllocator,
        facts: StatementFacts,
        reports: List[LoopReport],
        allow_window: bool,
    ) -> List[ast.stmt]:
        output: List[ast.stmt] = []
        for node in nodes:
            if isinstance(node, (ast.While, ast.For)):
                # Innermost first: transform loops nested in this body.
                node.body = self._transform_block(
                    node.body, function, allocator, facts, reports, allow_window=False
                )
                replacement = self._try_loop(
                    node, function, allocator, facts, reports, allow_window
                )
                output.extend(replacement if replacement is not None else [node])
            elif isinstance(node, ast.If):
                node.body = self._transform_block(
                    node.body, function, allocator, facts, reports, allow_window
                )
                node.orelse = self._transform_block(
                    node.orelse, function, allocator, facts, reports, allow_window
                )
                output.append(node)
            elif isinstance(node, (ast.Try, ast.With)):
                for attr in ("body", "orelse", "finalbody"):
                    if hasattr(node, attr) and getattr(node, attr):
                        setattr(
                            node,
                            attr,
                            self._transform_block(
                                getattr(node, attr),
                                function,
                                allocator,
                                facts,
                                reports,
                                allow_window,
                            ),
                        )
                for handler in getattr(node, "handlers", []):
                    handler.body = self._transform_block(
                        handler.body, function, allocator, facts, reports, allow_window
                    )
                output.append(node)
            else:
                output.append(node)
        return output

    # ------------------------------------------------------------------
    # one loop
    # ------------------------------------------------------------------
    def _try_loop(
        self,
        loop: ast.stmt,
        function: str,
        allocator: NameAllocator,
        facts: StatementFacts,
        reports: List[LoopReport],
        allow_window: bool,
    ) -> Optional[List[ast.stmt]]:
        if not self._loop_mentions_queries(loop, facts):
            return None
        report = LoopReport(
            function=function,
            lineno=getattr(loop, "lineno", 0),
            kind="while" if isinstance(loop, ast.While) else "for",
        )
        reports.append(report)

        blocked = self._structural_blockers(loop, function, facts)
        if blocked:
            report.blocked_reason = blocked
            report.outcomes.append(
                QueryOutcome("(loop)", status="blocked", reason=blocked)
            )
            return None

        return self._transform_one_loop(
            loop, function, allocator, facts, report, allow_window
        )

    def _transform_one_loop(
        self,
        loop: ast.stmt,
        function: str,
        allocator: NameAllocator,
        facts: StatementFacts,
        report: LoopReport,
        allow_window: bool,
    ) -> Optional[List[ast.stmt]]:
        # The structural checks asked about ``loop``; its body changes now.
        facts.forget(loop)
        loop.body = normalize_block(loop.body, facts, allocator)
        body = flatten_block(loop.body, facts, allocator)
        header = make_header(loop, self.purity, self.registry)

        for stmt in body:
            if stmt.has_embedded_query:
                report.outcomes.append(
                    QueryOutcome(
                        stmt.node, status="blocked", reason=REASON_EMBEDDED_QUERY
                    )
                )

        candidates = [stmt for stmt in body if stmt.is_query]
        nested_split = self._nested_split_index(body)

        # Record cycle-bound queries upfront: they stay blocking even
        # when a later fission succeeds around them (paper Example 11).
        # This is the loop's one graph: each attempt's copies keep its
        # positions, so fission re-checks on it unless a reorder moved
        # something.
        ddg: Optional[DDG] = None
        if candidates:
            ddg = build_ddg(header, body)
            remaining = []
            for stmt in candidates:
                if on_true_cycle(ddg, body.index(stmt) + 1):
                    report.outcomes.append(
                        QueryOutcome(
                            stmt.node, status="blocked", reason=REASON_TRUE_CYCLE
                        )
                    )
                else:
                    remaining.append(stmt)
            candidates = remaining

        if not candidates and nested_split is None:
            if not report.outcomes:
                report.outcomes.append(
                    QueryOutcome("(loop)", status="blocked", reason=REASON_CONTROL)
                )
            return None

        if self.select is not None:
            selected = []
            for stmt in candidates:
                if self.select(function, label(stmt.node)):
                    selected.append(stmt)
                else:
                    report.outcomes.append(
                        QueryOutcome(
                            stmt.node, status="blocked", reason="not-selected"
                        )
                    )
            candidates = selected

        for candidate in candidates:
            # Reordering and fission rebind node/guards/du/query in place;
            # each candidate gets its own statement copies so a failed
            # attempt leaves no rename behind for the next one.
            trial = [copy.copy(stmt) for stmt in body]
            query = trial[body.index(candidate)]
            outcome = QueryOutcome(query.node, status="blocked")
            report.outcomes.append(outcome)
            try:
                new_body, reorder_outcome = self._prepare_split(
                    ddg, header, trial, query, allocator
                )
            except LoopNotTransformable as exc:
                outcome.reason = exc.reason
                continue
            try:
                result = fission(
                    loop,
                    header,
                    new_body,
                    new_body.index(query),
                    query,
                    facts,
                    allocator,
                    ddg=reorder_outcome.ddg,
                )
            except LoopNotTransformable as exc:
                outcome.reason = exc.reason
                continue
            outcome.status = "transformed"
            outcome.reorder_moves = reorder_outcome.moves
            outcome.reader_stubs = len(reorder_outcome.reader_stubs)
            outcome.writer_stubs = len(reorder_outcome.writer_stubs)
            outcome.split_vars = result.split_vars
            # Remaining query statements now live in the fetch loop.
            fetch_replacement = self._transform_one_loop(
                result.fetch_loop,
                function,
                allocator,
                facts,
                report,
                allow_window=False,
            )
            nodes = list(result.nodes)
            if fetch_replacement is not None:
                index = nodes.index(result.fetch_loop)
                nodes[index : index + 1] = fetch_replacement
            else:
                # Its round forgot it.
                facts.of(result.fetch_loop)
            if self.window and allow_window and fetch_replacement is None:
                try:
                    nodes = wrap_window(result, loop, self.window, allocator, facts)
                except LoopNotTransformable:
                    pass  # fall back to unbounded fission
            return nodes

        if nested_split is not None:
            try:
                result = fission(
                    loop,
                    header,
                    body,
                    nested_split,
                    None,
                    facts,
                    allocator,
                    ddg=ddg,
                )
            except LoopNotTransformable as exc:
                report.outcomes.append(
                    QueryOutcome(
                        "(nested loops)", status="blocked", reason=exc.reason
                    )
                )
                return None
            report.outcomes.append(
                QueryOutcome(
                    "(nested loops)",
                    status="transformed",
                    split_vars=result.split_vars,
                )
            )
            return list(result.nodes)
        return None

    def _prepare_split(
        self,
        ddg: DDG,
        header: Stmt,
        body: List[Stmt],
        query: Stmt,
        allocator: NameAllocator,
    ) -> Tuple[List[Stmt], ReorderOutcome]:
        """Reorder ``body`` if the fission preconditions require it.
        ``ddg`` is the graph of ``header`` + ``body``, on which the
        caller already found ``query`` off every true-dependence cycle
        (Theorem 4.1); the returned outcome carries the graph of the
        returned body — ``ddg`` itself when nothing moved — for
        fission's re-check."""
        qpos = body.index(query) + 1
        violation = check_preconditions(ddg, qpos, qpos)
        if violation is None:
            return list(body), ReorderOutcome(ddg=ddg)
        if not self.reorder_enabled:
            raise LoopNotTransformable(REASON_PRECONDITION, violation)
        try:
            new_body, outcome = reorder(
                header, body, query, self.purity, self.registry, allocator, ddg
            )
        except ReorderFailed as exc:
            raise LoopNotTransformable(exc.reason, str(exc)) from exc
        return new_body, outcome

    # ------------------------------------------------------------------
    # structural checks
    # ------------------------------------------------------------------
    def _loop_mentions_queries(self, loop: ast.stmt, facts: StatementFacts) -> bool:
        """A blocking query call, or the submit loop an inner fission
        left behind (the nested-loop rule's opportunity)."""
        entry = facts.of(loop)
        return bool(entry.sites) or ROLE_SUBMIT in entry.roles

    def _structural_blockers(
        self, loop: ast.stmt, function: str, facts: StatementFacts
    ) -> str:
        if function in facts.of(loop).callees:
            return REASON_RECURSION
        # An ``else`` clause runs after the last iteration, which fission
        # would have to place after the fetch loop; refused instead.
        if loop.orelse or any(facts.leaves_block(node) for node in loop.body):
            return REASON_CONTROL
        if not all(is_supported(node) for node in loop.body):
            return REASON_UNSUPPORTED_STMT
        return ""

    def _nested_split_index(self, body: Sequence[Stmt]) -> Optional[int]:
        """Index of an inner submit loop directly followed (possibly
        after other statements) by its fetch loop — the nested-loop
        fission point."""
        submit_index = None
        for index, stmt in enumerate(body):
            role = getattr(stmt.node, ROLE_ATTR, "")
            if role == ROLE_SUBMIT:
                submit_index = index
            elif role == ROLE_FETCH and submit_index is not None:
                return submit_index
        return None
