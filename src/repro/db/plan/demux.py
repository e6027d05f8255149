"""The binding-demultiplex operator: one pass answers N binding sets.

The set-oriented server path (``Backend.execute_prepared_batch``)
evaluates one prepared SELECT over many binding sets in a *single*
statement execution: one lock acquisition, one fixed per-statement CPU
charge, and — for plans without a usable index — one shared table scan
whose rows are bucketed by the equality column's value and demultiplexed
to the bindings that match.  Indexed plans keep their access path but
probe it once per *distinct* binding set, so a skewed batch (the hotset
workload's bread and butter) collapses duplicates for free.

This is the server half of the batching-vs-async hybrid: the paper
contrasts asynchronous submission with batching (Guravannavar &
Sudarshan, VLDB 2008); the demux operator is what makes a batch an
actual set-oriented evaluation rather than N statements in a trenchcoat.

Fault isolation is per binding: a binding whose parameters are malformed
(wrong arity, an expression that fails to evaluate) yields an exception
*outcome* in its slot; the other bindings complete normally.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..errors import ParamCountError
from .context import ExecutionContext
from .operators import HashEqOp, SeqScanOp, partition
from .planner import SelectPlan, prefer_batch_scan
from .result import QueryResult

#: Per-binding result slot: the binding's :class:`QueryResult`, or the
#: exception that binding (and only that binding) raised.
BindingOutcome = Union[QueryResult, Exception]


def demuxable(plan) -> bool:
    """May ``plan`` be evaluated set-oriented over many binding sets?

    True exactly for SELECT plans: reads have no per-binding side
    effects, so one pass can serve all of them.  Writes and DDL fall
    back to per-binding execution (each keeps its own write window
    and undo accounting).
    """
    return isinstance(plan, SelectPlan)


def _gathered(ctx: ExecutionContext, batches) -> List[int]:
    """Every batch's row ids, each batch recorded whole on ``ctx``: the
    candidates each binding's WHERE clause narrows afterwards."""
    sel: List[int] = []
    for batch in batches:
        ctx.note_scan_batch(len(batch.sel), len(batch.sel))
        sel.extend(batch.sel)
    return sel


def execute_batch_select(
    plan: SelectPlan,
    ctx: ExecutionContext,
    bindings: List[tuple],
    span=None,
) -> List[BindingOutcome]:
    """Evaluate ``plan`` once over every binding set in ``bindings``.

    The caller (the server's batch path) owns statement-level stats and
    the CPU flush; this function owns the single lock acquisition, the
    access strategy, and per-binding fault isolation.  Outcomes come
    back in binding order.

    The access strategy is *cost-gated* per batch: an indexed plan still
    prefers one shared scan when distinct-bindings × probe cost exceeds
    the scan cost (a batch covering most of the key space re-reads the
    table through the index anyway, without the sequential IO).  The
    chosen strategy lands on ``span`` as the ``strategy`` attribute.
    """
    stmt = plan._stmt
    info = plan._info
    outcomes: List[Optional[BindingOutcome]] = [None] * len(bindings)

    pending: List[int] = []
    for index, binding in enumerate(bindings):
        if stmt.param_count != len(binding):
            outcomes[index] = ParamCountError(stmt.param_count, len(binding))
        else:
            pending.append(index)
    if not pending:
        return outcomes  # every binding faulted before touching the table

    # Distinct-binding dedupe: identical binding sets share one
    # evaluation (and one result object, exactly as a cache hit would).
    groups: Dict[tuple, List[int]] = {}
    order: List[tuple] = []
    loose: List[int] = []  # unhashable bindings: no dedupe possible
    for index in pending:
        binding = tuple(bindings[index])
        try:
            bucket = groups.get(binding)
        except TypeError:
            loose.append(index)
            continue
        if bucket is None:
            groups[binding] = [index]
            order.append(binding)
        else:
            bucket.append(index)

    ctx.charge_cpu(fixed=True)  # ONE per-statement fixed cost for the batch
    distinct = len(order) + len(loose)
    single_scan = prefer_batch_scan(info, plan._access, distinct, ctx.profile)
    if span is not None:
        span.set("strategy", "scan" if single_scan else "probe")

    with info.heap.lock.reading():  # ONE lock acquisition for the batch
        # The single shared scan, batch-at-a-time; then bucket by
        # partitioning the scanned selection vector on the equality
        # column — no tuples are built.
        scanned = _gathered(ctx, SeqScanOp(info).run(ctx, ())) if single_scan else []
        buckets: Optional[Dict[object, List[int]]] = None
        if single_scan and plan.bucket is not None:
            buckets = partition([info.heap.columns_view()[plan.bucket[0]]], scanned)
            ctx.charge_cpu(rows=len(scanned))

        def run_one(binding: tuple) -> BindingOutcome:
            sub = ctx.derive(binding)
            try:
                if not single_scan and plan.point_probe is not None:
                    rows = sub.read_point(plan.point_probe)[1]
                    return QueryResult(columns=plan.output_names, rows=rows)
                tests = plan._where.bind(binding)
                if not single_scan:
                    # Indexed plan: keep the access path, probe once per
                    # distinct binding (duplicates were deduped above).
                    sel = _gathered(sub, plan._access.run(sub, tests))
                elif buckets is not None:
                    try:
                        sel = buckets.get(tests[plan.bucket[1]][2], [])
                    except TypeError:
                        # Unhashable key (e.g. a list parameter).  Run
                        # alone, an indexed plan would fail its probe
                        # (as sqlite fails to bind the value): so does
                        # this binding.  Otherwise it cannot use the
                        # bucket index, but the full WHERE clause
                        # re-applies below, so the whole scan is a
                        # correct candidate set.
                        if isinstance(plan._access, HashEqOp):
                            plan._access.probe_page(tests)
                        sel = scanned
                else:
                    sel = scanned
                # The bucket (or scan) holds candidates, not matches: the
                # full WHERE clause re-applies per binding, vectorized.
                return plan._finalize(sub, tests, [sel], noted=False)
            except Exception as exc:  # isolate the fault to this binding
                return exc
            finally:
                ctx.absorb_cpu(sub)

        for binding in order:
            outcome = run_one(binding)
            for index in groups[binding]:
                outcomes[index] = outcome
        for index in loose:
            outcomes[index] = run_one(tuple(bindings[index]))
    return outcomes
