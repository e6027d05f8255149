"""Shared test helpers: deterministic fake connections and tiny DBs.

``FakeConnection`` implements the full blocking + async client protocol
against a deterministic in-memory "database" (a pure function of the
query text and parameters) while logging every call.  Transformation
tests execute original and rewritten programs against it and compare
results, final state and the *multiset* of issued queries (order may
legitimately change for reordered/concurrent submissions).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

from hypothesis import settings

from repro.db.errors import ParamCountError
from repro.db.plan.expr_eval import RowEvaluator
from repro.db.sql import parse
from repro.db.sql.ast_nodes import Aggregate, ColumnRef, Star
from repro.runtime.handles import QueryHandle, completed_handle, failed_handle


#: How many times its tier-1 count a property drawn with :func:`drawn`
#: draws: 1 by default, derandomized, so a failure reproduces; 10 under
#: the ``prop-seeds`` profile (``tests/conftest.py``), which CI runs over
#: a fixed ``--hypothesis-seed`` list to find the next failure.
SCALE = settings.default.max_examples // settings.get_profile("default").max_examples


def drawn(examples):
    """The settings of a property that draws ``examples`` inputs in
    tier-1."""
    return settings(
        max_examples=examples * SCALE, derandomize=SCALE == 1, deadline=None
    )


def default_answer(query: Any, params: Tuple) -> int:
    """A deterministic, order-insensitive 'query result'."""
    text = str(query)
    total = sum(ord(ch) for ch in text) % 97
    for value in params:
        total = (total * 31 + hash(value)) % 10_007
    return total


class FakeResult:
    """Quacks like QueryResult for the common consumption patterns."""

    def __init__(self, value: Any) -> None:
        self.value = value
        self.rows = [(value,)]

    def scalar(self) -> Any:
        return self.value

    def __getitem__(self, index):
        return self.rows[index]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FakeResult) and other.value == self.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FakeResult({self.value!r})"


class FakePrepared:
    """Client-side prepared query stand-in with 1-based bind."""

    def __init__(self, sql: str, param_count: int = 8) -> None:
        self.sql = sql
        self._params: List[Any] = [None] * param_count

    def bind(self, position: int, value: Any) -> "FakePrepared":
        self._params[position - 1] = value
        return self

    def snapshot(self) -> Tuple:
        return tuple(value for value in self._params if value is not None)


class FakeConnection:
    """Deterministic connection with blocking and async call styles.

    ``threaded=True`` runs submissions on a real thread pool (exercises
    genuine concurrency); the default resolves them eagerly, which keeps
    hypothesis runs fast and reproducible.
    """

    def __init__(
        self,
        answer: Callable[[Any, Tuple], Any] = default_answer,
        threaded: bool = False,
        workers: int = 4,
        fail_on: Optional[Callable[[Any, Tuple], bool]] = None,
    ) -> None:
        self._answer = answer
        self._fail_on = fail_on
        self.calls: List[Tuple[str, str, Tuple]] = []
        self.updates: List[Tuple[str, Tuple]] = []
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(max_workers=workers) if threaded else None

    # ------------------------------------------------------------------
    def prepare(self, sql: str) -> FakePrepared:
        return FakePrepared(sql)

    def _run(self, kind: str, query: Any, params: Tuple) -> Any:
        if isinstance(query, FakePrepared):
            sql, bound = query.sql, (params or query.snapshot())
        else:
            sql, bound = str(query), tuple(params)
        with self._lock:
            self.calls.append((kind, sql, bound))
        if self._fail_on is not None and self._fail_on(sql, bound):
            raise RuntimeError(f"injected failure for {sql!r} {bound!r}")
        if kind == "update":
            with self._lock:
                self.updates.append((sql, bound))
            return FakeResult(1)
        return FakeResult(self._answer(sql, bound))

    # blocking ----------------------------------------------------------
    def execute_query(self, query: Any, params: Sequence = ()) -> FakeResult:
        return self._run("query", query, tuple(params))

    def execute_update(self, query: Any, params: Sequence = ()) -> FakeResult:
        return self._run("update", query, tuple(params))

    # async -------------------------------------------------------------
    def submit_query(self, query: Any, params: Sequence = ()) -> QueryHandle:
        if isinstance(query, FakePrepared):
            # Snapshot bind state NOW (submit-time semantics): the
            # transformed loops rebind the same prepared object.
            snapshot = FakePrepared(query.sql)
            snapshot._params = list(query._params)
            query = snapshot
        return self._submit("query", query, tuple(params))

    def submit_update(self, query: Any, params: Sequence = ()) -> QueryHandle:
        return self._submit("update", query, tuple(params))

    def speculate_query(self, query: Any, params: Sequence = ()) -> QueryHandle:
        # Logged as a plain query: a speculation is the same external
        # read, just possibly extra — tests compare multiset inclusion.
        return self.submit_query(query, params)

    def abandon(self, handle: QueryHandle) -> bool:
        return handle.cancel()

    def _submit(self, kind: str, query: Any, params: Tuple) -> QueryHandle:
        if self._pool is None:
            try:
                return completed_handle(self._run(kind, query, params))
            except Exception as exc:  # surfaces at fetch, like the real client
                return failed_handle(exc)
        return QueryHandle(self._pool.submit(self._run, kind, query, params))

    def fetch_result(self, handle: QueryHandle) -> Any:
        return handle.result()

    # ------------------------------------------------------------------
    def query_multiset(self) -> dict:
        counts: dict = {}
        for kind, sql, bound in self.calls:
            key = (kind, sql, bound)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)


def run_both(
    source: str,
    func_name: str,
    args_factory: Callable[[], tuple],
    registry=None,
    purity=None,
    window: Optional[int] = None,
    threaded: bool = False,
    prefetch: bool = False,
    speculate: bool = False,
    speculation=None,
):
    """Compile+run the original and transformed versions of ``source``.

    Returns ``(original_result, transformed_result, orig_conn,
    trans_conn, transform_result)``.  The caller asserts equality of
    whatever matters for the program at hand.
    """
    import ast

    from repro.transform import asyncify_source

    namespace_orig: dict = {}
    exec(compile(source, "<orig>", "exec"), namespace_orig)
    original = namespace_orig[func_name]

    result = asyncify_source(
        source,
        registry=registry,
        purity=purity,
        window=window,
        prefetch=prefetch,
        speculate=speculate,
        speculation=speculation,
    )
    namespace_new: dict = {}
    exec(compile(result.source, "<transformed>", "exec"), namespace_new)
    transformed = namespace_new[func_name]

    conn_a = FakeConnection(threaded=threaded)
    conn_b = FakeConnection(threaded=threaded)
    out_a = original(conn_a, *args_factory())
    out_b = transformed(conn_b, *args_factory())
    conn_a.close()
    conn_b.close()
    return out_a, out_b, conn_a, conn_b, result


# ----------------------------------------------------------------------
# naive SELECT reference (differential oracle for the in-memory engine)
# ----------------------------------------------------------------------


def reference_select(db, sql: str, params: Sequence = ()):
    """Answer one SELECT the slow, obvious way; returns ``(columns, rows)``.

    A full scan of ``heap.iter_rows()`` in row-id order, ``RowEvaluator``
    for predicates and expressions, plain Python grouping and folds.
    No planner, no indexes, no operators: it shares only the parser and
    the row evaluator with the engine, so an access-path, batching or
    finalize-order bug in the engine cannot hide in it.
    """
    stmt = parse(sql)
    params = tuple(params)
    if stmt.param_count != len(params):
        raise ParamCountError(stmt.param_count, len(params))
    heap = db.catalog.table(stmt.table).heap
    schema = heap.schema
    evaluator = RowEvaluator(schema, stmt.table, params)
    rows = [row for _, row in heap.iter_rows() if evaluator.matches(stmt.where, row)]
    names = tuple(_output_name(item, i) for i, item in enumerate(stmt.items))
    if stmt.group_by or stmt.is_aggregate:
        key_positions = [schema.position(c, stmt.table) for c in stmt.group_by]
        groups: dict = {}
        for row in rows:
            groups.setdefault(tuple(row[p] for p in key_positions), []).append(row)
        if not stmt.group_by:
            groups.setdefault((), [])  # one group, even over no rows
        out = [
            tuple(
                _aggregate(evaluator, item.expr, members)
                if isinstance(item.expr, Aggregate)
                else key[stmt.group_by.index(item.expr.name)]
                for item in stmt.items
            )
            for key, members in groups.items()
        ]
    elif len(stmt.items) == 1 and isinstance(stmt.items[0].expr, Star):
        names, out = schema.names(), rows
    else:
        out = [tuple(evaluator.evaluate(i.expr, row) for i in stmt.items) for row in rows]
    return names, out


def _output_name(item, position: int) -> str:
    expr = item.expr
    if item.alias or isinstance(expr, ColumnRef):
        return item.alias or expr.name
    if not isinstance(expr, Aggregate):
        return f"col{position}"
    if isinstance(expr.argument, Star):
        return f"{expr.func}(*)"
    if isinstance(expr.argument, ColumnRef):
        return f"{expr.func}({expr.argument.name})"
    return expr.func


def _aggregate(evaluator, expr, members):
    if isinstance(expr.argument, Star):
        return len(members)
    seen = [evaluator.evaluate(expr.argument, row) for row in members]
    seen = [value for value in seen if value is not None]
    if expr.func == "count":
        return len(seen)
    if not seen:
        return None
    if expr.func == "avg":
        return sum(seen) / len(seen)
    return {"sum": sum, "min": min, "max": max}[expr.func](seen)


def cache_outcome(cache, read: Callable[[], Any]):
    """Run ``read`` (one blocking cached query) and name what ``cache``
    did for it: ``(scalar, "hit" | "miss" | "bypass")`` — served,
    looked up and executed, or never asked."""
    before = cache.stats.hits, cache.stats.misses
    value = read().scalar()
    moved = cache.stats.hits - before[0], cache.stats.misses - before[1]
    return value, {(1, 0): "hit", (0, 1): "miss", (0, 0): "bypass"}[moved]
