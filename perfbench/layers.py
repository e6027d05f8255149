"""The layers pass: per-layer costs, measured from outside.

The stack is rebuilt rung by rung from public constructors only — bare
backend, ``SubmissionPipeline.execute``, async submit/fetch, coalescer,
``ResultCache``, ``Connection``, metrics, tracer, ``aio_connect`` — each
rung on its own fresh database of the same rows, and the workload's first
blocks are replayed through every rung.  The rungs take turns block by
block, so that a change in host speed falls on all of them alike.  Every
call into a rung is a span (:mod:`perfbench.spans`); a rung's cost is its
spans' total per operation, and a layer's cost is the difference between
two rungs.  Direct timings of single public functions (parse, plan,
prepare, cache acquire, the transformer entry points) fill in what no rung
isolates.
"""

from __future__ import annotations

import asyncio
import gc
import inspect
import math
import statistics
import textwrap
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (
    INSTANT, AsyncExecutor, Connection, ResultCache, aio_connect,
    analyze_source, asyncify_source, prefetch_source,
)
from repro.core.submission import SubmissionPipeline
from repro.db.plan.planner import Planner
from repro.db.sql import parse
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.workloads.hotset import PROFILE_SQL, RATING_UPDATE_SQL

from . import data, stats
from .spans import SpanRecorder
from .workloads import (
    IO,
    WORKLOADS,
    PointWorkload,
    RubisLanWorkload,
    ScanWorkload,
    TransformWorkload,
    Workload,
    check_window,
    connection_io,
    stub_io,
)

Values = Dict[str, float]


def _identity(value):
    return value


def timed_us(fn: Callable[[], Any], number: int, repeat: int = 5) -> float:
    """Median over ``repeat`` batches of the mean µs of ``number`` calls."""
    batches = []
    for _ in range(repeat):
        started = time.perf_counter()
        for _ in range(number):
            fn()
        batches.append((time.perf_counter() - started) / number * 1e6)
    return statistics.median(batches)


# ----------------------------------------------------------------------
# rungs
# ----------------------------------------------------------------------


class Rung:
    """One rung of the onion while it is replayed, and what it measured:
    µs per operation spent inside the rung's calls, as the median over its
    blocks, each block restated at the reference host speed
    (:func:`stats.host_scale`)."""

    def __init__(self, label: str, layer: str, wl: Workload, io: IO,
                 close: Callable[[], None], traced: bool = True) -> None:
        self.label = label
        self.layer = layer
        self.wl = wl
        self.io = io
        self.close = close
        self.traced = traced
        self.ops = self.failed = 0
        self.wall_s = 0.0
        self._blocks: List[Tuple[float, float, float]] = []

    def run_block(self, rec: SpanRecorder, record: bool) -> None:
        wl = self.wl
        wl.io = rec.traced(self.io, self.layer) if record and self.traced else self.io
        block = wl.next_block()
        lat = array("d", [0.0]) * wl.block_ops
        kinds = bytearray(wl.block_ops)
        with stats.Scaled() as timing:
            outputs, count = wl.run_block(block, lat, kinds, 0)
        self.failed += wl.check_block(block, outputs)
        if record:
            writes = sum(kinds)
            self.add_block(rec.close_rung(self.label), count - writes, writes, timing)

    def add_block(self, totals: Dict[str, float], reads: int, writes: int,
                  timing: stats.Scaled) -> None:
        """``totals``: µs per call name over one block (``close_rung``)."""
        self.ops += reads + writes
        self.wall_s += timing.wall_s
        spent = sum(value for key, value in totals.items() if key != "ops")
        write_us = totals.get("write", 0.0)
        self._blocks.append((
            spent * timing.scale / (reads + writes),
            (spent - write_us) * timing.scale / reads,
            write_us * timing.scale / writes if writes else 0.0,
        ))

    def _median(self, column: int) -> float:
        return statistics.median(block[column] for block in self._blocks)

    @property
    def us_per_op(self) -> float:
        return self._median(0)

    @property
    def read_us(self) -> float:
        return self._median(1)

    @property
    def write_us(self) -> float:
        return self._median(2)

    @property
    def wall_us_per_op(self) -> float:
        return self.wall_s / self.ops * 1e6


class AioRung(Rung):
    """Rung 9: the same windows through ``aio_connect``, one
    ``asyncio.gather`` per window, on an event loop kept between blocks."""

    def __init__(self, label: str, wl: PointWorkload, aconn) -> None:
        self.loop = asyncio.new_event_loop()
        self.aconn = aconn

        def close() -> None:
            aconn.close()
            self.loop.close()

        super().__init__(label, "runtime.aio", wl, None, close)

    def run_block(self, rec: SpanRecorder, record: bool) -> None:
        block = self.wl.next_block()
        with stats.Scaled() as timing:
            failed, reads, writes = self.loop.run_until_complete(
                self._windows(rec, block, record))
        self.failed += failed
        if record:
            self.add_block(rec.close_rung(self.label), reads, writes, timing)

    async def _windows(self, rec, block, record: bool) -> Tuple[int, int, int]:
        aconn, layer, clock = self.aconn, self.layer, time.perf_counter_ns
        failed = reads = writes = 0
        for read_ids, bindings in block:
            ops = []
            handles = []
            for user_id in read_ids:
                started = clock()
                handles.append(aconn.submit_query(PROFILE_SQL, (user_id,)))
                if record:
                    ops.append(rec.new_op())
                    rec.add(ops[-1], "submit", layer, started, clock())
            started = clock()
            results = await aconn.gather(handles)
            if record:
                rec.add(ops[0], "gather", layer, started, clock())
            updated = []
            for binding in bindings:
                started = clock()
                updated.append(await aconn.execute_update(RATING_UPDATE_SQL, binding))
                if record:
                    rec.add(rec.new_op(), "write", layer, started, clock())
            failed += check_window(
                self.wl.shadow, read_ids, bindings, results, updated)
            reads += len(read_ids)
            writes += len(bindings)
        return failed, reads, writes


def open_backend(db, wl) -> Tuple[IO, Callable[[], None]]:
    """Rung 1: prepared statements straight on the backend."""
    backend = db.backend(wl.backend)
    prepared: Dict[str, Any] = {}

    def execute(sql, params):
        statement = prepared.get(sql)
        if statement is None:
            statement = prepared[sql] = backend.prepare(sql)
        return backend.submit_prepared(statement, params).result()

    return IO(execute, _identity, execute, execute), lambda: None


def open_pipeline(db, wl, blocking=False, coalesce=False, cache_capacity=0):
    """Rungs 2-5: a bare ``SubmissionPipeline`` over an ``AsyncExecutor``."""
    executor = AsyncExecutor(wl.async_workers)
    pipeline = SubmissionPipeline(
        db.backend(wl.backend), executor, coalesce=coalesce,
        cache=ResultCache(cache_capacity) if cache_capacity else None,
    )
    if blocking:
        io = IO(pipeline.execute, _identity, pipeline.execute, pipeline.execute)
    else:
        io = IO(pipeline.submit, pipeline.fetch,
                pipeline.execute, pipeline.execute)
    return io, executor.close


def open_connection(db, wl, **observability):
    """Rungs 6-8: a ``Connection`` in the workload's own configuration."""
    options = wl.connect_options()
    backend = db.backend(options.pop("backend"))
    conn = Connection(backend, **options, **observability)
    return connection_io(conn), conn.close


class Onion:
    """The rungs of one workload, opened side by side."""

    def __init__(self, wl: Workload) -> None:
        self.source = wl
        self.rungs: Dict[str, Rung] = {}
        self._databases: List[Any] = []

    def _twin(self, window: Optional[int] = None):
        """A fresh database and a fresh copy of the workload (own stream,
        own shadow) for one rung."""
        wl = WORKLOADS[self.source.name](self.source.seed)
        wl.rows = self.source.rows
        if window is not None:
            wl.window = window
        wl.build_oracle()
        db = data.build_database(INSTANT, wl.rows, wl.tables)
        self._databases.append(db)
        return db, wl

    def add(self, label: str, layer: str, opener: Callable,
            window: Optional[int] = None, traced: bool = True, **options) -> None:
        db, wl = self._twin(window)
        io, close = opener(db, wl, **options)
        self.rungs[label] = Rung(label, layer, wl, io, close, traced)

    def add_aio(self, label: str) -> None:
        db, wl = self._twin()
        options = wl.connect_options()
        options["max_in_flight"] = options.pop("async_workers")
        self.rungs[label] = AioRung(label, wl, aio_connect(db, **options))

    def add_observed(self):
        """Rungs 6-8, and rung 6 again without perfbench's spans (their
        cost is ``bench.span_overhead_pct``).  Returns the product tracer
        rung 8 records into."""
        tracer = Tracer()
        self.add("6-connection", "client", open_connection)
        self.add("6-untraced", "client", open_connection, traced=False)
        self.add("7-metrics", "obs", open_connection, metrics=MetricsRegistry())
        self.add("8-trace", "obs", open_connection, tracer=tracer)
        return tracer

    def replay(self, rec: SpanRecorder) -> None:
        """One untimed warm-up block per rung (thread pools spawn, plan and
        result caches fill), then ``rung_blocks`` measured rounds."""
        # Keep the collector off the other rungs' tables: side by side they
        # would make each full collection cost nine databases, not one.
        gc.collect()
        gc.freeze()
        try:
            for round_ in range(1 + self.source.rung_blocks):
                for rung in self.rungs.values():
                    rung.run_block(rec, record=round_ > 0)
        finally:
            for rung in self.rungs.values():
                rung.close()
            for db in self._databases:
                db.close()
            gc.unfreeze()

    def observability(self, tracer) -> Values:
        full = self.rungs["6-connection"]
        bare = self.rungs["6-untraced"]
        traced = self.rungs["8-trace"]
        return {
            "obs.metrics_overhead_pct":
                (self.rungs["7-metrics"].us_per_op / full.us_per_op - 1) * 100,
            "obs.trace_overhead_pct":
                (traced.us_per_op / full.us_per_op - 1) * 100,
            # Span ids count from 1, so the newest is the number started
            # (the ring itself keeps only the last few thousand).
            "obs.spans_per_op": max(s["span_id"] for s in tracer.export())
            / (traced.ops + traced.wl.block_ops),
            "bench.span_overhead_pct":
                (full.wall_us_per_op / bare.wall_us_per_op - 1) * 100,
        }


# ----------------------------------------------------------------------
# direct timings
# ----------------------------------------------------------------------


def statement_costs(wl, statements: List[str]) -> Values:
    """parse / plan / prepare µs, averaged over the workload's statements."""
    values: Values = {}
    with data.build_database(INSTANT, wl.rows, wl.tables) as db:
        planner = Planner(db.catalog)
        backend = db.backend(wl.backend)
        asts = [parse(sql) for sql in statements]
        for sql in statements:
            backend.prepare(sql)
        count = len(statements)
        values["db.sql.parse_us"] = sum(
            timed_us(lambda: parse(sql), 200) for sql in statements) / count
        values["db.plan.plan_us"] = sum(
            timed_us(lambda: planner.plan(ast), 200) for ast in asts) / count
        values[f"backends.{wl.backend}.prepare_us"] = sum(
            timed_us(lambda: backend.prepare(sql), 2000)
            for sql in statements) / count
        if isinstance(wl, PointWorkload):
            wl.reset_stream()
            bindings = [(wl.draw_id(),) for _ in range(64)]
            statement = backend.prepare(PROFILE_SQL)
            values[f"backends.{wl.backend}.batch_us_per_binding"] = timed_us(
                lambda: backend.execute_prepared_batch(statement, bindings), 20
            ) / 64
    return values


def cache_costs(capacity: int) -> Values:
    """``ResultCache`` alone, full, at the workload's capacity."""
    tables = ("users",)

    def filled() -> "ResultCache":
        cache = ResultCache(capacity)
        for key in range(capacity):
            cache.complete(cache.acquire(key, tables), key)
        return cache

    cache = filled()
    values = {"prefetch.cache.hit_us":
              timed_us(lambda: cache.acquire(7, tables), 5000)}
    keys = iter(range(capacity, 10**9))

    def miss_and_evict():
        cache.complete(cache.acquire(next(keys), tables), 0)

    values["prefetch.cache.miss_evict_us"] = timed_us(miss_and_evict, 5000)
    batches = []
    for _ in range(5):
        cache = filled()
        started = time.perf_counter()
        cache.invalidate_table("users")
        batches.append((time.perf_counter() - started) * 1e6)
    values["prefetch.cache.invalidate_us"] = statistics.median(batches)
    return values


def counter_ratios(counters: Values, ops: int, writes: int) -> Values:
    """Exact program counters of the counting pass, per operation."""
    values = {"backends.statements_per_op": counters["statements_executed"] / ops}
    if counters["batched_calls"]:
        values["backends.bindings_per_batch"] = (
            counters["batched_bindings"] / counters["batched_calls"])
    if "scan.batches" in counters:
        values["db.scan.rows_scanned_per_op"] = counters["scan.rows_scanned"] / ops
        values["db.scan.batches_per_op"] = counters["scan.batches"] / ops
    if counters.get("cache.lookups"):
        values["prefetch.cache.hit_ratio"] = (
            counters["cache.hits"] / counters["cache.lookups"])
        values["prefetch.cache.shared_flight_ratio"] = (
            counters["cache.shared_flights"] / counters["cache.lookups"])
        values["prefetch.cache.evictions_per_op"] = counters["cache.evictions"] / ops
        if writes:
            values["prefetch.cache.invalidated_per_write"] = (
                counters["cache.invalidations"] / writes)
    return values


def driver_cost(wl: Workload, stub: IO) -> float:
    """µs per operation of the driver loop itself: the workload's blocks
    against a stub that returns canned rows."""
    wl.reset_stream()
    wl.io = stub
    lat = array("d", [0.0]) * wl.block_ops
    kinds = bytearray(wl.block_ops)
    per_block = []
    try:
        for _ in range(5):
            block = wl.next_block()
            started = time.perf_counter()
            _, count = wl.run_block(block, lat, kinds, 0)
            per_block.append((time.perf_counter() - started) / count * 1e6)
    finally:
        wl.io = None
    return statistics.median(per_block)


def transform_costs(rec: SpanRecorder, sources: List[Tuple[str, str]]) -> Values:
    """The transformer's three entry points over ``sources`` (ms per
    function), plus what the rewrite found and emitted."""
    entry_points = (
        ("transform.asyncify_ms_per_fn", "transform", asyncify_source, {}),
        ("transform.prefetch_ms_per_fn", "prefetch.insertion",
         prefetch_source, {"speculate": True}),
        ("analysis.applicability_ms_per_fn", "analysis", analyze_source, {}),
    )
    values: Values = {}
    for metric, layer, entry, options in entry_points:
        passes = []
        for _ in range(3):
            with stats.Scaled() as timing:
                for name, source in sources:
                    rec.call(name, layer, lambda: entry(source, **options))
            passes.append(timing.seconds / len(sources) * 1e3)
        values[metric] = statistics.median(passes)
    rec.close_rung("transform")
    results = [asyncify_source(source) for _name, source in sources]
    values["transform.loops_found"] = sum(r.opportunities for r in results)
    values["transform.loops_transformed"] = sum(
        r.transformed_loops for r in results)
    values["transform.emitted_lines_ratio"] = (
        sum(len(r.source.splitlines()) for r in results)
        / sum(len(source.splitlines()) for _name, source in sources))
    return values


# ----------------------------------------------------------------------
# per-workload collection
# ----------------------------------------------------------------------


def point_layers(wl: PointWorkload, rec: SpanRecorder) -> Tuple[Values, Onion]:
    name = wl.backend
    onion = Onion(wl)
    onion.add("1-backend", f"backends.{name}", open_backend)
    onion.add("2-execute", "core", open_pipeline, blocking=True)
    onion.add("3-hop", "runtime", open_pipeline, window=1)
    onion.add("3-window", "core", open_pipeline)
    bare = "3-window"
    if wl.coalesce:
        bare = "4-coalesce"
        onion.add(bare, "core", open_pipeline, coalesce=True)
    if wl.cache_capacity:
        bare = "5-cache"
        onion.add(bare, "prefetch.cache", open_pipeline,
                  cache_capacity=wl.cache_capacity)
    tracer = onion.add_observed()
    onion.add_aio("9-aio")
    onion.replay(rec)

    cost = {label: rung.us_per_op for label, rung in onion.rungs.items()}
    values: Values = {
        f"backends.{name}.execute_us": onion.rungs["1-backend"].read_us,
        f"backends.{name}.write_us": onion.rungs["1-backend"].write_us,
        "core.execute_us": cost["2-execute"] - cost["1-backend"],
        "runtime.hop_us": cost["3-hop"] - cost["2-execute"],
        "core.window_us_per_op": cost["3-window"],
        "client.front_us": cost["6-connection"] - cost[bare],
        "runtime.aio_us_per_op": cost["9-aio"] - cost["6-connection"],
    }
    if wl.coalesce:
        values["core.coalesce_us_per_op"] = cost["4-coalesce"] - cost["3-window"]
    if wl.cache_capacity:
        values["prefetch.cache.layer_us"] = cost["5-cache"] - cost["3-window"]
        values.update(cache_costs(wl.cache_capacity))
    values.update(onion.observability(tracer))
    statements = [PROFILE_SQL] + ([RATING_UPDATE_SQL] if wl.write_share else [])
    values.update(statement_costs(wl, statements))
    wl.build_oracle()
    values["bench.driver_us_per_op"] = driver_cost(wl, stub_io(wl.shadow))
    return values, onion


def scan_layers(wl: ScanWorkload, rec: SpanRecorder,
                rows_per_op: float) -> Tuple[Values, Onion]:
    onion = Onion(wl)
    onion.add("1-backend", "db.plan", open_backend)
    onion.add("2-execute", "core", open_pipeline, blocking=True)
    tracer = onion.add_observed()
    onion.replay(rec)
    cost = {label: rung.us_per_op for label, rung in onion.rungs.items()}
    values: Values = {
        "backends.memory.execute_us": cost["1-backend"],
        "db.plan.scan_us_per_krow": cost["1-backend"] / (rows_per_op / 1000),
        "core.execute_us": cost["2-execute"] - cost["1-backend"],
        "client.front_us": cost["6-connection"] - cost["2-execute"],
    }
    values.update(onion.observability(tracer))
    values.update(statement_costs(wl, wl.params["statements"]))
    wl.reset_stream()
    canned = {op: wl.expected(*op) for op in wl.next_block()}
    values["bench.driver_us_per_op"] = driver_cost(wl, stub_io({}, canned))
    return values, onion


def rubis_layers(wl: RubisLanWorkload, rec: SpanRecorder,
                 transformed_s: List[float]) -> Values:
    """``transformed_s``: the counting pass's per-call latencies, in
    kernel order round after round."""
    originals = wl.originals()
    lat = array("d", [0.0]) * wl.block_ops
    blocking: List[List[float]] = [[] for _ in originals]
    kernels = [
        (lambda conn, *args, kernel=kernel:
         rec.call(kernel.__name__, "client", kernel, conn, *args))
        for kernel in originals
    ]
    for _ in range(2):
        wl.run_kernels(kernels, wl.conn, wl.next_block(), lat, 0)
        for index, seconds in enumerate(lat):
            blocking[index].append(seconds)
    rec.close_rung("blocking")
    ratios = [
        statistics.median(blocking[index])
        / statistics.median(transformed_s[index::len(originals)])
        for index in range(len(originals))
    ]
    values = {"transform.speedup_x": math.exp(
        sum(math.log(ratio) for ratio in ratios) / len(ratios))}
    values.update(transform_costs(rec, [
        (kernel.__name__, textwrap.dedent(inspect.getsource(kernel)))
        for kernel in originals
    ]))
    return values


def collect(wl: Workload, rec: SpanRecorder, counted) -> Tuple[Values, int, int]:
    """Every per-layer value this workload defines, plus the replays'
    ``(attempted, failed)``.  ``counted`` is the counting pass (a
    ``runner.Pass``)."""
    values = counter_ratios(counted.counters, counted.ops, counted.writes) \
        if counted.counters else {}
    rungs: Dict[str, Rung] = {}
    if isinstance(wl, PointWorkload):
        more, onion = point_layers(wl, rec)
        rungs = onion.rungs
    elif isinstance(wl, ScanWorkload):
        more, onion = scan_layers(wl, rec, values["db.scan.rows_scanned_per_op"])
        rungs = onion.rungs
    elif isinstance(wl, RubisLanWorkload):
        more = rubis_layers(wl, rec, counted.latencies)
    elif isinstance(wl, TransformWorkload):
        more = transform_costs(rec, wl.corpus)
    values.update(more)
    for label, rung in rungs.items():
        print(f"{wl.name} rung {label:<13} {rung.us_per_op:10.2f} us/op in "
              f"spans, {rung.wall_us_per_op:10.2f} us/op wall (n={rung.ops})")
    return (values, sum(rung.ops for rung in rungs.values()),
            sum(rung.failed for rung in rungs.values()))
