"""Every paper figure in one registry: sweep descriptions and plain functions.

A timing figure that is a grid x variants sweep over one store is a
:class:`~repro.bench.sweep.Sweep` description — store, inputs, grid,
variants — run by :func:`~repro.bench.sweep.run_sweep`.  The rest are
plain functions: the three that measure no store (``table1``,
``transform-time``, ``ablation-reorder``), the three whose protocol is
not that sweep (``fig14`` inserts, so every run needs a new store;
``fig15`` measures a web service; ``mixed-clients`` runs concurrent
clients) and the three that add to a sweep's figure
(``ablation-batching``, ``batched-dispatch``, ``costmodel``).
``REGISTRY`` maps every figure id to one or the other and :func:`run` is
the one entry point (``figures.run("fig08")``).  The per-figure index —
paper figure, workload, variants, asserted shape, command — is the table
in docs/ARCHITECTURE.md.

Absolute times are scaled (our latencies are microsecond-scale
stand-ins for the paper's 2011 testbed); the shapes — who wins, where
the crossover sits, where the thread plateau starts — are what the
``benchmarks/`` modules assert.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import textwrap
import threading
import time
from collections import Counter
from dataclasses import replace
from typing import Any, Callable, Dict, Union

from ..analysis.applicability import analyze_functions, format_table_one
from ..client.batching import BatchExecutor
from ..db.database import Database
from ..db.latency import INSTANT, POSTGRES, SYS1
from ..obs.metrics import MetricsRegistry
from ..prefetch import ResultCache
from ..runtime.aio import AioConnection
from ..runtime.records import RecordTable
from ..runtime.spill import SpillableRecordTable
from ..transform import TransformEngine, asyncify
from ..transform.costmodel import (
    SpeculationPolicy,
    breakeven_iterations,
    estimate_loop_cost,
    recommend_threads,
)
from ..web.client import WebServiceClient
from ..web.service import WebLatency
from ..workloads import category, forms, hotset, moviegraph, rubbos, rubis
from .harness import FigureData, full_mode, measure
from .sweep import Sweep, Transformed, Variant, X, add_headline, run_sweep, scaled

#: Paper thread grid for Figures 9/10/13.
THREAD_GRID = (1, 2, 5, 10, 20, 30, 40, 50)

AUTHORS = rubis.load_comment_authors
AUTHORS_ASYNC = Transformed(AUTHORS)
TRAVERSAL = category.max_part_size
TRAVERSAL_ASYNC = Transformed(TRAVERSAL)
PROFILES_ASYNC = Transformed(hotset.load_profiles)


def _rubis(profile, size, x):
    return rubis.build_database(profile)


def _comments_at_x(db, x, size):
    return (rubis.comment_batch(db, x),)


def _comments_of_size(db, x, size):
    return (rubis.comment_batch(db, size),)


def _category(profile, size, x):
    return category.build_database(profile, parts=size)


def _traversal_100(db, x, size):
    return category.load_children(db), category.roots_for_iterations(100)


def _hotset(profile, size, x):
    return hotset.build_database(profile)


def _skewed_ids(db, x, size):
    # 16 hot users draw 90% of the batch (the generator's defaults).
    return (hotset.skewed_user_batch(db, x),)


# ----------------------------------------------------------------------
# Experiments 1-5 (Figures 8-15)
# ----------------------------------------------------------------------

_COLD_SHORT = dict(cache="cold", points=slice(None, -1))  # one decade short

FIG08 = Sweep(
    "fig08",
    "RUBiS comment/author loop vs iterations ({profile}, {threads} threads)",
    "iterations",
    "Fig. 8: 8x at 40k iterations warm; transformed slower at 4 iterations",
    build=_rubis,
    inputs=_comments_at_x,
    grid=(4, 40, 400, 4000),
    full_grid=(4, 40, 400, 4000, 40000),
    variants=(
        Variant("orig-cold", AUTHORS, **_COLD_SHORT),
        Variant("trans-cold", AUTHORS_ASYNC, **_COLD_SHORT),
        Variant("orig-warm", AUTHORS),
        Variant("trans-warm", AUTHORS_ASYNC),
    ),
    headline=("trans-warm", "orig-warm"),
)

FIG09 = Sweep(
    "fig09",
    "RUBiS loop vs client threads ({profile}, warm, {size} iterations)",
    "threads",
    "Fig. 9: sharp drop to ~10 threads, then flat",
    build=_rubis,
    inputs=_comments_of_size,
    grid=THREAD_GRID,
    variants=(
        Variant("orig", AUTHORS, threads=1, flat=True),
        Variant("trans", AUTHORS_ASYNC, threads=X),
    ),
    size=4000,
    full_size=40000,
    headline=("trans", "orig"),
)

FIG10 = replace(
    FIG09,
    figure_id="fig10",
    paper_reference="Fig. 10: same pattern as SYS1 at lower absolute times",
    profile=POSTGRES,
)

FIG11 = Sweep(
    "fig11",
    "RUBBoS top stories vs iterations ({profile}, warm, {threads} threads)",
    "iterations",
    "Fig. 11: 3.6s -> 0.8s at 6000 iterations; transformed slightly slower at 6",
    build=lambda profile, size, x: rubbos.build_database(profile),
    inputs=lambda db, x, size: (rubbos.story_batch(db, x),),
    grid=(6, 60, 600),
    full_grid=(6, 60, 600, 6000),
    variants=(
        Variant("orig-warm", rubbos.top_stories_of_day),
        Variant("trans-warm", Transformed(rubbos.top_stories_of_day)),
    ),
    profile=POSTGRES,
    headline=("trans-warm", "orig-warm"),
)

FIG12 = Sweep(
    "fig12",
    "Category traversal vs iterations ({profile}, {threads} threads)",
    "iterations",
    "Fig. 12: 190s -> 6.3s cold at 100 iterations; warm nearly flat at "
    "small counts",
    build=_category,
    inputs=lambda db, x, size: (
        category.load_children(db), category.roots_for_iterations(x)
    ),
    grid=(1, 11, 100),
    variants=(
        Variant("orig-cold", TRAVERSAL, cache="cold"),
        Variant("trans-cold", TRAVERSAL_ASYNC, cache="cold"),
        Variant("orig-warm", TRAVERSAL),
        Variant("trans-warm", TRAVERSAL_ASYNC),
    ),
    size=30_000,
    headline=("trans-cold", "orig-cold"),
)

FIG13 = Sweep(
    "fig13",
    "Category traversal vs threads ({profile}, cold, 100 iterations)",
    "threads",
    "Fig. 13: steep drop then plateau; cold and warm trends match",
    build=_category,
    inputs=_traversal_100,
    grid=THREAD_GRID,
    variants=(
        Variant("orig", TRAVERSAL, threads=1, cache="cold", flat=True),
        Variant("trans", TRAVERSAL_ASYNC, threads=X, cache="cold"),
    ),
    size=30_000,
    headline=("trans", "orig"),
)


def fig14(grid=None, threads=30, profile=SYS1) -> FigureData:
    """Figure 14: INSERT expansion vs number of forms inserted.  Every
    run inserts, so every run gets a new store; the transformed program
    must report the original's count AND leave the same rows behind."""
    if grid is None:
        grid = (10, 100, 1000, 10000) + ((100000,) if full_mode() else ())
    profile = scaled(profile)
    figure = FigureData(
        "fig14",
        f"Forms range expansion vs iterations ({profile.name}, {threads} threads)",
        "forms inserted",
        paper_reference="Fig. 14: 73s -> 1.1s at 100k inserts (99.1 crossover "
        "line); cache-state independent",
    )
    kernels = {
        "orig": forms.expand_form_ranges,
        "trans": asyncify(forms.expand_form_ranges, registry=forms.commuting_registry()),
    }
    for name, kernel in kernels.items():
        series = figure.new_series(name)
        for total in grid:
            issues = forms.issue_batch(total)
            with forms.build_database(profile) as db:

                def once():
                    with db.connect(async_workers=threads) as connection:
                        return kernel(connection, issues)

                inserted, seconds = measure(once)
                assert inserted == forms.loaded_form_count(db) == total
            series.add(total, seconds)
    add_headline(figure, "trans", "orig")
    return figure


def fig15(grid=(1, 2, 5, 10, 15, 20, 25), size=240, profile=WebLatency()) -> FigureData:
    """Figure 15: web-service traversal vs threads (``size`` requests).
    The blocking original is measured once and drawn flat."""
    latency = scaled(profile)
    figure = FigureData(
        "fig15",
        f"Web-service traversal vs threads ({latency.name}, {size} iterations)",
        "threads",
        paper_reference="Fig. 15: ~170s -> ~20s from 1 to 25 threads on Freebase",
    )
    rewritten = asyncify(moviegraph.collect_filmographies)
    service = moviegraph.build_service(
        latency, directors=max(1, size // 20), actors_per_director=20
    )

    def run(kernel, workers):
        with WebServiceClient(service, async_workers=workers) as client:
            return kernel(client, actors)

    try:
        # One listing request: a service error surfaces here instead of
        # silently truncating the batch.
        actors = service.request("list_type", "actor")[:size]
        base, base_s = measure(lambda: run(moviegraph.collect_filmographies, 1))
        orig, trans = figure.new_series("orig"), figure.new_series("trans")
        for threads in grid:
            fast, fast_s = measure(lambda: run(rewritten, threads))
            assert fast == base, f"fig15: 'trans' changed the result at x={threads}"
            orig.add(threads, base_s)
            trans.add(threads, fast_s)
    finally:
        service.shutdown()
    add_headline(figure, "trans", "orig")
    return figure


# ----------------------------------------------------------------------
# Prefetch + result cache, speculation, mixed runtimes (beyond the paper)
# ----------------------------------------------------------------------

def _stats_note(variant, section, template):
    """One note per point from one variant's connection counters."""
    return lambda x, stats: template.format(x=x, **stats[variant][section])


def _aio_lookups(sql):
    """The Rule A two-loop shape as a coroutine over ``(label, key)``
    pairs, on an asyncio adapter over the sweep's connection."""

    async def lookups(aconn, pairs):
        handles = [aconn.submit_query(sql, [key]) for _label, key in pairs]
        rows = [await aconn.fetch_result(handle) for handle in handles]
        return [(pair[0], row[0][0], row[0][1]) for pair, row in zip(pairs, rows)]

    return lambda conn, pairs: asyncio.run(lookups(AioConnection(conn), pairs))


def _aio_profiles(conn, ids):
    return _aio_lookups(hotset.PROFILE_SQL)(conn, [(uid, uid) for uid in ids])


# The third variant's measured batch is the steady-state repeat request,
# served client-side without a round trip or server work.
PREFETCH_CACHE = Sweep(
    "prefetch-cache",
    "Hot-set profile reads ({profile}, {threads} threads, 16 hot users, "
    "90% skew)",
    "iterations",
    "beyond the paper: ROADMAP caching lever (prefetch+cache must beat "
    "blocking and match async)",
    build=_hotset,
    inputs=_skewed_ids,
    grid=(200, 1000, 2000),
    full_grid=(200, 1000, 4000),
    variants=(
        Variant("blocking", hotset.load_profiles),
        Variant("async", PROFILES_ASYNC),
        Variant(
            "prefetch+cache", PROFILES_ASYNC,
            connect={"result_cache": lambda: ResultCache(capacity=512)},
        ),
    ),
    latencies=True,
    headline=("prefetch+cache", "blocking", "async"),
    note=_stats_note(
        "prefetch+cache", "cache",
        "{x} iterations: steady-state hit-rate {hit_rate:.2f} ({hits} hits / "
        "{lookups} lookups), {evictions} evictions",
    ),
)


def _cards(card):
    """The per-user card kernel over a batch of ids."""
    return lambda conn, ids: [card(conn, uid) for uid in ids]


@functools.lru_cache(maxsize=None)
def _speculative_card(profile):
    # The cost model is fed the run's latencies and the ~91% population
    # estimate (the skewed batch realizes ~0.7-0.8).
    policy = SpeculationPolicy(
        profile=profile, hit_probability=hotset.DETAIL_HIT_PROBABILITY
    )
    return asyncify(
        hotset.profile_card, prefetch=True, speculate=True, speculation=policy
    )


def _speculation_note(x, stats):
    # Read after close: the drain has settled every speculation of the
    # measured batch as a hit or a waste.
    counters = stats["speculative"]["submission"]
    made, hits = counters["speculations"], counters["speculation_hits"]
    wasted = counters["speculation_wasted"]
    assert hits + wasted == made, f"unsettled speculations leaked: {counters}"
    return (
        f"{x} iterations: {made} speculations, {hits} hits / {wasted} wasted "
        f"(hit-rate {hits / made if made else 0.0:.2f})"
    )


# The card kernel's detail lookup is guarded by the *first query's
# result*, so the guarded hoist cannot start it early and a detailed card
# pays two sequential round trips.  The speculative variant issues it
# unguarded and abandons the handle for low-rated sellers.  Both wrapped
# kernels transform in their warm-up run.
SPECULATIVE_PREFETCH = Sweep(
    "speculative-prefetch",
    "Hot-set profile cards, speculative detail reads ({profile}, "
    "{threads} threads)",
    "iterations",
    "beyond the paper: Discussion-section speculation (unguarded prefetch "
    "must beat the guarded-only baseline)",
    build=_hotset,
    inputs=_skewed_ids,
    grid=(100, 300, 600),
    full_grid=(100, 300, 900),
    variants=(
        Variant("blocking", _cards(hotset.profile_card)),
        Variant("guarded", _cards(Transformed(hotset.profile_card, prefetch=True))),
        Variant(
            "speculative",
            lambda conn, ids: _cards(_speculative_card(conn.server.profile))(conn, ids),
        ),
    ),
    headline=("speculative", "guarded", "blocking"),
    note=_speculation_note,
)


def mixed_clients(grid=None, threads=10, profile=SYS1) -> FigureData:
    """A sync and an asyncio client over ONE shared cache (either
    client's fill is the other's hit), then both reading concurrently
    while a cache-less writer keeps bumping hot-set ratings: server-side
    invalidation must keep every cached read fresh, which is checked
    once the churn settles.  Concurrent clients on shared connections
    are not a grid x variants sweep."""
    if grid is None:
        grid = (200, 1000, 4000) if full_mode() else (200, 1000, 2000)
    profile = scaled(profile)
    figure = FigureData(
        "mixed-clients",
        f"Mixed sync+aio clients, shared cache ({profile.name}, {threads} "
        "threads, 16 hot users)",
        "iterations",
        paper_reference="beyond the paper: cross-connection invalidation "
        "correctness under mixed-runtime load",
    )
    series = {
        name: figure.new_series(name)
        for name in ("sync+cache", "aio+cache", "mixed+writer")
    }
    with hotset.build_database(profile) as db:
        for count in grid:
            ids = hotset.skewed_user_batch(db, count)
            hot = [uid for uid, _ in Counter(ids).most_common(16)]
            cache = ResultCache(capacity=512)
            sync_conn = db.connect(async_workers=threads, result_cache=cache)
            aio_conn = db.connect(async_workers=threads, result_cache=cache)
            writer = db.connect(async_workers=1)  # cache-less
            stop = threading.Event()

            def churn():
                bump = 0
                while not stop.is_set():
                    bump += 1
                    for uid in hot:
                        writer.execute_update(hotset.RATING_UPDATE_SQL, [bump % 5, uid])

            def mixed():
                writing = threading.Thread(target=churn)
                reading = threading.Thread(
                    target=hotset.load_profiles, args=(sync_conn, ids)
                )
                writing.start()
                reading.start()
                try:
                    return _aio_profiles(aio_conn, ids)
                finally:
                    reading.join()
                    stop.set()
                    writing.join()

            try:
                base = hotset.load_profiles(sync_conn, ids)  # warm + fill
                got, seconds = measure(lambda: hotset.load_profiles(sync_conn, ids))
                assert got == base
                series["sync+cache"].add(count, seconds)
                got, seconds = measure(lambda: _aio_profiles(aio_conn, ids))
                assert got == base, "shared cache must serve both runtimes"
                series["aio+cache"].add(count, seconds)
                series["mixed+writer"].add(count, measure(mixed)[1])
                for uid in hot:
                    fresh = writer.execute_query(hotset.PROFILE_SQL, [uid])
                    cached = sync_conn.execute_query(hotset.PROFILE_SQL, [uid])
                    assert cached[0][1] == fresh[0][1], (
                        f"stale cached rating for user {uid}: "
                        f"{cached[0][1]} != {fresh[0][1]}"
                    )
            finally:
                for connection in (sync_conn, aio_conn, writer):
                    connection.close()
            figure.notes.append(
                "{x} iterations: hit-rate {hit_rate:.2f}, {invalidations} "
                "invalidations under churn; fresh-read check ok".format(
                    x=count, **cache.stats_snapshot()
                )
            )
    return figure


# ----------------------------------------------------------------------
# Table I, transformation time, reordering: no store, so no sweep
# ----------------------------------------------------------------------


def table1():
    """Table I: applicability over the two benchmark applications."""
    auction = analyze_functions(rubis.QUERY_LOOPS, "Auction")
    bulletin = analyze_functions(rubbos.QUERY_LOOPS, "Bulletin Board")
    return format_table_one([auction, bulletin]), [auction, bulletin]


def _source_of(functions) -> str:
    return "\n\n".join(textwrap.dedent(inspect.getsource(fn)) for fn in functions)


def transform_time() -> FigureData:
    """Section VI: program transformation takes well under a second."""
    figure = FigureData(
        figure_id="transform-time",
        title="Time to transform each workload application",
        x_label="workload #",
        paper_reference="paper reports < 1 second per program",
    )
    engine = TransformEngine()
    series = figure.new_series("transform-seconds")
    workload_sources = [
        ("rubis", rubis.QUERY_LOOPS),
        ("rubbos", rubbos.QUERY_LOOPS),
        ("category", [category.max_part_size, category.subtree_part_count]),
        ("moviegraph", [moviegraph.collect_filmographies, moviegraph.movie_years]),
    ]
    for index, (name, functions) in enumerate(workload_sources):
        source = _source_of(functions)
        started = time.perf_counter()
        engine.transform_source(source)
        elapsed = time.perf_counter() - started
        series.add(index, elapsed)
        figure.notes.append(f"{name}: {elapsed * 1000:.1f} ms")
    return figure


def ablation_reorder():
    """Statement reordering ON vs OFF: how many loops stay transformable.

    This measures the paper's novelty claim — without Section IV's
    reordering, Rule A alone loses the worklist/traversal loops.
    """
    source = _source_of(
        rubis.QUERY_LOOPS
        + rubbos.QUERY_LOOPS[:6]
        + [category.max_part_size, category.subtree_part_count]
    )
    with_reorder = TransformEngine(reorder_enabled=True).transform_source(source)
    without_reorder = TransformEngine(reorder_enabled=False).transform_source(source)
    counts = {
        "loops": with_reorder.opportunities,
        "transformed_with_reorder": with_reorder.transformed_loops,
        "transformed_without_reorder": without_reorder.transformed_loops,
    }
    text = (
        "Ablation: statement reordering\n"
        f"  query loops analyzed:            {counts['loops']}\n"
        f"  transformed WITH reordering:     {counts['transformed_with_reorder']}\n"
        f"  transformed WITHOUT reordering:  {counts['transformed_without_reorder']}\n"
    )
    return text, counts


# ----------------------------------------------------------------------
# Timing ablations
# ----------------------------------------------------------------------

ABLATION_SERVER = Sweep(
    "ablation-server",
    "Server mechanisms ablation (cold category traversal)",
    "config# (0=elevator on, 1=elevator off)",
    "Section VI: concurrent submission lets the disk scheduler reorder "
    "requests — where the cold-cache win comes from",
    build=lambda profile, size, x: category.build_database(
        profile, parts=size, elevator=(x == 0)
    ),
    inputs=_traversal_100,
    grid=(0, 1),
    variants=(
        Variant("orig", TRAVERSAL, threads=1, cache="cold"),
        Variant("trans", TRAVERSAL_ASYNC, cache="cold"),
    ),
    threads=20,
    size=30_000,
    store_per_point=True,
)

ABLATION_WINDOW = Sweep(
    "ablation-window",
    "Bounded-window fission over {size} RUBiS iterations",
    "window (0 = unbounded)",
    "Discussion: limiting in-flight records caps memory",
    build=_rubis,
    # Transformed here, once per window, so it stays off the clock.
    inputs=lambda db, x, size: (
        asyncify(AUTHORS, window=x or None), rubis.comment_batch(db, size)
    ),
    grid=(0, 64, 256, 1024),
    variants=(Variant("trans", lambda conn, kernel, batch: kernel(conn, batch)),),
    size=4000,
    oracle=lambda conn, kernel, batch: AUTHORS(conn, batch),
)

# Thread-pool observer model (the paper's Executor framework) vs the
# asyncio event loop at matched in-flight budgets: both run the Rule A
# two-loop shape, so differences are client-coordination overhead.  With
# a ResultCache the repeat batch resolves at submit time, without a
# thread hop.
ABLATION_AIO = Sweep(
    "ablation-aio",
    "Thread-pool vs asyncio runtime over {size} RUBiS iterations",
    "in-flight budget (threads / pool slots)",
    "Section II observer model; asyncio as the modern analog",
    build=_rubis,
    inputs=_comments_of_size,
    grid=(1, 5, 10, 20),
    variants=(
        Variant("threads", AUTHORS_ASYNC, threads=X),
        Variant("asyncio", _aio_lookups(rubis.AUTHOR_SQL), threads=X),
        Variant(
            "asyncio+cache", _aio_lookups(rubis.AUTHOR_SQL), threads=X,
            connect={"result_cache": lambda: ResultCache(capacity=4096)},
        ),
    ),
    size=2000,
    oracle=AUTHORS,
    note=_stats_note(
        "asyncio+cache", "cache",
        "{x} in flight: asyncio+cache steady-state hit-rate {hit_rate:.2f} "
        "({hits} hits / {lookups} lookups)",
    ),
)


def _spill_kernel(conn, make_table, batch):
    """Rule A's output shape with an injected record table."""
    table = make_table()
    for comment in batch:
        record = table.new_record(comment=comment)
        record.handle = conn.submit_query(rubis.AUTHOR_SQL, [comment[1]])
        table.add(record)
    authors = []
    for record in table:
        row = conn.fetch_result(record.handle)
        authors.append((record.comment[0], row[0][0], row[0][1]))
    table.clear()
    return authors


# The Discussion's *other* memory mitigation: keep every query in flight
# but materialize the cold prefix of the record table to disk.
ABLATION_SPILL = Sweep(
    "ablation-spill",
    "Spill-to-disk record table over {size} RUBiS iterations",
    "resident cap (0 = unbounded, in-memory)",
    "Discussion: materialize part of the table to disk",
    build=_rubis,
    inputs=lambda db, x, size: (
        functools.partial(SpillableRecordTable, max_resident=x) if x else RecordTable,
        rubis.comment_batch(db, size),
    ),
    grid=(0, 64, 256, 1024),
    variants=(Variant("trans", _spill_kernel),),
    size=4000,
    oracle=lambda conn, _make, batch: AUTHORS(conn, batch),
)


# ----------------------------------------------------------------------
# Batching vs asynchronous submission (paper Introduction), cost model
# ----------------------------------------------------------------------


def _fanout_batch(conn, comments):
    # The paper's comparison point: one round trip carries the batch,
    # but the server still runs one statement per binding (overlapped
    # on the connection's executor, at most ``server_workers`` at once).
    server = conn.server
    server.meter.charge("network", server.profile.network_rtt_s)
    prepared = server.prepare(rubis.AUTHOR_SQL)
    futures = [
        conn.executor.submit(
            functools.partial(server.execute_prepared, prepared, (pair[1],))
        )
        for pair in comments
    ]
    return [future.result() for future in futures]


def _set_batch(conn, comments):
    # One demuxed statement execution answers the batch.
    return BatchExecutor(conn).execute_batch(
        rubis.AUTHOR_SQL, [(pair[1],) for pair in comments]
    )


def _then_work(fetch):
    """Client work strictly AFTER the blocking fetch of every result."""
    return lambda conn, comments, work: (
        len(fetch(conn, comments)) + sum(work(pair) for pair in comments)
    )


def _overlapping_work(conn, comments, work):
    handles = [conn.submit_query(rubis.AUTHOR_SQL, [pair[1]]) for pair in comments]
    checksum = sum(work(pair) for pair in comments)  # requests are in flight
    return len([conn.fetch_result(handle) for handle in handles]) + checksum


def _client_work(weight):
    def work(pair):
        text = f"comment-{pair[0]}-user-{pair[1]}" * weight
        return sum(ord(ch) for ch in text) & 0xFFFF

    return work


def _with_statement_cost(build, cpu_fixed_s):
    """``build``'s store with a heavier fixed server cost per statement
    (set after ``REPRO_BENCH_SCALE``, so it does not scale) and the
    ``users`` table warm: these sweeps run every variant on the store as
    it is, with no warm-up run."""

    def heavier(profile, size, x):
        db = build(replace(profile, cpu_fixed_s=cpu_fixed_s), size, x)
        db.warm_table("users")
        return db

    return heavier


def _on_one_axis(figure: FigureData) -> FigureData:
    """Redraw one series per discipline as the single ``time`` series,
    discipline ``i`` of grid point ``x`` at ``x + i``."""
    disciplines, figure.series = figure.series, []
    time_series = figure.new_series("time")
    for points in zip(*(series.points for series in disciplines)):
        for index, (x, seconds) in enumerate(points):
            time_series.add(x + index, seconds)
    return figure


# Light (x=0..3) and heavy (x=10..13) per-iteration client work on a
# 4 ms analytical query: batching blocks the client for the whole
# server-side batch, asynchronous submission overlaps it.
ABLATION_BATCHING = Sweep(
    "ablation-batching",
    "Blocking vs batched vs async vs set ({size} iterations)",
    "x = regime*10 + discipline (0=blk 1=batch 2=async 3=set)",
    "Intro: batching saves round trips; async also overlaps client "
    "computation; set-oriented batching collapses the batch to one statement",
    build=_with_statement_cost(_rubis, 4e-3),
    inputs=lambda db, x, size: (
        rubis.comment_batch(db, size), _client_work(320 if x else 2)
    ),
    grid=(0, 10),
    variants=(
        Variant("blocking", _then_work(AUTHORS), threads=1, cache=None),
        Variant("batched", _then_work(_fanout_batch), cache=None),
        Variant("async", _overlapping_work, cache=None),
        Variant("set", _then_work(_set_batch), threads=1, cache=None),
    ),
    threads=20,
    size=2000,
)


def ablation_batching(**overrides) -> FigureData:
    return _on_one_axis(run_sweep(ABLATION_BATCHING, **overrides))


def _coalesce_note(x, stats):
    counters = stats["async+coalesce"]["submission"]
    assert counters["coalesced_batches"] > 0, (
        "the skewed lookup loop must outrun the executor and form at least "
        "one batch"
    )
    return (
        "coalesced: {coalesced_batches} batches carried {coalesced_queries} "
        "queries, {round_trips_saved} round trips saved".format(**counters)
    )


# Hotset point lookups, x = discipline.  The per-statement fixed server
# cost (2.5 ms here) is what the dispatch coalescer amortizes.
BATCHED_DISPATCH = Sweep(
    "batched-dispatch",
    "Hotset dispatch: blocking vs async vs async+coalesce ({size} lookups)",
    "x = discipline (0=blocking 1=async 2=async+coalesce 3=scan)",
    "Intro: batching vs async — upgraded to a hybrid that batches whatever "
    "is outstanding behind the executor",
    build=_with_statement_cost(_hotset, 2.5e-3),
    inputs=lambda db, x, size: (hotset.skewed_user_batch(db, size),),
    grid=(0,),
    variants=(
        Variant("blocking", hotset.load_profiles, threads=1, cache=None),
        Variant("async", PROFILES_ASYNC, cache=None),
        Variant(
            "async+coalesce", PROFILES_ASYNC, cache=None,
            connect={"coalesce": True, "coalesce_window": 32},
        ),
    ),
    threads=20,
    size=300,
    latencies=True,
    note=_coalesce_note,
)

SCAN_SQL = (
    "SELECT count(*), sum(value), max(value) FROM events "
    "WHERE kind = ? AND value >= ?"
)


def batched_dispatch(threads=20, size=300) -> FigureData:
    """The dispatch sweep plus, at x=3, a scan-bound aggregate loop
    (``size // 10`` scans of ``40 * size`` rows): no usable index and no
    simulated latency, so the figure's JSON keeps percentiles of pure
    executor work (gated by perfbench's ``scan_agg``)."""
    figure = _on_one_axis(run_sweep(BATCHED_DISPATCH, threads=threads, size=size))
    registry = MetricsRegistry()
    with Database(INSTANT) as db:
        db.create_table("events", ("event_id", "int"), ("kind", "int"), ("value", "float"))
        db.bulk_load("events", [(i, i % 7, float(i % 100) / 3.0) for i in range(40 * size)])
        with db.connect(metrics=registry) as conn:
            _rows, seconds = measure(
                lambda: [
                    conn.execute_query(SCAN_SQL, [q % 7, float(q % 11)])
                    for q in range(size // 10)
                ]
            )
    figure.absorb_latencies("scan:columnar", registry)
    figure.new_series("scan:columnar").add(3, seconds)
    return figure


COSTMODEL = Sweep(
    "costmodel",
    "Cost-model predictions vs measurements",
    "iterations",
    "Discussion: cost-based 'which calls to transform' and 'how many threads'",
    build=_rubis,
    inputs=_comments_at_x,
    grid=(4, 40, 400, 2000),
    variants=(
        Variant("measured-orig", AUTHORS),
        Variant("measured-trans", AUTHORS_ASYNC),
    ),
)


def costmodel(grid=None, threads=10, profile=SYS1) -> FigureData:
    """The measured sweep next to the analytic estimates for the same
    profile, threads and grid."""
    figure = run_sweep(COSTMODEL, grid=grid, threads=threads, profile=profile)
    profile = scaled(profile)
    orig = figure.new_series("predicted-orig")
    trans = figure.new_series("predicted-trans")
    for iterations in figure.xs():
        estimate = estimate_loop_cost(
            profile, iterations, threads=threads, server_time_s=60e-6
        )
        orig.add(iterations, estimate.blocking_s)
        trans.add(iterations, estimate.async_s)
    figure.notes += [
        f"predicted break-even: {breakeven_iterations(profile, threads=threads)} "
        "iterations",
        f"recommended threads for 4000 iterations: {recommend_threads(profile, 4000)}",
    ]
    return figure


# ----------------------------------------------------------------------
# The registry and the one entry point
# ----------------------------------------------------------------------

#: figure id -> its :class:`Sweep` description or the plain function
#: that produces the result.
REGISTRY: Dict[str, Union[Sweep, Callable[..., Any]]] = {
    "fig08": FIG08,
    "fig09": FIG09,
    "fig10": FIG10,
    "fig11": FIG11,
    "fig12": FIG12,
    "fig13": FIG13,
    "fig14": fig14,
    "fig15": fig15,
    "table1": table1,
    "transform-time": transform_time,
    "prefetch-cache": PREFETCH_CACHE,
    "speculative-prefetch": SPECULATIVE_PREFETCH,
    "mixed-clients": mixed_clients,
    "ablation-reorder": ablation_reorder,
    "ablation-server": ABLATION_SERVER,
    "ablation-window": ABLATION_WINDOW,
    "ablation-aio": ABLATION_AIO,
    "ablation-spill": ABLATION_SPILL,
    "ablation-batching": ablation_batching,
    "batched-dispatch": batched_dispatch,
    "costmodel": costmodel,
}

#: Overrides under which every figure still runs each variant end to end
#: in well under a second (tier-1 smoke, CI artifact loop).
SMOKE: Dict[str, Dict[str, Any]] = {
    "fig08": dict(grid=(2, 4), threads=2, profile=INSTANT),
    "fig09": dict(grid=(1, 2), size=20, profile=INSTANT),
    "fig10": dict(grid=(1, 2), size=20, profile=INSTANT),
    "fig11": dict(grid=(3, 6), threads=2, profile=INSTANT),
    "fig12": dict(grid=(1, 11), threads=2, profile=INSTANT, size=800),
    "fig13": dict(grid=(1, 2), profile=INSTANT, size=800),
    "fig14": dict(grid=(10, 30), threads=2, profile=INSTANT),
    "fig15": dict(grid=(1, 2), size=20),
    "prefetch-cache": dict(grid=(20, 40), threads=2, profile=INSTANT),
    "speculative-prefetch": dict(grid=(10, 20), threads=2, profile=INSTANT),
    "mixed-clients": dict(grid=(20, 40), threads=2, profile=INSTANT),
    "ablation-server": dict(threads=2, profile=INSTANT, size=800),
    "ablation-window": dict(grid=(0, 8), threads=2, profile=INSTANT, size=40),
    "ablation-aio": dict(grid=(1, 2), profile=INSTANT, size=40),
    "ablation-spill": dict(grid=(0, 8), threads=2, profile=INSTANT, size=40),
    "ablation-batching": dict(threads=2, size=10),
    "batched-dispatch": dict(threads=4, size=60),
    "costmodel": dict(grid=(4, 40)),
}


def run(figure_id: str, **overrides: Any):
    """Run one registered figure.

    ``overrides`` — ``grid``, ``threads``, ``profile``, ``size`` — are
    what a sweep takes; a plain function takes those of them that mean
    something for it.  Returns a :class:`FigureData` (``table1`` and
    ``ablation-reorder`` return ``(text, detail)``).
    """
    entry = REGISTRY[figure_id]
    if isinstance(entry, Sweep):
        return run_sweep(entry, **overrides)
    return entry(**overrides)
