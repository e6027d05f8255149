"""Set-oriented dispatch ablation: blocking / async / async+coalesce.

The paper's introduction frames batching and asynchronous submission as
alternatives; the dispatch coalescer makes them a hybrid.  A loop of
hoisted point lookups over one prepared template (the hotset profile
workload — exactly what prefetch hoisting produces) submits faster than
the executor drains, so submits of the same statement pile up behind
the workers.  Plain async answers each with its own round trip and its
own server statement; with ``coalesce=True`` the pile is merged into
batched server calls — one round trip and *one* demuxed statement
execution per batch — while keeping the asynchronous overlap that plain
batching gives up.

On the skewed point-lookup workload, async+coalesce must therefore beat
plain async by a measurable margin (asserted below): the per-statement
fixed server cost is paid once per batch instead of once per query, and
the demux operator collapses the hot set's duplicate bindings for free.

A scan-bound aggregate loop rides along as one more point
(``scan:columnar``): pure executor work (INSTANT profile, no usable
index), so ``BENCH_batched_dispatch.json`` keeps scan latency
percentiles.  Its correctness and speed are gated by the oracle-checked
``scan_agg`` workload of ``perfbench``, not here.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import run_once

from repro.bench.figures import _scaled
from repro.bench.harness import FigureData, measure, write_bench_json
from repro.db.database import Database
from repro.db.latency import INSTANT, SYS1
from repro.obs.metrics import MetricsRegistry
from repro.workloads import hotset

#: Margin async+coalesce must beat plain async by on the skewed
#: point-lookup loop.  The expected win is several-fold (one fixed
#: statement cost per ~window queries instead of per query); 1.2x
#: leaves headroom for noisy CI machines while still failing if the
#: coalescer stops merging.
COALESCE_SPEEDUP = 1.2

SCAN_SQL = "SELECT count(*), sum(value), max(value) FROM events WHERE kind = ? AND value >= ?"


def run_scan_point(
    figure: FigureData, rows: int = 12000, queries: int = 30
) -> None:
    """Time a scan-bound aggregate loop on the executor.

    Appends the single-point series ``scan:columnar`` (at x=3) plus its
    per-query latency percentiles to ``figure``.  The table has no
    usable index for the predicate, so every query is a full sequential
    scan; the INSTANT profile charges no simulated latency, leaving
    pure executor (interpreter) work.
    """
    label = "scan:columnar"
    with Database(INSTANT) as db:
        db.create_table(
            "events", ("event_id", "int"), ("kind", "int"), ("value", "float")
        )
        db.bulk_load(
            "events",
            [(i, i % 7, float(i % 100) / 3.0) for i in range(rows)],
        )
        registry = MetricsRegistry()
        with db.connect(metrics=registry) as conn:

            def runner():
                return [
                    conn.execute_query(SCAN_SQL, [q % 7, float(q % 11)])
                    for q in range(queries)
                ]

            _value, seconds = measure(runner)
        figure.absorb_latencies(label, registry)
        figure.new_series(label).add(3, seconds)
        figure.notes.append(f"{label}: {seconds:.3f}s ({queries} scans of {rows} rows)")


def run_dispatch(
    iterations: int = 300,
    threads: int = 20,
    window: int = 32,
    scan_rows: int = 12000,
    scan_queries: int = 30,
) -> FigureData:
    # Per-statement fixed server cost dominates a point lookup on this
    # profile; that is precisely the cost the coalescer amortizes.
    profile = replace(_scaled(SYS1), cpu_fixed_s=2.5e-3)
    figure = FigureData(
        figure_id="batched-dispatch",
        title=f"Hotset dispatch: blocking vs async vs async+coalesce "
        f"({iterations} lookups)",
        x_label="x = discipline (0=blocking 1=async 2=async+coalesce "
        "3=scan)",
        paper_reference="Intro: batching vs async — upgraded to a hybrid "
        "that batches whatever is outstanding behind the executor",
    )
    db = hotset.build_database(profile)
    try:
        user_ids = hotset.skewed_user_batch(db, iterations)
        series = figure.new_series("time")
        registries = {
            "blocking": MetricsRegistry(),
            "async": MetricsRegistry(),
            "async+coalesce": MetricsRegistry(),
        }

        def blocking():
            with db.connect(
                async_workers=1, metrics=registries["blocking"]
            ) as conn:
                return hotset.load_profiles(conn, user_ids)

        def lookup_loop(conn):
            handles = [
                conn.submit_query(hotset.PROFILE_SQL, [user_id])
                for user_id in user_ids
            ]
            profiles = []
            for user_id, handle in zip(user_ids, handles):
                row = conn.fetch_result(handle)
                profiles.append((user_id, row[0][0], row[0][1]))
            return profiles

        def asynchronous():
            with db.connect(
                async_workers=threads, metrics=registries["async"]
            ) as conn:
                return lookup_loop(conn)

        def coalesced():
            with db.connect(
                async_workers=threads, coalesce=True, coalesce_window=window,
                metrics=registries["async+coalesce"],
            ) as conn:
                profiles = lookup_loop(conn)
                stats = conn.stats_snapshot()["submission"]
                figure.notes.append(
                    f"coalesced: {stats['coalesced_batches']} batches "
                    f"carried {stats['coalesced_queries']} queries, "
                    f"{stats['round_trips_saved']} round trips saved"
                )
                assert stats["coalesced_batches"] > 0, (
                    "the skewed lookup loop must outrun the executor and "
                    "form at least one batch"
                )
                return profiles

        expected = None
        for x, (label, runner) in enumerate(
            (
                ("blocking", blocking),
                ("async", asynchronous),
                ("async+coalesce", coalesced),
            )
        ):
            db.warm_table("users")
            value, seconds = measure(runner)
            figure.absorb_latencies(label, registries[label])
            if expected is None:
                expected = value
            assert value == expected, f"{label} changed the results"
            series.add(x, seconds)
            figure.notes.append(f"{label}: {seconds:.3f}s")
    finally:
        db.close()
    run_scan_point(figure, rows=scan_rows, queries=scan_queries)
    return figure


def test_batched_dispatch(benchmark):
    figure = run_once(benchmark, run_dispatch)
    print()
    print(figure.format())
    times = {x: s for x, s in figure.series[0].points}
    # Asynchronous submission beats blocking (the paper's core result)…
    assert times[1] < times[0]
    # …and set-oriented dispatch beats plain async on the skewed
    # point-lookup loop, by an asserted margin.
    assert times[2] < times[1], (
        "async+coalesce must beat plain async "
        f"({times[2]:.3f}s vs {times[1]:.3f}s)"
    )
    speedup = times[1] / times[2]
    assert speedup >= COALESCE_SPEEDUP, (
        f"coalescing speedup {speedup:.2f}x below the asserted "
        f"{COALESCE_SPEEDUP}x margin "
        f"(async {times[1]:.3f}s vs coalesced {times[2]:.3f}s)"
    )


if __name__ == "__main__":
    figure = run_dispatch()
    print(figure.format())
    print(f"wrote {write_bench_json(figure)}")
