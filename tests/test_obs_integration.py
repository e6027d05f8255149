"""Integration coverage for the observability layer: the uniform
``stats_snapshot()`` surfaces, the unified registry wiring through
``Database.connect``, the bench-JSON emission, and the CLI commands."""

import asyncio
import json

import pytest

from repro.bench.harness import FigureData, write_bench_json
from repro.cli import main
from repro.client.batching import BatchExecutor
from repro.obs.metrics import MetricsRegistry
from repro.prefetch.cache import ResultCache
from repro.runtime.aio import aio_connect

SQL = "SELECT count(*) FROM t WHERE grp = ?"


@pytest.fixture
def grouped(db):
    db.create_table("t", ("a", "int"), ("grp", "int"))
    db.bulk_load("t", [(i, i % 4) for i in range(40)])
    return db


def run_some_queries(conn, count=6):
    handles = [conn.submit_query(SQL, [g % 4]) for g in range(count)]
    for handle in handles:
        conn.fetch_result(handle)
    conn.execute_query(SQL, [0])


class TestSnapshotSurfaces:
    """Every stats surface answers ``stats_snapshot()`` with a plain,
    JSON-serializable dict — the supported alternative to peeking at
    dataclass attributes."""

    def test_cache_snapshot(self, grouped):
        cache = ResultCache(capacity=8)
        with grouped.connect(async_workers=2, result_cache=cache) as conn:
            run_some_queries(conn)
        snap = cache.stats_snapshot()
        json.dumps(snap)
        assert snap["lookups"] > 0
        assert 0.0 <= snap["hit_rate"] <= 1.0
        assert snap["capacity"] == 8
        assert snap["size"] <= 8

    def test_pipeline_and_connection_snapshots(self, grouped):
        cache = ResultCache(capacity=8)
        with grouped.connect(
            async_workers=2, coalesce=True, result_cache=cache
        ) as conn:
            run_some_queries(conn)
            snap = conn.stats_snapshot()
        json.dumps(snap)
        submission = snap["submission"]
        assert submission["async_submits"] == 6
        assert submission["blocking_calls"] == 1
        assert "speculation_sites" in submission
        assert snap["cache"]["lookups"] > 0

    def test_server_snapshot(self, grouped):
        with grouped.connect(async_workers=2) as conn:
            run_some_queries(conn)
            store = conn.server  # whichever backend the conn talks to
        snap = store.stats_snapshot()
        json.dumps(snap)
        assert snap["statements_executed"] > 0
        assert snap["prepared_cached"] >= 1
        assert snap["active"] == 0  # quiesced after the connection closed

    def test_batch_executor_snapshot(self, grouped):
        with grouped.connect(async_workers=2) as conn:
            batcher = BatchExecutor(conn)
            batcher.execute_batch(SQL, [[0], [1], [2]])
            snap = batcher.stats_snapshot()
        json.dumps(snap)
        assert snap == {"batches": 1, "statements": 3, "set_batches": 1}

    def test_aio_snapshot(self, grouped):
        async def run():
            with aio_connect(grouped) as conn:
                handle = conn.submit_query(SQL, [1])
                await conn.fetch_result(handle)
                return conn.stats_snapshot()

        snap = asyncio.run(run())
        json.dumps(snap)
        assert snap["aio"]["submitted"] == 1
        assert snap["submission"]["async_submits"] == 1


class TestRegistryWiring:
    def test_connect_metrics_true_uses_database_registry(self, grouped):
        cache = ResultCache(capacity=8)
        with grouped.connect(
            async_workers=2, result_cache=cache, metrics=True
        ) as conn:
            run_some_queries(conn)
        snap = grouped.stats_snapshot()
        json.dumps(snap, default=str)
        assert set(snap) == {"counters", "gauges", "histograms", "sources"}
        for source in ("submission", "cache", "server", "io"):
            assert source in snap["sources"]
        # per-op latency histograms observed real requests
        assert snap["histograms"]["submission.query_s"]["count"] == 6
        assert snap["histograms"]["submission.blocking_s"]["count"] == 1
        assert snap["histograms"]["submission.query_s"]["p99"] is not None

    def test_private_registry_isolates_variants(self, grouped):
        reg = MetricsRegistry()
        with grouped.connect(async_workers=2, metrics=reg) as conn:
            run_some_queries(conn)
        assert reg.snapshot()["histograms"]["submission.query_s"]["count"] == 6
        # the database-wide registry saw none of it
        db_hists = grouped.stats_snapshot()["histograms"]
        assert db_hists.get("submission.query_s", {"count": 0})["count"] == 0

    def test_aio_completions_feed_the_query_histogram(self, grouped):
        reg = MetricsRegistry()

        async def run():
            with aio_connect(grouped, metrics=reg) as conn:
                handles = [conn.submit_query(SQL, [g]) for g in range(3)]
                for handle in handles:
                    await conn.fetch_result(handle)

        asyncio.run(run())
        assert reg.snapshot()["histograms"]["submission.query_s"]["count"] >= 3


class TestBenchJson:
    def _figure(self):
        figure = FigureData(
            figure_id="demo-fig", title="demo", x_label="iterations"
        )
        series = figure.new_series("async")
        series.add(10, 0.5)
        figure.op_histogram("async").observe(0.004)
        figure.op_histogram("async").observe(0.009)
        return figure

    def test_bench_json_carries_points_and_percentiles(self):
        doc = self._figure().bench_json()
        entry = doc["series"][0]
        assert entry["name"] == "async"
        assert entry["points"] == [{"x": 10, "seconds": 0.5}]
        assert entry["latency"]["count"] == 2
        for key in ("p50", "p90", "p95", "p99"):
            assert entry["latency"][key] is not None

    def test_absorb_latencies_folds_registry_histograms(self, grouped):
        reg = MetricsRegistry()
        with grouped.connect(async_workers=2, metrics=reg) as conn:
            run_some_queries(conn)
        figure = FigureData(figure_id="f", title="t", x_label="x")
        figure.absorb_latencies("async", reg)
        # blocking + async observations both folded into one histogram
        assert figure.op_histogram("async").count == 7

    def test_write_bench_json_names_and_round_trips(self, tmp_path):
        path = write_bench_json(self._figure(), directory=str(tmp_path))
        assert path.endswith("BENCH_demo_fig.json")
        doc = json.loads((tmp_path / "BENCH_demo_fig.json").read_text())
        assert doc["figure_id"] == "demo-fig"
        assert doc["series"][0]["latency"]["p99"] is not None


class TestCliCommands:
    def test_stats_json_round_trips(self, capsys):
        assert main(["stats", "--json", "--ops", "20"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"counters", "gauges", "histograms", "sources"}
        assert doc["sources"]["submission"]["async_submits"] > 0
        assert doc["histograms"]["submission.query_s"]["p99"] is not None

    def test_stats_tree_view(self, capsys):
        assert main(["stats", "--ops", "10"]) == 0
        out = capsys.readouterr().out
        assert "submission" in out and "cache" in out

    def test_trace_json_exports_spans(self, capsys):
        assert main(["trace", "--json", "--ops", "10"]) == 0
        spans = json.loads(capsys.readouterr().out)
        names = {span["name"] for span in spans}
        assert {"query", "dispatch", "server.execute", "fetch"} <= names

    def test_trace_tree_view(self, capsys):
        assert main(["trace", "--ops", "10"]) == 0
        out = capsys.readouterr().out
        assert "query" in out and "server.execute" in out
