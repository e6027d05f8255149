"""Unit tests: benchmark harness containers and a fast smoke of the
figure runners at tiny parameters."""

import json
import pathlib
from dataclasses import replace

import pytest

from repro.bench import figures
from repro.bench.harness import FigureData, bench_scale, full_mode, measure
from repro.bench.sweep import Sweep, Variant, run_sweep
from repro.db.latency import INSTANT
from repro.obs.metrics import MetricsRegistry


class TestFigureData:
    def make(self):
        figure = FigureData("figX", "a title", "iterations")
        a = figure.new_series("orig")
        b = figure.new_series("trans")
        a.add(10, 2.0)
        a.add(100, 20.0)
        b.add(10, 1.0)
        b.add(100, 4.0)
        return figure

    def test_xs_union(self):
        assert self.make().xs() == [10, 100]

    def test_speedup(self):
        figure = self.make()
        assert figure.speedup("orig", "trans", 100) == pytest.approx(5.0)
        assert figure.speedup("orig", "trans", 999) is None
        assert figure.speedup("orig", "missing", 10) is None

    def test_format_table(self):
        text = self.make().format()
        assert "figX" in text
        assert "orig" in text and "trans" in text
        assert "10" in text and "100" in text

    def test_series_at(self):
        figure = self.make()
        assert figure.series[0].at(10) == 2.0
        assert figure.series[0].at(11) is None

    def test_measure(self):
        value, seconds = measure(lambda: 41 + 1)
        assert value == 42
        assert seconds >= 0


class TestAbsorbLatencies:
    """Regression: a registry carrying custom-bounds histograms (e.g.
    ``scan.selectivity``) must absorb without a bounds-mismatch crash."""

    def test_custom_bounds_histogram_absorbs_cleanly(self):
        reg = MetricsRegistry()
        reg.histogram(
            "scan.selectivity", bounds=(0.01, 0.1, 0.5, 1.0)
        ).observe(0.3)
        figure = FigureData("figX", "t", "x")
        figure.absorb_latencies("columnar", reg)  # used to ValueError
        absorbed = figure.op_latencies["columnar"]
        assert absorbed.count == 1
        assert absorbed.bounds == (0.01, 0.1, 0.5, 1.0)

    def test_mismatched_bounds_skip_with_warning(self):
        default_reg = MetricsRegistry()
        default_reg.histogram("submission.query_s").observe(0.004)
        custom_reg = MetricsRegistry()
        custom_reg.histogram("scan.selectivity", bounds=(0.5, 1.0)).observe(
            0.7
        )
        figure = FigureData("figX", "t", "x")
        figure.absorb_latencies("series", default_reg)
        with pytest.warns(RuntimeWarning, match="bucket bounds"):
            figure.absorb_latencies("series", custom_reg)
        # The accumulated histogram is untouched by the skipped source.
        assert figure.op_latencies["series"].count == 1

    def test_matching_bounds_still_merge(self):
        figure = FigureData("figX", "t", "x")
        for value in (0.002, 0.008):
            reg = MetricsRegistry()
            reg.histogram("submission.query_s").observe(value)
            figure.absorb_latencies("series", reg)
        assert figure.op_latencies["series"].count == 2

    def test_series_meta_lands_in_bench_json(self):
        figure = FigureData("figX", "t", "x")
        figure.new_series("read")
        figure.op_histogram("read").observe(0.004)
        figure.series_meta["read"] = {
            "throughput": {"tot_ops": 1, "ops_per_s": 10.0, "errors": 0}
        }
        doc = figure.bench_json()
        entry = doc["series"][0]
        assert entry["name"] == "read"
        assert entry["throughput"]["ops_per_s"] == 10.0
        assert entry["latency"]["count"] == 1


class TestEnvKnobs:
    def test_bench_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0

    def test_bench_scale_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        assert bench_scale() == 0.25

    def test_bench_scale_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "lots")
        assert bench_scale() == 1.0

    def test_full_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
        assert not full_mode()
        monkeypatch.setenv("REPRO_BENCH_FULL", "1")
        assert full_mode()
        monkeypatch.setenv("REPRO_BENCH_FULL", "0")
        assert not full_mode()


class _FakeConnection:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class _FakeStore:
    def __init__(self):
        self.closed = False
        self.connections = []

    def connect(self, async_workers, **_kwargs):
        self.connections.append(_FakeConnection())
        return self.connections[-1]

    def close(self):
        self.closed = True


class TestSweepSkeleton:
    """The skeleton owns every store and connection it opens."""

    def sweep(self, stores, second, **extra):
        def build(profile, size, x):
            stores.append(_FakeStore())
            return stores[-1]

        return Sweep(
            "figX", "t", "x", "",
            build=build,
            inputs=lambda store, x, size: (x,),
            grid=(1, 2),
            variants=(Variant("first", lambda conn, x: x), Variant("second", second)),
            profile=INSTANT,
            **extra,
        )

    @pytest.mark.parametrize("store_per_point", [False, True])
    def test_raising_kernel_still_closes_connection_and_store(self, store_per_point):
        def second(conn, x):
            if x == 2:
                raise RuntimeError("mid-sweep failure")
            return x

        stores = []
        with pytest.raises(RuntimeError, match="mid-sweep failure"):
            run_sweep(self.sweep(stores, second, store_per_point=store_per_point))
        assert len(stores) == 1 + store_per_point
        assert all(store.closed for store in stores)
        connections = [c for store in stores for c in store.connections]
        assert connections and all(c.closed for c in connections)

    def test_mismatch_names_figure_variant_and_x(self):
        stores = []
        sweep = self.sweep(stores, lambda conn, x: x if x == 1 else -x)
        with pytest.raises(AssertionError, match=r"figX.*'second'.*x=2"):
            run_sweep(sweep)
        assert stores[0].closed

    def test_oracle_runs_once_and_is_not_plotted(self):
        stores, calls = [], []
        sweep = self.sweep(
            stores, lambda conn, x: 7, oracle=lambda conn, x: calls.append(x) or 7
        )
        sweep = replace(sweep, variants=sweep.variants[1:])
        figure = run_sweep(sweep)
        assert calls == [1]
        assert [series.name for series in figure.series] == ["second"]
        with pytest.raises(AssertionError, match=r"figX.*'second'.*x=1"):
            run_sweep(replace(sweep, oracle=lambda conn, x: 8))


GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_figures.json").read_text()
)


def _shape(result):
    """What must not drift: series names and order, x grids and the
    ``bench_json()`` key structure (``table1`` and ``ablation-reorder``
    are deterministic, so their whole output)."""
    if not isinstance(result, FigureData):
        text, detail = result
        return {"text": text, "detail": detail if isinstance(detail, dict) else None}
    doc = result.bench_json()
    return {
        "figure_id": doc["figure_id"],
        "x_label": doc["x_label"],
        "keys": sorted(doc),
        "series": [
            {
                "name": series["name"],
                "xs": [point["x"] for point in series["points"]],
                "keys": sorted(series),
                "latency_keys": sorted(series.get("latency", {})),
            }
            for series in doc["series"]
        ],
    }


class TestFigureRunnersSmoke:
    """Every registered figure at its ``figures.SMOKE`` size — the
    sweeps' correctness checks, not timing — against
    ``golden_figures.json``, captured from the hand-written runners these
    descriptions replaced (the commit before the registry) at the same
    parameters.  One case per figure id, generated below; method names
    rather than parametrize ids so the cases that predate the registry
    keep theirs."""

    def test_golden_covers_the_registry(self):
        assert set(GOLDEN) == set(figures.REGISTRY)
        assert set(figures.SMOKE) <= set(figures.REGISTRY)

    def test_transformation_takes_under_a_second_per_program(self):
        # Section VI's claim, on the slowest of the four workloads.
        assert max(s for _x, s in figures.run("transform-time").series[0].points) < 1.0


def _smoke_case(figure_id):
    def case(self):
        result = figures.run(figure_id, **figures.SMOKE.get(figure_id, {}))
        assert _shape(result) == GOLDEN[figure_id]

    return case


for _figure_id in figures.REGISTRY:
    setattr(
        TestFigureRunnersSmoke,
        f"test_{_figure_id.replace('-', '_')}_smoke",
        _smoke_case(_figure_id),
    )


def _load_tool(name):
    """A ``tools/`` script as a module (they are scripts, not a package)."""
    import importlib.util

    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPerfPairsVerdict:
    """``tools/perf_pairs.py`` reports what a perf claim may say: a gain
    only by the nine-in-ten rule, ``WORSE`` beyond the bound,
    ``unresolved`` where the base's own spread is wider than the bound,
    and a refusal for an incorrect change pass."""

    pairs = _load_tool("perf_pairs")
    TIGHT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]

    def test_gain_by_the_nine_in_ten_rule(self):
        change = [2 * value for value in self.TIGHT]
        assert self.pairs.judge(self.TIGHT, change, True, 0.25) == (10, "gain")
        # Lower is better: the same numbers read the other way round.
        assert self.pairs.judge(change, self.TIGHT, False, 0.25) == (10, "gain")

    def test_worse_beyond_the_bound(self):
        change = [0.7 * value for value in self.TIGHT]
        assert self.pairs.judge(self.TIGHT, change, True, 0.25) == (0, "WORSE (bound 25%)")

    def test_within_bound_when_the_base_is_steady(self):
        change = list(reversed(self.TIGHT))
        assert self.pairs.judge(self.TIGHT, change, True, 0.25)[1] == "within bound"

    def test_unresolved_when_the_base_spreads_wider_than_the_bound(self):
        base = [50.0, 150.0, 60.0, 140.0, 100.0, 55.0, 145.0, 100.0]
        change = [60.0, 140.0, 50.0, 150.0, 100.0, 145.0, 55.0, 100.0]
        assert self.pairs.judge(base, change, True, 0.25)[1] == "unresolved"
        # ... unless the change wins every pair.
        ahead = [value + 1 for value in base]
        assert self.pairs.judge(base, ahead, True, 0.25) == (8, "within bound")

    def test_objections(self):
        fine = {"ops_per_s": (1.0, "within bound"), "op_p95_ms": (0.9, "unresolved")}
        clean = {"base": (1, 100, 0), "change": (2, 200, 0)}  # the same share
        assert self.pairs.objections(fine, clean) == []
        worse = dict(fine, op_p50_ms=(1.4, "WORSE (bound 25%)"))
        assert self.pairs.objections(worse, clean) == ["WORSE"]
        more = {"base": (1, 100, 0), "change": (2, 100, 0)}
        assert self.pairs.objections(fine, more) == ["MORE FAILED"]
        incorrect = {"base": (0, 100, 0), "change": (0, 100, 1)}
        assert self.pairs.objections(fine, incorrect) == ["INCORRECT"]

    @pytest.mark.parametrize("correct", [True, False])
    def test_an_incorrect_change_pass_fails_the_run(self, monkeypatch, capsys, tmp_path, correct):
        benchmark = json.loads((self.pairs.ROOT / "BENCHMARK.json").read_text())

        def one_pass(directory, command):
            return {
                "failed": 0,
                "attempted": 100,
                "correct": correct or directory != self.pairs.ROOT,
                "metrics": {
                    metric["name"]: {"value": 1.0} for metric in benchmark["end_to_end"]
                },
            }

        monkeypatch.setattr(self.pairs, "one_pass", one_pass)
        status = self.pairs.main([str(tmp_path), "--workload", "scan_agg", "--pairs", "2"])
        assert status == (0 if correct else 1)
        assert ("INCORRECT" in capsys.readouterr().out) is not correct

    def test_layers_prints_the_request_path_beside_the_engine(
        self, monkeypatch, capsys, tmp_path
    ):
        benchmark = json.loads((self.pairs.ROOT / "BENCHMARK.json").read_text())

        def one_pass(directory, command):
            assert "--trace=1" in command
            value = 2.0 if directory == self.pairs.ROOT else 4.0
            return {
                "correct": True,
                "metrics": {
                    metric["name"]: {"value": value} for metric in benchmark["per_layer"]
                },
            }

        monkeypatch.setattr(self.pairs, "one_pass", one_pass)
        assert self.pairs.main([str(tmp_path), "--layers", "hotset_read"]) == 0
        printed = {
            line.split()[0]: line for line in capsys.readouterr().out.splitlines()
        }
        for name in (
            "runtime.hop_us", "core.window_us_per_op", "prefetch.cache.hit_us",
            "prefetch.cache.layer_us", "client.front_us",
            "backends.memory.execute_us", "backends.memory.write_us",
            "db.plan.scan_us_per_krow", "db.plan.plan_us",
            "backends.sqlite.execute_us", "backends.sqlite.batch_us_per_binding",
            "core.coalesce_us_per_op", "obs.metrics_overhead_pct",
            "runtime.aio_us_per_op", "bench.cpu_us_per_op",
        ):
            assert "change/base 0.500" in printed[name]
        assert "prefetch.cache.hit_ratio" not in printed

    def test_layers_prints_the_transformer_and_the_statements_sent(
        self, monkeypatch, capsys, tmp_path
    ):
        """``--layers rubis_lan`` answers "same statements, more
        overlap": statements per operation beside every ``transform.*``
        metric."""
        benchmark = json.loads((self.pairs.ROOT / "BENCHMARK.json").read_text())

        def one_pass(directory, command):
            return {
                "correct": True,
                "metrics": {
                    metric["name"]: {"value": 3.0 if directory == self.pairs.ROOT else 2.0}
                    for metric in benchmark["per_layer"]
                },
            }

        monkeypatch.setattr(self.pairs, "one_pass", one_pass)
        assert self.pairs.main([str(tmp_path), "--layers", "rubis_lan"]) == 0
        printed = {
            line.split()[0]: line for line in capsys.readouterr().out.splitlines()
        }
        transformer = [
            metric["name"]
            for metric in benchmark["per_layer"]
            if metric["name"].startswith("transform.")
        ]
        assert "transform.speedup_x" in transformer
        for name in ["backends.statements_per_op", *transformer]:
            assert "change/base 1.500" in printed[name]
        assert "analysis.applicability_ms_per_fn" not in printed


class TestEmitDiffExpect:
    """``tools/emit_diff.py --strict --expect NAME`` passes exactly when
    the corpus functions whose emission differs are the named ones."""

    emit_diff = _load_tool("emit_diff")

    @staticmethod
    def emission(sources):
        return {
            "asyncify": {
                name: {"line": source, "source": source, "found": 1, "transformed": 1}
                for name, source in sources.items()
            }
        }

    @pytest.mark.parametrize(
        "expect,status",
        [
            ([], 1),
            (["rubis.flag_risky_sellers"], 0),
            (["rubis.flag_risky_sellers", "rubis.best_deal"], 1),
            (["rubis.best_deal"], 1),
        ],
    )
    def test_strict_passes_only_the_expected_differences(
        self, monkeypatch, capsys, tmp_path, expect, status
    ):
        base = {"rubis.flag_risky_sellers": "a = 1\n", "rubis.best_deal": "b = 2\n"}
        change = dict(base, **{"rubis.flag_risky_sellers": "a = 1\nc = 3\n"})

        def emission_of(directory):
            return self.emission(change if directory == self.emit_diff.ROOT else base)

        monkeypatch.setattr(self.emit_diff, "emission_of", emission_of)
        argv = [str(tmp_path), "--strict"] + [f"--expect={name}" for name in expect]
        assert self.emit_diff.main(argv) == status
        out = capsys.readouterr().out
        assert "1 of 2 (function, option set) emissions differ" in out
        assert "    +c = 3" in out
        assert self.emit_diff.main([str(tmp_path)]) == 0  # not strict: a report

    def test_strict_fails_when_only_a_prefetch_site_differs(
        self, monkeypatch, capsys, tmp_path
    ):
        """Same text, same loops: a site that moved past one statement
        fewer is still a difference."""
        from types import SimpleNamespace

        from repro.prefetch.insertion import PrefetchSite

        def result(hoisted_past):
            site = PrefetchSite("profile_card", 3, "r = conn.execute_query(Q, [x])",
                                hoisted_past=hoisted_past, guarded=True)
            return SimpleNamespace(source="a = 1\n", reports=[], opportunities=0,
                                   transformed_loops=0, prefetch_sites=[site])

        def emission_of(directory):
            hoisted_past = 2 if directory == self.emit_diff.ROOT else 1
            line = self.emit_diff.report_line(result(hoisted_past))
            return {"asyncify+prefetch": {"hotset.profile_card": {
                "line": line, "source": "a = 1\n", "found": 0, "transformed": 0,
            }}}

        monkeypatch.setattr(self.emit_diff, "emission_of", emission_of)
        assert self.emit_diff.main([str(tmp_path), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "1 of 1 (function, option set) emissions differ" in out
        assert "sites [('profile_card', 'r = conn.execute_query(Q, [x])', 2, True, False)]" in out
