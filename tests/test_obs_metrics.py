"""Unit coverage for repro.obs.metrics: instruments, percentile math,
and the unified registry's snapshot/source machinery."""

import json
import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    default_latency_buckets,
)


class TestBuckets:
    def test_default_bounds_are_strictly_increasing(self):
        bounds = default_latency_buckets()
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_default_bounds_span_microseconds_to_a_minute(self):
        bounds = default_latency_buckets()
        assert bounds[0] <= 1e-6
        assert bounds[-1] >= 60.0


class TestCounter:
    def test_counter_inc_and_reset(self):
        counter = Counter("ops")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0


class TestHistogram:
    def test_empty_percentiles_are_none(self):
        hist = Histogram("lat")
        assert hist.count == 0
        assert hist.percentile(0.5) is None
        snap = hist.snapshot()
        assert snap["count"] == 0
        assert snap["p99"] is None

    def test_single_observation_clamps_every_percentile(self):
        hist = Histogram("lat")
        hist.observe(0.007)
        for q in (0.5, 0.9, 0.95, 0.99):
            assert hist.percentile(q) == pytest.approx(0.007)

    def test_percentiles_are_monotonic_and_within_range(self):
        hist = Histogram("lat")
        for i in range(1, 1001):
            hist.observe(i / 1000.0)  # 1ms .. 1s uniform
        p50 = hist.percentile(0.5)
        p90 = hist.percentile(0.9)
        p99 = hist.percentile(0.99)
        assert 0.001 <= p50 <= p90 <= p99 <= 1.0
        assert p50 == pytest.approx(0.5, rel=0.35)
        assert p99 > p50

    def test_snapshot_carries_count_sum_and_extremes(self):
        hist = Histogram("lat")
        for value in (0.002, 0.004, 0.006):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(0.012)
        assert snap["min"] == pytest.approx(0.002)
        assert snap["max"] == pytest.approx(0.006)
        assert snap["mean"] == pytest.approx(0.004)
        for key in ("p50", "p90", "p95", "p99"):
            assert snap[key] is not None

    def test_merge_folds_counts_and_extremes(self):
        a = Histogram("lat")
        b = Histogram("lat")
        a.observe(0.001)
        b.observe(0.1)
        b.observe(0.2)
        a.merge(b)
        assert a.count == 3
        assert a.snapshot()["min"] == pytest.approx(0.001)
        assert a.snapshot()["max"] == pytest.approx(0.2)
        # the source histogram is untouched
        assert b.count == 2

    def test_merge_rejects_mismatched_bounds(self):
        a = Histogram("lat")
        b = Histogram("lat", bounds=(0.1, 1.0, 10.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_reset_clears_everything(self):
        hist = Histogram("lat")
        hist.observe(1.0)
        hist.reset()
        assert hist.count == 0
        assert hist.percentile(0.5) is None

    def test_snapshot_is_consistent_under_concurrent_observes(self):
        """A snapshot taken while another thread observes must describe
        one consistent state: with every observation equal to 1.0,
        sum == count exactly (the torn multi-lock snapshot could pair a
        newer sum with an older count)."""
        hist = Histogram("lat")
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                hist.observe(1.0)

        thread = threading.Thread(target=hammer, daemon=True)
        thread.start()
        try:
            for _ in range(500):
                snap = hist.snapshot()
                if snap["count"]:
                    assert snap["sum"] == pytest.approx(
                        float(snap["count"]), abs=1e-9
                    )
                    assert snap["mean"] == pytest.approx(1.0, abs=1e-12)
                    assert snap["min"] == 1.0
                    assert snap["max"] == 1.0
        finally:
            stop.set()
            thread.join()


class TestPercentileEdges:
    """Lock in the clamp-to-[min, max] contract at the edges."""

    def test_quantile_out_of_range_raises(self):
        hist = Histogram("lat")
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.percentile(-0.01)
        with pytest.raises(ValueError):
            hist.percentile(1.01)

    def test_q0_and_q1_clamp_to_observed_extremes(self):
        hist = Histogram("lat")
        for value in (0.002, 0.004, 0.006):
            hist.observe(value)
        assert hist.percentile(0.0) == pytest.approx(0.002)
        assert hist.percentile(1.0) == pytest.approx(0.006)

    def test_single_observation_at_every_quantile(self):
        hist = Histogram("lat")
        hist.observe(0.0042)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert hist.percentile(q) == pytest.approx(0.0042)

    def test_target_exactly_on_bucket_boundary(self):
        # A value equal to a bucket's upper edge lands in that bucket
        # (bisect_left), and the single-observation clamp still returns
        # the exact value, not an interpolated interior point.
        hist = Histogram("lat", bounds=(0.001, 0.01, 0.1))
        hist.observe(0.01)
        assert hist.percentile(0.5) == pytest.approx(0.01)

    def test_overflow_bucket_values(self):
        hist = Histogram("lat", bounds=(0.001, 0.01))
        hist.observe(5.0)  # far beyond the last edge
        assert hist.percentile(0.5) == pytest.approx(5.0)
        snap = hist.snapshot()
        assert snap["p99"] == pytest.approx(5.0)
        assert snap["max"] == pytest.approx(5.0)

    def test_merged_histogram_percentiles(self):
        low = Histogram("lat")
        high = Histogram("lat")
        for _ in range(50):
            low.observe(0.001)
            high.observe(1.0)
        low.merge(high)
        assert low.count == 100
        # The lower half of the distribution stays in the fast bucket...
        assert low.percentile(0.25) <= 0.002
        # ...and the tail reflects the slow half, clamped to max.
        assert low.percentile(0.99) >= 0.5
        assert low.percentile(1.0) == pytest.approx(1.0)


class TestRegistry:
    def test_instruments_are_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("ops").inc(3)
        reg.histogram("lat").observe(0.004)
        reg.register_source("pipeline", lambda: {"submits": 7})
        doc = json.loads(json.dumps(reg.snapshot()))
        assert doc["counters"]["ops"] == 3
        assert doc["histograms"]["lat"]["count"] == 1
        assert doc["histograms"]["lat"]["p99"] is not None
        assert doc["sources"]["pipeline"] == {"submits": 7}

    def test_source_name_collision_auto_suffixes(self):
        reg = MetricsRegistry()
        reg.register_source("cache", lambda: {"n": 1})
        name = reg.register_source("cache", lambda: {"n": 2})
        assert name != "cache"
        snap = reg.snapshot()["sources"]
        assert snap["cache"] == {"n": 1}
        assert snap[name] == {"n": 2}

    def test_source_replace_overwrites(self):
        reg = MetricsRegistry()
        reg.register_source("cache", lambda: {"n": 1})
        name = reg.register_source("cache", lambda: {"n": 2}, replace=True)
        assert name == "cache"
        assert reg.snapshot()["sources"] == {"cache": {"n": 2}}

    def test_failing_source_renders_error_stub(self):
        reg = MetricsRegistry()

        def broken():
            raise RuntimeError("boom")

        reg.register_source("broken", broken)
        snap = reg.snapshot()["sources"]["broken"]
        assert "error" in snap and "boom" in snap["error"]
        # ...and the snapshot still JSON-serializes
        json.dumps(reg.snapshot())

    def test_reset_clears_instruments_but_keeps_sources(self):
        reg = MetricsRegistry()
        reg.counter("ops").inc()
        reg.histogram("lat").observe(1.0)
        reg.register_source("s", lambda: {"n": 1})
        reg.reset()
        assert reg.snapshot()["counters"]["ops"] == 0
        assert reg.snapshot()["histograms"]["lat"]["count"] == 0
        assert reg.snapshot()["sources"] == {"s": {"n": 1}}

    def test_histograms_view(self):
        reg = MetricsRegistry()
        reg.histogram("a").observe(1.0)
        reg.histogram("b")
        hists = reg.histograms()
        assert set(hists) == {"a", "b"}
        assert hists["a"].count == 1
