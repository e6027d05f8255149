"""Unit tests: latency profiles and the meter."""

import pytest

from repro.db.latency import (
    INSTANT,
    POSTGRES,
    PROFILES,
    SYS1,
    LatencyMeter,
    LatencyProfile,
    precise_sleep,
)


class TestProfiles:
    def test_registry(self):
        assert PROFILES["SYS1"] is SYS1
        assert PROFILES["PostgreSQL"] is POSTGRES
        assert PROFILES["instant"] is INSTANT

    def test_instant_is_zero(self):
        assert INSTANT.network_rtt_s == 0
        assert INSTANT.disk_seek_max_s == 0
        assert INSTANT.cpu_fixed_s == 0

    def test_scaled_multiplies_times_only(self):
        scaled = SYS1.scaled(0.5)
        assert scaled.network_rtt_s == pytest.approx(SYS1.network_rtt_s * 0.5)
        assert scaled.disk_seek_max_s == pytest.approx(SYS1.disk_seek_max_s * 0.5)
        assert scaled.thread_spawn_s == pytest.approx(SYS1.thread_spawn_s * 0.5)
        # structural knobs unchanged
        assert scaled.server_workers == SYS1.server_workers
        assert scaled.disk_spindles == SYS1.disk_spindles
        assert scaled.buffer_pool_pages == SYS1.buffer_pool_pages

    def test_scaled_name(self):
        assert "x0.5" in SYS1.scaled(0.5).name

    def test_profile_is_frozen(self):
        with pytest.raises(Exception):
            SYS1.network_rtt_s = 1.0  # type: ignore[misc]

    def test_sys1_slower_rtt_than_postgres(self):
        # matches the paper's absolute-time ordering
        assert SYS1.network_rtt_s > POSTGRES.network_rtt_s


class TestMeter:
    def test_charge_accumulates(self):
        meter = LatencyMeter()
        meter.charge("network", 0.0)
        meter.charge("network", 0.0)
        meter.record("disk", 0.5)
        totals = meter.totals()
        assert totals["disk"] == 0.5
        assert meter.counts()["network"] == 2

    def test_record_counts_several_charges_at_once(self):
        meter = LatencyMeter()
        meter.record("disk", 0.0, times=57)
        meter.charge("disk", 0.0)
        assert meter.counts()["disk"] == 58
        assert meter.totals()["disk"] == 0.0

    def test_reset(self):
        meter = LatencyMeter()
        meter.record("cpu", 1.0)
        meter.reset()
        assert meter.totals()["cpu"] == 0.0
        assert meter.counts()["cpu"] == 0

    def test_unknown_category_raises(self):
        meter = LatencyMeter()
        with pytest.raises(KeyError):
            meter.record("teleport", 1.0)

    def test_thread_safety(self):
        import threading

        meter = LatencyMeter()

        def worker():
            for _ in range(500):
                meter.record("cpu", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert meter.counts()["cpu"] == 2000
        assert meter.totals()["cpu"] == pytest.approx(2.0)


class TestPreciseSleep:
    def test_zero_and_negative_are_noops(self):
        precise_sleep(0)
        precise_sleep(-1)

    def test_short_sleep_is_reasonably_precise(self):
        import time

        started = time.perf_counter()
        precise_sleep(20e-6)  # below the spin threshold
        elapsed = time.perf_counter() - started
        assert elapsed >= 20e-6
        assert elapsed < 5e-3


class TestEveryStoreTakesTheDatabasesModel:
    """The client charges a round trip from its store's profile and
    meter, so a ``Database(SYS1)`` connection pays one ``network_rtt_s``
    per round trip on either store (the sqlite store once ran at
    ``INSTANT`` with a meter of its own, and nothing overlapped)."""

    ROUND_TRIPS = 3

    def network_charges(self, backend):
        from repro.db import Database

        db = Database(SYS1)
        db.create_table("t", ("id", "int"), ("v", "int"))
        db.bulk_load("t", [(1, 10), (2, 20)])
        conn = db.connect(async_workers=1, backend=backend)
        try:
            before = db.meter.counts()["network"], db.meter.totals()["network"]
            for key in range(self.ROUND_TRIPS):
                conn.execute_query("SELECT v FROM t WHERE id = ?", [key])
            count = db.meter.counts()["network"] - before[0]
            total = db.meter.totals()["network"] - before[1]
        finally:
            conn.close()
            db.close()
        return count, total

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_one_network_rtt_per_round_trip(self, backend):
        count, total = self.network_charges(backend)
        assert count == self.ROUND_TRIPS
        assert total == pytest.approx(self.ROUND_TRIPS * SYS1.network_rtt_s)

    def test_must_fail_with_the_sqlite_store_at_instant(self, monkeypatch):
        from repro.backends.sqlite import SqliteBackend

        real = SqliteBackend.__init__

        def at_instant(backend, profile=INSTANT, meter=None, *rest, **options):
            real(backend, INSTANT, None, *rest, **options)

        monkeypatch.setattr(SqliteBackend, "__init__", at_instant)
        with pytest.raises(AssertionError):
            self.test_one_network_rtt_per_round_trip("sqlite")
