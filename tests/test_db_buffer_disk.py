"""Unit tests: buffer pool, simulated disk array and shared scans."""

import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.buffer import BufferPool
from repro.db.disk import SimulatedDisk
from repro.db.latency import INSTANT, SYS1, LatencyMeter
from repro.db.scans import SharedScanManager


def make_disk(elevator=True, spindles=2):
    return SimulatedDisk(INSTANT, LatencyMeter(), elevator=elevator, spindles=spindles)


class TestDisk:
    def test_read_counts(self):
        disk = make_disk()
        disk.allocate_extent("t", 10)
        disk.read("t", 0)
        disk.read("t", 1)
        disk.read("t", 5)
        assert disk.stats.reads == 3

    def test_sequential_detection(self):
        disk = make_disk(spindles=1)
        disk.allocate_extent("t", 100)
        disk.read("t", 10)
        disk.read("t", 11)  # head+1: sequential
        disk.read("t", 50)  # far away: random
        assert disk.stats.sequential_reads >= 1
        assert disk.stats.random_reads >= 1

    def test_extent_separation(self):
        disk = make_disk()
        base_a = disk.allocate_extent("a", 10)
        base_b = disk.allocate_extent("b", 10)
        assert base_b >= base_a + 10

    def test_grow_extent(self):
        disk = make_disk()
        disk.allocate_extent("a", 4)
        disk.grow_extent("a", 100)
        base_b = disk.allocate_extent("b", 1)
        assert base_b >= disk.extent_base("a") + 100

    def test_concurrent_reads_complete(self):
        disk = SimulatedDisk(SYS1.scaled(0.5), LatencyMeter(), spindles=4)
        disk.allocate_extent("t", 1000)
        errors = []
        barrier = threading.Barrier(8)

        def worker(start):
            try:
                barrier.wait(timeout=5)
                for page in range(start, start + 6):
                    disk.read("t", page * 7 % 1000)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i * 6,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert disk.stats.reads == 48
        assert disk.stats.max_queue_depth > 1

    def test_elevator_reduces_seek_distance(self):
        """With many queued requests, SSTF service travels less."""
        scattered = [((i * 397) % 1000) for i in range(48)]

        def total_distance(elevator):
            disk = SimulatedDisk(
                SYS1, LatencyMeter(), elevator=elevator, spindles=1
            )
            disk.allocate_extent("t", 1000)
            barrier = threading.Barrier(len(scattered))

            def request(page):
                barrier.wait(timeout=10)
                disk.read("t", page)

            threads = [
                threading.Thread(target=request, args=(page,))
                for page in scattered
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return disk.stats.total_seek_pages

        assert total_distance(True) < total_distance(False)

    def test_zero_spindles_rejected(self):
        with pytest.raises(ValueError):
            SimulatedDisk(INSTANT, LatencyMeter(), spindles=0)

    @pytest.mark.parametrize("profile", [INSTANT, SYS1.scaled(0.01)])
    def test_an_idle_spindle_serves_without_queueing(self, profile):
        """One reader at a time never waits: the depth a request sees
        counts only itself, and every read is charged exactly once."""
        meter = LatencyMeter()
        disk = SimulatedDisk(profile, meter, spindles=2)
        disk.allocate_extent("t", 100)
        for page in (0, 1, 2, 50, 51, 7):
            disk.read("t", page)
        disk.read_many("t", [3, 4, 90])
        assert disk.stats.max_queue_depth == 1
        assert disk.stats.reads == meter.counts()["disk"] == 9
        assert disk.stats.sequential_reads + disk.stats.random_reads == 9

    @pytest.mark.parametrize("profile", [INSTANT, SYS1.scaled(0.01)])
    def test_a_run_reads_as_its_pages_read_one_by_one(self, profile):
        """``read_many`` (one critical section when reads are free) moves
        the heads, counts and charges exactly as one ``read`` per page."""
        runs = [[0, 1, 2, 3], [40, 7, 8, 300], [], [5, 5, 6, 90, 91, 2]]

        def replay(one_by_one):
            meter = LatencyMeter()
            disk = SimulatedDisk(profile, meter, spindles=3)
            disk.allocate_extent("a", 400)
            disk.allocate_extent("b", 400)
            for run in runs:
                for name in "ab":
                    if one_by_one:
                        for page in run:
                            disk.read(name, page)
                    else:
                        disk.read_many(name, run)
            return disk.stats, meter.totals(), meter.counts()

        assert replay(one_by_one=False) == replay(one_by_one=True)


class _HoldingMeter(LatencyMeter):
    """Records which thread each disk service ran in, without sleeping;
    the service of the thread named ``hold`` waits for ``release``."""

    def __init__(self) -> None:
        super().__init__()
        self.served = []
        self.release = threading.Event()

    def charge(self, category, duration_s):
        name = threading.current_thread().name
        self.served.append(name)
        if name == "hold":
            assert self.release.wait(timeout=10)


def _wait_for(predicate, timeout=10.0):
    import time

    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.001)


class TestContendedSpindle:
    """While a spindle is busy, requests queue behind it and leave in
    shortest-seek-first order from the head (arrival order without the
    elevator): the idle fast path must not change who goes next."""

    HEAD = 500
    QUEUED = [100, 480, 900, 530, 10, 700]

    def served_order(self, elevator):
        meter = _HoldingMeter()
        disk = SimulatedDisk(SYS1, meter, elevator=elevator, spindles=1)
        disk.allocate_extent("t", 1000)
        threads = [threading.Thread(target=disk.read, args=("t", self.HEAD), name="hold")]
        threads[0].start()
        _wait_for(lambda: meter.served == ["hold"])
        for depth, page in enumerate(self.QUEUED, start=2):
            thread = threading.Thread(target=disk.read, args=("t", page), name=str(page))
            threads.append(thread)
            thread.start()
            # One arrival at a time, so arrival order is the list order.
            _wait_for(lambda: disk.stats.max_queue_depth == depth)
        meter.release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert disk.stats.reads == len(self.QUEUED) + 1
        return [int(name) for name in meter.served[1:]]

    def test_queued_requests_leave_shortest_seek_first(self):
        assert self.served_order(elevator=True) == [480, 530, 700, 900, 100, 10]

    def test_without_the_elevator_they_leave_in_arrival_order(self):
        assert self.served_order(elevator=False) == self.QUEUED

    def test_concurrent_readers_keep_the_books(self):
        """Many readers over two spindles: every read is served and
        charged once, and the disk ends idle (a later lone read sees a
        queue of one)."""
        meter = LatencyMeter()
        disk = SimulatedDisk(SYS1.scaled(0.01), meter, spindles=2)
        disk.allocate_extent("t", 1000)

        def reader(start):
            for page in range(start, start + 40):
                disk.read("t", page * 13 % 1000)

        threads = [threading.Thread(target=reader, args=(i * 40,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert disk.stats.reads == meter.counts()["disk"] == 240
        disk.reset_stats()
        disk.read("t", 0)
        assert disk.stats.max_queue_depth == 1


class TestBufferPool:
    def test_miss_then_hit(self):
        disk = make_disk()
        pool = BufferPool(8, disk)
        assert pool.access("t", 0) is False
        assert pool.access("t", 0) is True
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1

    def test_lru_eviction(self):
        disk = make_disk()
        pool = BufferPool(2, disk)
        pool.access("t", 0)
        pool.access("t", 1)
        pool.access("t", 2)  # evicts page 0
        assert pool.access("t", 1) is True
        assert pool.access("t", 0) is False

    def test_clear_makes_cold(self):
        disk = make_disk()
        pool = BufferPool(8, disk)
        pool.access("t", 0)
        pool.clear()
        assert pool.access("t", 0) is False

    def test_install_without_io(self):
        disk = make_disk()
        pool = BufferPool(8, disk)
        pool.install("t", 3)
        assert disk.stats.reads == 0
        assert pool.access("t", 3) is True

    def test_warm_helper(self):
        disk = make_disk()
        pool = BufferPool(16, disk)
        pool.warm("t", 5)
        assert all(pool.access("t", page) for page in range(5))

    def test_hit_ratio(self):
        disk = make_disk()
        pool = BufferPool(8, disk)
        pool.access("t", 0)
        pool.access("t", 0)
        pool.access("t", 0)
        assert pool.stats.hit_ratio == pytest.approx(2 / 3)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferPool(0, make_disk())

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("access"), st.sampled_from("ab"), st.integers(0, 9)),
                st.tuples(
                    st.just("run"),
                    st.sampled_from("ab"),
                    st.lists(st.integers(0, 9), max_size=12),
                ),
                st.tuples(st.just("install"), st.sampled_from("ab"), st.integers(0, 9)),
                st.tuples(st.just("warm"), st.sampled_from("ab"), st.integers(0, 9)),
            ),
            max_size=60,
        ),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_a_reference_lru(self, ops, capacity):
        """Single touches, runs, installs and warm-ups against a plain LRU
        model: same hits, same misses, same disk reads, same residents."""
        disk = make_disk()
        pool = BufferPool(capacity, disk)
        model = OrderedDict()

        def admit(key):
            if key in model:
                model.move_to_end(key)
            else:
                if len(model) >= capacity:
                    model.popitem(last=False)
                model[key] = None

        hits = misses = 0
        for kind, name, arg in ops:
            if kind == "access":
                hit = (name, arg) in model
                admit((name, arg))
                assert pool.access(name, arg) is hit
                hits, misses = hits + hit, misses + (not hit)
            elif kind == "run":
                missed = []
                for page in arg:
                    if (name, page) in model:
                        model.move_to_end((name, page))
                    else:
                        missed.append((name, page))
                for key in missed:
                    admit(key)
                assert pool.access_many(name, arg) == len(arg) - len(missed)
                hits, misses = hits + len(arg) - len(missed), misses + len(missed)
            elif kind == "install":
                admit((name, arg))
                pool.install(name, arg)
            else:
                for page in range(arg):
                    admit((name, page))
                pool.warm(name, arg)
        assert (pool.stats.hits, pool.stats.misses) == (hits, misses)
        assert disk.stats.reads == misses
        assert len(pool) == len(model)
        assert all(pool.contains(*key) for key in model)

    def test_concurrent_touches_keep_the_books(self):
        """Threads touching overlapping runs and single pages of a small
        pool: every touch is one hit or one miss, every miss one disk
        read, and the pool never exceeds its capacity."""
        disk = SimulatedDisk(SYS1.scaled(0.01), LatencyMeter(), spindles=2)
        disk.allocate_extent("t", 64)
        pool = BufferPool(16, disk)

        def worker(offset):
            for round_no in range(20):
                pool.access_many("t", range(offset, offset + 12))
                pool.access("t", (offset * 7 + round_no) % 64)

        threads = [threading.Thread(target=worker, args=(i * 5,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert pool.stats.accesses == 6 * 20 * 13
        assert disk.stats.reads == pool.stats.misses
        assert len(pool) <= 16


class TestSharedScans:
    def test_single_scan_leads(self):
        manager = SharedScanManager()
        ran = []
        manager.run("t", lambda: ran.append(1))
        assert ran == [1]
        assert manager.stats.led == 1

    def test_concurrent_scans_share(self):
        manager = SharedScanManager()
        io_runs = []
        barrier = threading.Barrier(4)
        release = threading.Event()

        def do_io():
            io_runs.append(threading.get_ident())
            release.wait(timeout=5)

        def scanner():
            barrier.wait(timeout=5)
            manager.run("t", do_io)

        threads = [threading.Thread(target=scanner) for _ in range(4)]
        for thread in threads:
            thread.start()
        # Give followers time to attach, then let the leader finish.
        import time

        time.sleep(0.05)
        release.set()
        for thread in threads:
            thread.join()
        assert len(io_runs) == 1
        assert manager.stats.led == 1
        assert manager.stats.shared == 3

    def test_disabled_manager_runs_solo(self):
        manager = SharedScanManager(enabled=False)
        ran = []
        manager.run("t", lambda: ran.append(1))
        manager.run("t", lambda: ran.append(2))
        assert ran == [1, 2]
        assert manager.stats.solo == 2

    def test_leader_failure_does_not_poison_followers(self):
        manager = SharedScanManager()
        started = threading.Event()
        finish_leader = threading.Event()
        follower_result = []

        def leader_io():
            started.set()
            finish_leader.wait(timeout=5)
            raise RuntimeError("leader failed")

        def leader():
            try:
                manager.run("t", leader_io)
            except RuntimeError:
                pass

        def follower():
            started.wait(timeout=5)
            manager.run("t", lambda: follower_result.append("own-io"))

        leader_thread = threading.Thread(target=leader)
        follower_thread = threading.Thread(target=follower)
        leader_thread.start()
        started.wait(timeout=5)
        follower_thread.start()
        import time

        time.sleep(0.05)
        finish_leader.set()
        leader_thread.join()
        follower_thread.join()
        assert follower_result == ["own-io"]
