"""The seven workloads: inputs from a seed, a timed block loop, an oracle.

Every workload is a closed loop on one driver thread.  Work comes in
*blocks* of a fixed number of operations; the runner times whole blocks
and the workload times each operation inside them.  A block's inputs are
drawn (untimed) from the workload's seeded stream just before it runs and
its outputs are checked (untimed) just after, against values the engine
under test did not compute.

Statement workloads talk to the stack through an :class:`IO` — four
callables — so the same loop drives a ``Connection`` in the end-to-end
pass, each onion rung in the layers pass, and a stub in the self-test.
"""

from __future__ import annotations

import hashlib
import random
import time
from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from repro import (
    INSTANT, SYS1, QueryResult, ResultCache, asyncify, asyncify_source,
)
from repro.workloads import hotset, rubis
from repro.workloads.hotset import PROFILE_SQL, RATING_UPDATE_SQL

from . import data

#: Ids the hot-set workloads concentrate their reads on.
HOT_USERS = 16


class IO(NamedTuple):
    """How a statement workload reaches the stack under test."""

    submit: Callable[[str, tuple], Any]     # non-blocking read -> handle
    fetch: Callable[[Any], Any]             # handle -> result
    write: Callable[[str, tuple], Any]      # blocking DML -> result
    execute: Callable[[str, tuple], Any]    # blocking read -> result


def connection_io(conn) -> IO:
    return IO(conn.submit_query, conn.fetch_result,
              conn.execute_update, conn.execute_query)


class Workload:
    """Common shape; see the module docstring.  Subclasses set ``name``,
    ``block_ops`` and ``params`` (recorded with every result);
    BENCHMARK.json says why each workload exists."""

    name = ""
    #: Operations per block: sized so one block takes 0.1-0.3 s today.
    block_ops = 0
    #: Blocks the layers pass counts program counters over (a fixed
    #: number, so that counters repeat exactly for one seed).
    counter_blocks = 0
    #: Blocks the layers pass replays through each rung, after one untimed
    #: warm-up block (thread pools spawn, plan and result caches fill).
    rung_blocks = 0
    params: Dict[str, Any] = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rows: data.Rows = {}
        self.reset_stream()

    def generate(self) -> None:
        """Make the inputs that are a function of the seed alone."""
        self.rows = data.generate_rows(self.seed)

    def reset_stream(self) -> None:
        """Rewind the operation stream to its first block."""
        self.rng = random.Random(self.seed * 7919 + 1)

    # -- life cycle ------------------------------------------------------
    def setup(self) -> None:
        """Everything ``setup_s`` pays for."""
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def build_oracle(self) -> None:
        """Expected answers (``bench.oracle_s``; never part of set-up)."""

    # -- the block loop --------------------------------------------------
    def next_block(self):
        raise NotImplementedError

    def run_block(self, block, lat, kinds, n: int):
        """Run one block, writing each op's latency (s) to ``lat[n]`` and
        1 to ``kinds[n]`` for a write; returns ``(outputs, n)``."""
        raise NotImplementedError

    def check_block(self, block, outputs) -> int:
        """Number of operations that raised or answered wrongly."""
        raise NotImplementedError

    def check_once(self) -> Tuple[int, int]:
        """Checks made once per run, outside the block loop:
        ``(attempted, failed)``."""
        return 0, 0

    def counters(self) -> Dict[str, float]:
        """Program counters, cumulative since set-up."""
        return {}


def _caught(fn, *args):
    """``fn(*args)``, or the exception it raised (an op that raises is a
    failed op, not a failed benchmark)."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - counted by check_block
        return exc


def backend_counters(conn) -> Dict[str, float]:
    snapshot = conn.server.stats_snapshot()
    return {
        key: snapshot[key]
        for key in ("statements_executed", "batched_calls", "batched_bindings")
    }


class StatementWorkload(Workload):
    """SQL statements against ``users`` at zero latency, through an
    :class:`IO`."""

    tables = ("users",)
    backend = "memory"
    async_workers = 4

    def __init__(self, seed: int) -> None:
        self.db = self.conn = self.io = None
        super().__init__(seed)

    def connect_options(self) -> Dict[str, Any]:
        """Keyword arguments for ``Database.connect`` in this workload's
        configuration."""
        return dict(async_workers=self.async_workers, backend=self.backend)

    def setup(self) -> None:
        self.db = data.build_database(INSTANT, self.rows, self.tables)
        self.conn = self.db.connect(**self.connect_options())
        self.io = connection_io(self.conn)

    def teardown(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.db.close()
        self.db = self.conn = self.io = None


# ----------------------------------------------------------------------
# point reads and writes on users (four workloads)
# ----------------------------------------------------------------------


class PointWorkload(StatementWorkload):
    """Windows of ``submit`` then in-order ``fetch`` of profile reads, with
    blocking rating updates between windows."""

    block_ops = 2048
    counter_blocks = 10
    rung_blocks = 3

    def __init__(
        self,
        seed: int,
        name: str,
        window: int,
        backend: str = "memory",
        cache_capacity: int = 0,
        coalesce: bool = False,
        hot_fraction: float = 0.0,
        write_share: float = 0.0,
    ) -> None:
        self.name = name
        self.window = window
        self.backend = backend
        self.cache_capacity = cache_capacity
        self.coalesce = coalesce
        self.hot_fraction = hot_fraction
        self.write_share = write_share
        self.params = {
            "profile": "instant", "users": data.USERS, "backend": backend,
            "window": window, "cache_capacity": cache_capacity,
            "coalesce": coalesce, "hot_users": HOT_USERS if hot_fraction else 0,
            "hot_fraction": hot_fraction, "write_share": write_share,
            "async_workers": self.async_workers, "block_ops": self.block_ops,
        }
        self.shadow: Dict[int, Tuple[str, int]] = {}
        super().__init__(seed)

    def reset_stream(self) -> None:
        super().reset_stream()
        self.hot = [self.rng.randrange(data.USERS) for _ in range(HOT_USERS)]

    def connect_options(self) -> Dict[str, Any]:
        """A fresh cache each time."""
        cache = ResultCache(self.cache_capacity) if self.cache_capacity else None
        return dict(super().connect_options(), result_cache=cache,
                    coalesce=self.coalesce)

    def build_oracle(self) -> None:
        self.shadow = fresh_shadow(self.rows)

    # -- the block loop --------------------------------------------------
    def draw_id(self) -> int:
        rng = self.rng
        if self.hot_fraction and rng.random() < self.hot_fraction:
            return rng.choice(self.hot)
        return rng.randrange(data.USERS)

    def next_block(self) -> List[Tuple[List[int], List[Tuple[int, int]]]]:
        """``block_ops`` operations as ``(read ids, writes)`` windows; a
        write drawn while a window fills is issued after that window."""
        windows = []
        reads: List[int] = []
        writes: List[Tuple[int, int]] = []
        for _ in range(self.block_ops):
            if self.write_share and self.rng.random() < self.write_share:
                writes.append((self.rng.randint(-5, 5), self.draw_id()))
            else:
                reads.append(self.draw_id())
                if len(reads) == self.window:
                    windows.append((reads, writes))
                    reads, writes = [], []
        if reads or writes:
            windows.append((reads, writes))
        return windows

    def run_block(self, block, lat, kinds, n: int):
        submit, fetch, write, _execute = self.io
        clock = time.perf_counter
        outputs = []
        for read_ids, writes in block:
            starts = []
            handles = []
            for user_id in read_ids:
                starts.append(clock())
                handles.append(submit(PROFILE_SQL, (user_id,)))
            results = []
            for handle, started in zip(handles, starts):
                results.append(_caught(fetch, handle))
                lat[n] = clock() - started
                n += 1
            updated = []
            for binding in writes:
                started = clock()
                updated.append(_caught(write, RATING_UPDATE_SQL, binding))
                lat[n] = clock() - started
                kinds[n] = 1
                n += 1
            outputs.append((results, updated))
        return outputs, n

    def check_block(self, block, outputs) -> int:
        return sum(
            check_window(self.shadow, read_ids, writes, results, updated)
            for (read_ids, writes), (results, updated) in zip(block, outputs)
        )

    def counters(self) -> Dict[str, float]:
        found = backend_counters(self.conn)
        if self.conn.result_cache is not None:
            cache = self.conn.result_cache.stats_snapshot()
            for key in ("hits", "lookups", "shared_flights", "evictions",
                        "invalidations"):
                found[f"cache.{key}"] = cache[key]
        return found


def fresh_shadow(rows: data.Rows) -> Dict[int, Tuple[str, int]]:
    """user_id -> (name, rating), from the generated rows."""
    return {row[0]: (row[1], row[2]) for row in rows["users"]}


def check_window(shadow, read_ids, writes, results, updated) -> int:
    """Check one window against the shadow, then apply its writes to it.
    Exact because the single driver thread orders everything: a window's
    reads are all fetched before its writes are issued."""
    failed = 0
    for user_id, result in zip(read_ids, results):
        if isinstance(result, Exception) or list(result) != [shadow[user_id]]:
            failed += 1
    for (rating, user_id), result in zip(writes, updated):
        if isinstance(result, Exception) or result.rowcount != 1:
            failed += 1
        shadow[user_id] = (shadow[user_id][0], rating)
    return failed


def stub_io(shadow: Dict[int, Tuple[str, int]], canned=None, stale=False) -> IO:
    """An :class:`IO` that answers from canned rows without touching the
    stack: times the driver loop alone.  With ``stale=True`` it ignores
    writes — the self-test's proof that the point oracle can fail."""
    answers = dict(shadow)
    done = QueryResult(rowcount=1)

    def submit(_sql, params):
        return QueryResult(("name", "rating"), [answers[params[0]]])

    def write(_sql, params):
        if not stale:
            rating, user_id = params
            answers[user_id] = (answers[user_id][0], rating)
        return done

    def execute(sql, params):
        return canned[sql, params]

    return IO(submit, lambda handle: handle, write, execute)


# ----------------------------------------------------------------------
# scans and aggregates
# ----------------------------------------------------------------------

SCAN_COUNT_SQL = "SELECT count(*) FROM users WHERE rating >= ?"
SCAN_GROUP_SQL = "SELECT region_id, count(*) FROM users GROUP BY region_id"
SCAN_FILTER_SQL = (
    "SELECT user_id, region_id FROM users WHERE rating = ? AND region_id < ?"
)


class ScanWorkload(StatementWorkload):
    """Blocking ``execute`` of three scan statements in rotation."""

    name = "scan_agg"
    block_ops = 30
    counter_blocks = 8
    rung_blocks = 5
    params = {
        "profile": "instant", "users": data.USERS,
        "backend": StatementWorkload.backend,
        "async_workers": StatementWorkload.async_workers,
        "block_ops": block_ops,
        "statements": [SCAN_COUNT_SQL, SCAN_GROUP_SQL, SCAN_FILTER_SQL],
    }

    def build_oracle(self) -> None:
        """Answers in plain Python from the generated rows."""
        users = self.rows["users"]
        self.count_at_least = {
            rating: sum(1 for row in users if row[2] >= rating)
            for rating in range(-5, 6)
        }
        regions: Dict[int, int] = {}
        self.by_rating: Dict[int, List[Tuple[int, int]]] = {}
        for user_id, _name, rating, region in users:
            regions[region] = regions.get(region, 0) + 1
            self.by_rating.setdefault(rating, []).append((user_id, region))
        self.region_counts = sorted(regions.items())

    def expected(self, sql: str, params: tuple):
        if sql == SCAN_COUNT_SQL:
            return [(self.count_at_least[params[0]],)]
        if sql == SCAN_GROUP_SQL:
            return self.region_counts
        rating, bound = params
        return [pair for pair in self.by_rating.get(rating, []) if pair[1] < bound]

    def next_block(self) -> List[Tuple[str, tuple]]:
        rng = self.rng
        block = []
        for _ in range(self.block_ops // 3):
            block.append((SCAN_COUNT_SQL, (rng.randint(-5, 5),)))
            block.append((SCAN_GROUP_SQL, ()))
            block.append((SCAN_FILTER_SQL, (rng.randint(-5, 5), rng.randint(1, 5))))
        return block

    def run_block(self, block, lat, kinds, n: int):
        execute = self.io.execute
        clock = time.perf_counter
        outputs = []
        for sql, params in block:
            started = clock()
            outputs.append(_caught(execute, sql, params))
            lat[n] = clock() - started
            n += 1
        return outputs, n

    def check_block(self, block, outputs) -> int:
        failed = 0
        for (sql, params), result in zip(block, outputs):
            if isinstance(result, Exception) or (
                sorted(result) != self.expected(sql, params)
            ):
                failed += 1
        return failed

    def counters(self) -> Dict[str, float]:
        found = backend_counters(self.conn)
        scans = self.db.stats_snapshot()["counters"]
        found["scan.rows_scanned"] = scans.get("scan.rows_scanned", 0)
        found["scan.batches"] = scans.get("scan.batches", 0)
        return found


# ----------------------------------------------------------------------
# the paper's claim: transformed RUBiS loops under LAN latency
# ----------------------------------------------------------------------


def copied(args: tuple) -> tuple:
    """Kernel arguments with fresh lists: ``comment_counts_while`` drains
    the list it is given."""
    return tuple(list(arg) if isinstance(arg, list) else arg for arg in args)


class RubisLanWorkload(Workload):
    """One call of each transformed kernel per round, on one connection."""

    name = "rubis_lan"
    #: Per kernel call.  Sized so that ten seconds give over 300 calls: p95
    #: needs 200 to have ten samples beyond it.
    iterations = 40
    block_ops = 4
    counter_blocks = 6
    latency_scale = 4
    async_workers = 8
    params = {
        "profile": f"SYS1x{latency_scale}", "users": data.USERS,
        "backend": "memory", "async_workers": async_workers,
        "iterations": iterations, "block_ops": block_ops,
        "kernels": ["load_comment_authors", "flag_risky_sellers",
                    "comment_counts_while", "max_bids_for_items"],
    }

    def __init__(self, seed: int) -> None:
        self.db = self.conn = self.twin = self.twin_conn = None
        self.transformed: List[Callable] = []
        super().__init__(seed)

    @staticmethod
    def originals() -> List[Callable]:
        return [rubis.load_comment_authors, rubis.flag_risky_sellers,
                rubis.comment_counts_while, rubis.max_bids_for_items]

    def setup(self) -> None:
        self.db = data.build_database(SYS1.scaled(self.latency_scale), self.rows)
        # Warm buffer pool: the regime is network round trips, not the
        # simulated disk filling its cache during the first rounds.
        for table in self.rows:
            self.db.warm_table(table)
        self.conn = self.db.connect(async_workers=self.async_workers)
        self.transformed = [asyncify(kernel) for kernel in self.originals()]

    def teardown(self) -> None:
        for closable in (self.conn, self.db, self.twin_conn, self.twin):
            if closable is not None:
                closable.close()
        self.db = self.conn = self.twin = self.twin_conn = None

    def build_oracle(self) -> None:
        """A zero-latency twin of the database, on which the *original*
        blocking kernels give the expected outputs."""
        self.twin = data.build_database(INSTANT, self.rows)
        self.twin_conn = self.twin.connect(async_workers=1)

    def next_block(self) -> List[tuple]:
        """One round: the argument tuple of each kernel."""
        rng = self.rng
        count = self.iterations
        return [
            ([(index, rng.randrange(data.USERS)) for index in range(count)],),
            ([rng.randrange(data.ITEMS) for _ in range(count)], 2_500),
            ([rng.randrange(data.USERS) for _ in range(count)],),
            ([rng.randrange(data.ITEMS) for _ in range(count)],),
        ]

    def run_kernels(self, kernels, conn, block, lat, n: int):
        clock = time.perf_counter
        outputs = []
        for kernel, args in zip(kernels, block):
            args = copied(args)
            started = clock()
            outputs.append(_caught(kernel, conn, *args))
            lat[n] = clock() - started
            n += 1
        return outputs, n

    def run_block(self, block, lat, kinds, n: int):
        return self.run_kernels(self.transformed, self.conn, block, lat, n)

    def check_block(self, block, outputs) -> int:
        failed = 0
        for kernel, args, result in zip(self.originals(), block, outputs):
            expected = kernel(self.twin_conn, *copied(args))
            if isinstance(result, Exception) or result != expected:
                failed += 1
        return failed

    def counters(self) -> Dict[str, float]:
        return backend_counters(self.conn)


# ----------------------------------------------------------------------
# the transformer itself
# ----------------------------------------------------------------------


def source_hash(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


class TransformWorkload(Workload):
    """One ``asyncify_source`` call per corpus function, a pass per block."""

    name = "transform_corpus"
    counter_blocks = 10
    params = {"prefetch": True, "speculate": True}

    def __init__(self, seed: int) -> None:
        self.corpus: List[Tuple[str, str]] = []
        self.reference: Dict[str, str] = {}
        super().__init__(seed)

    def generate(self) -> None:
        """The corpus is the input, and loading it is part of set-up."""

    @staticmethod
    def transform(source: str):
        return asyncify_source(source, prefetch=True, speculate=True)

    def setup(self) -> None:
        """Load the corpus and transform every function once."""
        self.corpus = data.corpus_sources()
        self.block_ops = len(self.corpus)
        for _name, source in self.corpus:
            self.transform(source)

    def teardown(self) -> None:
        self.corpus = []

    def build_oracle(self) -> None:
        """The hash of each function's first emission: every later pass
        must emit the same text, and the text must compile."""
        self.reference = {
            name: source_hash(self.transform(source).source)
            for name, source in self.corpus
        }

    def next_block(self) -> List[Tuple[str, str]]:
        """One pass over the corpus, in a seeded order."""
        block = list(self.corpus)
        self.rng.shuffle(block)
        return block

    def run_block(self, block, lat, kinds, n: int):
        transform = self.transform
        clock = time.perf_counter
        outputs = []
        for _name, source in block:
            started = clock()
            result = _caught(transform, source)
            lat[n] = clock() - started
            n += 1
            outputs.append(result)
        return outputs, n

    def check_block(self, block, outputs) -> int:
        failed = 0
        for (name, _source), result in zip(block, outputs):
            if isinstance(result, Exception) or not self.emission_ok(
                name, result.source
            ):
                failed += 1
        return failed

    def emission_ok(self, name: str, emitted: str) -> bool:
        try:
            compile(emitted, f"<{name}>", "exec")
        except SyntaxError:
            return False
        return source_hash(emitted) == self.reference[name]

    def check_once(self) -> Tuple[int, int]:
        """Run each transformed RUBiS and hotset kernel once at zero
        latency against its original."""
        rng = random.Random(self.seed)
        items = [rng.randrange(data.ITEMS) for _ in range(40)]
        users = [rng.randrange(data.USERS) for _ in range(40)]
        cases = [
            (rubis.load_comment_authors, (list(enumerate(users)),)),
            (rubis.load_item_details, (items,)),
            (rubis.max_bids_for_items, (items,)),
            (rubis.bid_activity, (items,)),
            (rubis.comment_counts_while, (users,)),
            (rubis.flag_risky_sellers, (items, 2_500)),
            (rubis.region_user_counts, (list(range(data.REGIONS)),)),
            (rubis.category_item_counts, (list(range(data.CATEGORIES)),)),
            (rubis.best_deal, (items,)),
            (hotset.load_profiles, (users,)),
            (hotset.profile_card, (users[0],)),
        ]
        sources = dict(self.corpus)
        db = data.build_database(INSTANT, data.generate_rows(self.seed))
        failed = 0
        with db, db.connect(async_workers=4) as conn:
            for original, args in cases:
                module = original.__module__.rsplit(".", 1)[-1]
                emitted = self.transform(
                    sources[f"{module}.{original.__name__}"]
                ).source
                namespace = dict(original.__globals__)
                try:
                    exec(compile(emitted, f"<{original.__name__}>", "exec"),
                         namespace)
                    got = namespace[original.__name__](conn, *copied(args))
                    if got != original(conn, *copied(args)):
                        failed += 1
                except Exception:  # noqa: BLE001 - a crash is a miscompile
                    failed += 1
        return len(cases), failed


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------


#: name -> constructor taking the seed; order is the run order.
WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "fission_point": partial(PointWorkload, name="fission_point", window=64),
    "hotset_read": partial(
        PointWorkload, name="hotset_read", window=16, cache_capacity=512,
        hot_fraction=0.9),
    "hotset_mixed": partial(
        PointWorkload, name="hotset_mixed", window=16, cache_capacity=512,
        hot_fraction=0.9, write_share=0.1),
    "coalesce_sqlite": partial(
        PointWorkload, name="coalesce_sqlite", window=64, backend="sqlite",
        coalesce=True, write_share=0.1),
    "scan_agg": ScanWorkload,
    "rubis_lan": RubisLanWorkload,
    "transform_corpus": TransformWorkload,
}
