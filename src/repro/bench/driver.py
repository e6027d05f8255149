"""Open/closed-loop load driver with percentile SLOs: ``repro workload run``.

Every other benchmark in the repo measures mean wall-clock of a fixed
iteration count; this module measures **tail latency under sustained
concurrency** — the dbworkload-style view (tot_ops/s plus p50/p90/p95/p99
per operation) that production scale is actually judged on.

Two arrival disciplines:

* **Closed loop** (``--mode closed``): ``-c`` client threads each issue
  the next operation as soon as the previous one returns, for ``-d``
  seconds.  Latency is pure service time; throughput is whatever the
  clients achieve.  A stalled server *slows the clients down*, so the
  measured distribution under-reports how a fixed-rate outside world
  would experience the stall.
* **Open loop** (``--mode open --rate R``): operations arrive at a fixed
  rate whether or not earlier ones have finished, and each operation's
  latency is measured from its *scheduled arrival time* — queue delay is
  charged to latency, which is exactly the coordinated-omission
  correction closed-loop drivers miss.

Per-operation latencies land in :class:`~repro.obs.metrics.Histogram`
instruments inside a :class:`~repro.obs.metrics.MetricsRegistry`
(``workload.<op>_s``), flow into a
:class:`~repro.bench.harness.FigureData` and out as
``BENCH_workload.json`` (plus optional CSV), and ``--slo`` specs turn
percentile breaches into a nonzero exit so CI can gate on tail latency.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import threading
import time
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from ..obs.metrics import Histogram, MetricsRegistry
from .harness import FigureData, write_bench_json

#: Aggregate pseudo-operation name (all ops folded into one histogram).
ALL_OPS = "all"

#: Exit code for an SLO breach — distinct from transformation failure
#: (1) and usage errors (2) so CI can tell the cases apart.
SLO_EXIT_CODE = 3

#: Statistics an ``--slo`` spec may gate on.
SLO_STATS = ("mean", "max", "p50", "p90", "p95", "p99")


@dataclass(frozen=True)
class Operation:
    """One operation the driver mixes into the arrival stream.

    ``fn`` receives the calling client's :class:`random.Random` (for id
    draws etc.) and performs one operation end to end; its wall time is
    the measured latency.  ``weight`` sets the relative frequency.
    """

    name: str
    fn: Callable[[random.Random], Any]
    weight: float = 1.0


class _OpPicker:
    """Weighted operation choice (deterministic given the rng)."""

    def __init__(self, operations: Sequence[Operation]) -> None:
        if not operations:
            raise ValueError("need at least one operation")
        self.operations = list(operations)
        self._cumulative: List[float] = []
        total = 0.0
        for op in self.operations:
            if op.weight < 0:
                raise ValueError(f"operation {op.name!r} has negative weight")
            total += op.weight
            self._cumulative.append(total)
        if total <= 0:
            raise ValueError("operation weights sum to zero")
        self._total = total

    def pick(self, rng: random.Random) -> Operation:
        return self.operations[
            bisect_left(self._cumulative, rng.random() * self._total)
        ]


@dataclass
class WorkloadResult:
    """Everything one driver run measured."""

    mode: str
    clients: int
    duration_s: float
    elapsed_s: float
    rate: Optional[float]
    #: Per-op latency histograms (also registered in :attr:`registry`
    #: as ``workload.<op>_s``); keyed by op name, plus :data:`ALL_OPS`.
    histograms: Dict[str, Histogram]
    errors: Dict[str, int]
    registry: MetricsRegistry
    notes: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def ops_completed(self, name: str = ALL_OPS) -> int:
        hist = self.histograms.get(name)
        return hist.count if hist is not None else 0

    def throughput(self, name: str = ALL_OPS) -> float:
        """Completed operations per second over the measured window."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.ops_completed(name) / self.elapsed_s

    # ------------------------------------------------------------------
    def to_figure(self) -> FigureData:
        """Render the run as the ``BENCH_workload.json`` figure: one
        point-less series per op carrying its latency block plus a
        ``throughput`` block (tot_ops, ops_per_s, errors)."""
        mode = f"{self.mode} loop"
        if self.rate is not None:
            mode += f", {self.rate:g} ops/s offered"
        figure = FigureData(
            figure_id="workload",
            title=f"hotset workload under sustained load ({mode})",
            x_label="elapsed_s",
        )
        figure.notes.append(
            f"mode={self.mode} clients={self.clients} "
            f"duration_s={self.duration_s:g} elapsed_s={self.elapsed_s:.3f}"
        )
        figure.notes.extend(self.notes)
        for name, hist in self.histograms.items():
            if not hist.count and name != ALL_OPS:
                continue
            figure.new_series(name)
            figure.op_latencies[name] = hist
            figure.series_meta[name] = {
                "throughput": {
                    "tot_ops": hist.count,
                    "ops_per_s": self.throughput(name),
                    "errors": self.errors.get(name, 0),
                }
            }
        return figure

    # ------------------------------------------------------------------
    def summary_table(self) -> str:
        """The dbworkload-style final table, one row per op."""
        header = (
            f"{'op':>10} {'tot_ops':>9} {'ops/s':>9} {'errors':>7} "
            f"{'mean(ms)':>9} {'p50':>8} {'p90':>8} {'p95':>8} "
            f"{'p99':>8} {'max(ms)':>9}"
        )
        lines = [header, "-" * len(header)]
        for name, hist in self.histograms.items():
            snap = hist.snapshot()

            def ms(value: Optional[float]) -> str:
                return f"{value * 1000.0:.2f}" if value is not None else "-"

            lines.append(
                f"{name:>10} {snap['count']:>9} "
                f"{self.throughput(name):>9.1f} "
                f"{self.errors.get(name, 0):>7} "
                f"{ms(snap['mean']):>9} {ms(snap['p50']):>8} "
                f"{ms(snap['p90']):>8} {ms(snap['p95']):>8} "
                f"{ms(snap['p99']):>8} {ms(snap['max']):>9}"
            )
        return "\n".join(lines)

    def write_csv(self, path: str) -> None:
        """Per-op summary rows (seconds; one row per op incl. 'all')."""
        with open(path, "w", newline="") as out:
            writer = csv.writer(out)
            writer.writerow(
                ["op", "tot_ops", "ops_per_s", "errors", "mean_s",
                 "p50_s", "p90_s", "p95_s", "p99_s", "max_s"]
            )
            for name, hist in self.histograms.items():
                snap = hist.snapshot()
                writer.writerow(
                    [name, snap["count"], f"{self.throughput(name):.3f}",
                     self.errors.get(name, 0), snap["mean"], snap["p50"],
                     snap["p90"], snap["p95"], snap["p99"], snap["max"]]
                )


class _Recorder:
    """Shared per-op instruments, registry-backed and thread-safe."""

    def __init__(
        self, operations: Sequence[Operation], registry: MetricsRegistry
    ) -> None:
        self.registry = registry
        self.histograms: Dict[str, Histogram] = {}
        self.error_counters = {}
        for op in operations:
            self.histograms[op.name] = registry.histogram(
                f"workload.{op.name}_s"
            )
            self.error_counters[op.name] = registry.counter(
                f"workload.{op.name}.errors"
            )
        self._all = registry.histogram(f"workload.{ALL_OPS}_s")

    def observe(self, name: str, latency_s: float) -> None:
        self.histograms[name].observe(latency_s)
        self._all.observe(latency_s)

    def error(self, name: str) -> None:
        self.error_counters[name].inc()

    def result(
        self,
        mode: str,
        clients: int,
        duration_s: float,
        elapsed_s: float,
        rate: Optional[float] = None,
    ) -> WorkloadResult:
        histograms = dict(self.histograms)
        histograms[ALL_OPS] = self._all
        errors = {
            name: counter.value
            for name, counter in self.error_counters.items()
        }
        errors[ALL_OPS] = sum(errors.values())
        return WorkloadResult(
            mode=mode,
            clients=clients,
            duration_s=duration_s,
            elapsed_s=elapsed_s,
            rate=rate,
            histograms=histograms,
            errors=errors,
            registry=self.registry,
        )


# ----------------------------------------------------------------------
# the two arrival disciplines
# ----------------------------------------------------------------------


def run_closed_loop(
    operations: Sequence[Operation],
    *,
    clients: int,
    duration_s: float,
    registry: Optional[MetricsRegistry] = None,
    seed: int = 17,
) -> WorkloadResult:
    """``clients`` threads, each issuing its next op as soon as the
    previous returns, until ``duration_s`` elapses.  Latency is service
    time from op start."""
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    picker = _OpPicker(operations)
    recorder = _Recorder(operations, registry or MetricsRegistry())
    barrier = threading.Barrier(clients + 1)
    end_times: List[float] = [0.0] * clients

    def client(index: int) -> None:
        rng = random.Random((seed << 10) + index)
        barrier.wait()
        deadline = time.perf_counter() + duration_s
        now = time.perf_counter()
        while now < deadline:
            op = picker.pick(rng)
            started = time.perf_counter()
            try:
                op.fn(rng)
            except Exception:
                recorder.error(op.name)
            else:
                recorder.observe(op.name, time.perf_counter() - started)
            now = time.perf_counter()
        end_times[index] = now

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = max(max(end_times) - started, 0.0) or duration_s
    return recorder.result("closed", clients, duration_s, elapsed)


def run_open_loop(
    operations: Sequence[Operation],
    *,
    rate: float,
    duration_s: float,
    workers: int,
    registry: Optional[MetricsRegistry] = None,
    seed: int = 17,
) -> WorkloadResult:
    """Fixed-rate arrivals for ``duration_s`` seconds, executed by a
    pool of ``workers`` threads.

    Each operation's latency is measured from its **scheduled arrival
    time**, not from when a worker picked it up: a stalled server (or an
    undersized pool) leaves later arrivals queued, and their whole queue
    wait is charged to their latency.  This is the standard correction
    for coordinated omission — a closed-loop driver would simply stop
    generating load while stalled and report flattering percentiles.
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    picker = _OpPicker(operations)
    recorder = _Recorder(operations, registry or MetricsRegistry())
    total = max(1, int(rate * duration_s))
    choice_rng = random.Random(seed)

    def run_one(op: Operation, scheduled: float, op_seed: int) -> None:
        rng = random.Random(op_seed)
        try:
            op.fn(rng)
        except Exception:
            recorder.error(op.name)
        else:
            # Latency from the scheduled arrival: queue delay included.
            recorder.observe(op.name, time.perf_counter() - scheduled)

    pool = ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="workload-open"
    )
    started = time.perf_counter()
    try:
        for index in range(total):
            scheduled = started + index / rate
            now = time.perf_counter()
            if scheduled > now:
                time.sleep(scheduled - now)
            op = picker.pick(choice_rng)
            pool.submit(run_one, op, scheduled, (seed << 20) ^ index)
    finally:
        pool.shutdown(wait=True)
    elapsed = time.perf_counter() - started
    result = recorder.result("open", workers, duration_s, elapsed, rate=rate)
    offered = total / duration_s
    achieved = result.throughput()
    result.notes.append(
        f"offered {offered:.1f} ops/s, completed {achieved:.1f} ops/s"
    )
    if achieved < 0.95 * offered:
        result.notes.append(
            "completed rate fell >5% below the offered rate: the system "
            "did not keep up; percentiles include the resulting backlog"
        )
    return result


# ----------------------------------------------------------------------
# live reporting (dbworkload-style periodic table)
# ----------------------------------------------------------------------


class LiveReporter:
    """Background thread printing per-op period stats every
    ``interval_s`` seconds while a run is in flight."""

    def __init__(
        self,
        registry: MetricsRegistry,
        interval_s: float,
        stream: Optional[TextIO] = None,
    ) -> None:
        self.registry = registry
        self.interval_s = interval_s
        self.stream = stream if stream is not None else sys.stdout
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._last_counts: Dict[str, int] = {}
        self._started = 0.0

    def __enter__(self) -> "LiveReporter":
        self._started = time.perf_counter()
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        header = (
            f"{'elapsed':>8} {'op':>10} {'tot_ops':>9} {'period_ops/s':>13} "
            f"{'p50(ms)':>8} {'p90(ms)':>8} {'p95(ms)':>8} {'p99(ms)':>8}"
        )
        while not self._stop.wait(self.interval_s):
            elapsed = time.perf_counter() - self._started
            print(header, file=self.stream)
            for name, hist in sorted(self.registry.histograms().items()):
                if not name.startswith("workload."):
                    continue
                label = name[len("workload."):].rsplit("_s", 1)[0]
                snap = hist.snapshot()
                period = snap["count"] - self._last_counts.get(name, 0)
                self._last_counts[name] = snap["count"]

                def ms(value: Optional[float]) -> str:
                    return (
                        f"{value * 1000.0:.2f}" if value is not None else "-"
                    )

                print(
                    f"{elapsed:>8.1f} {label:>10} {snap['count']:>9} "
                    f"{period / self.interval_s:>13.1f} "
                    f"{ms(snap['p50']):>8} {ms(snap['p90']):>8} "
                    f"{ms(snap['p95']):>8} {ms(snap['p99']):>8}",
                    file=self.stream,
                )
            self.stream.flush()


# ----------------------------------------------------------------------
# SLO gating
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SLO:
    """One latency objective: ``[op:]stat=seconds`` (e.g. ``p99=0.05``,
    ``read:p95=0.01``).  Without an op prefix the objective applies to
    the aggregate :data:`ALL_OPS` histogram."""

    op: str
    stat: str
    threshold_s: float
    text: str

    def evaluate(self, result: WorkloadResult) -> Optional[str]:
        """Breach description, or None when the objective holds."""
        hist = result.histograms.get(self.op)
        if hist is None:
            return f"{self.text}: no such operation {self.op!r}"
        snap = hist.snapshot()
        observed = snap.get(self.stat)
        if observed is None:
            return f"{self.text}: no observations for {self.op!r}"
        if observed > self.threshold_s:
            return (
                f"{self.text}: {self.op} {self.stat} = {observed:.6f}s "
                f"exceeds {self.threshold_s:g}s"
            )
        return None


def parse_slo(spec: str) -> SLO:
    """Parse one ``--slo`` spec; raises ValueError on bad grammar."""
    body = spec.strip()
    op = ALL_OPS
    if ":" in body:
        op, body = body.split(":", 1)
        op = op.strip()
        if not op:
            raise ValueError(f"empty operation name in SLO {spec!r}")
    if "=" not in body:
        raise ValueError(f"SLO {spec!r} must look like [op:]stat=seconds")
    stat, _, value = body.partition("=")
    stat = stat.strip()
    if stat not in SLO_STATS:
        raise ValueError(
            f"unknown SLO statistic {stat!r} (expected one of {SLO_STATS})"
        )
    try:
        threshold = float(value)
    except ValueError:
        raise ValueError(f"SLO {spec!r}: threshold {value!r} is not a number")
    if threshold <= 0:
        raise ValueError(f"SLO {spec!r}: threshold must be > 0")
    return SLO(op=op, stat=stat, threshold_s=threshold, text=spec.strip())


def check_slos(
    result: WorkloadResult, slos: Sequence[SLO]
) -> List[str]:
    """Every breach description (empty when all objectives hold)."""
    breaches = []
    for slo in slos:
        breach = slo.evaluate(result)
        if breach is not None:
            breaches.append(breach)
    return breaches


# ----------------------------------------------------------------------
# the hotset operation mix
# ----------------------------------------------------------------------


def build_hotset_operations(
    db,
    conn,
    *,
    read_pct: float,
    detail_pct: float = 0.0,
    speculate: bool = False,
    hot_users: int = 16,
    hot_fraction: float = 0.9,
    seed: int = 23,
) -> List[Operation]:
    """The driver's default mix over the hotset workload.

    ``read`` (a skewed profile lookup via submit/fetch, so it rides the
    coalescer when enabled), ``write`` (a rating update, which exercises
    write invalidation), and optionally ``detail`` (the two-query
    profile card; ``speculate=True`` uses the speculative kernel).
    """
    from ..workloads import hotset

    if not 0.0 <= read_pct <= 100.0:
        raise ValueError(f"read_pct must be within [0, 100], got {read_pct}")
    if not 0.0 <= detail_pct <= read_pct:
        raise ValueError(
            f"detail_pct must be within [0, read_pct], got {detail_pct}"
        )
    draw = hotset.skewed_id_source(
        db, hot_users=hot_users, hot_fraction=hot_fraction, seed=seed
    )

    def read(rng: random.Random) -> None:
        handle = conn.submit_query(hotset.PROFILE_SQL, [draw(rng)])
        conn.fetch_result(handle)

    def write(rng: random.Random) -> None:
        conn.execute_update(
            hotset.RATING_UPDATE_SQL, [rng.randint(-5, 5), draw(rng)]
        )

    def detail(rng: random.Random) -> None:
        user_id = draw(rng)
        if speculate:
            hotset.speculative_profile_card(conn, user_id)
        else:
            hotset.profile_card(conn, user_id)

    operations = [Operation("read", read, weight=read_pct - detail_pct)]
    if detail_pct > 0:
        operations.append(Operation("detail", detail, weight=detail_pct))
    if read_pct < 100.0:
        operations.append(Operation("write", write, weight=100.0 - read_pct))
    return [op for op in operations if op.weight > 0]


# ----------------------------------------------------------------------
# CLI: repro workload run
# ----------------------------------------------------------------------


def build_workload_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro workload",
        description=(
            "Drive the hotset workload under sustained open- or "
            "closed-loop load and report per-op latency percentiles."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser(
        "run", help="run the load driver and emit BENCH_workload.json"
    )
    run.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help=(
            "closed: -c clients each issue ops back-to-back; open: ops "
            "arrive at --rate regardless of completions, and latency is "
            "measured from the scheduled arrival (default: closed)"
        ),
    )
    run.add_argument(
        "-c", "--clients", type=int, default=4, metavar="N",
        help=(
            "closed-loop client threads / open-loop worker threads "
            "(default 4)"
        ),
    )
    run.add_argument(
        "-d", "--duration", type=float, default=5.0, metavar="SECONDS",
        help="measured duration (default 5)",
    )
    run.add_argument(
        "--rate", type=float, default=None, metavar="OPS_PER_S",
        help="open-loop arrival rate (required with --mode open)",
    )
    run.add_argument(
        "--read-pct", type=float, default=90.0, metavar="P",
        help="percentage of operations that are reads (default 90)",
    )
    run.add_argument(
        "--detail-pct", type=float, default=0.0, metavar="P",
        help=(
            "percentage of operations that are two-query profile cards "
            "(taken out of the read share; default 0)"
        ),
    )
    run.add_argument(
        "--speculate", action="store_true",
        help=(
            "issue the profile card's detail read speculatively "
            "(requires --detail-pct > 0)"
        ),
    )
    run.add_argument(
        "--profile", choices=("instant", "sys1", "postgres"),
        default="sys1",
        help="latency profile of the simulated deployment (default sys1)",
    )
    run.add_argument(
        "--users", type=int, default=2000, metavar="N",
        help="users in the generated auction database (default 2000)",
    )
    run.add_argument(
        "--hot-users", type=int, default=16, metavar="N",
        help="size of the hot id set (default 16)",
    )
    run.add_argument(
        "--hot-fraction", type=float, default=0.9, metavar="F",
        help="fraction of draws landing on the hot set (default 0.9)",
    )
    run.add_argument(
        "--no-cache", action="store_true",
        help="disable the shared result cache (enabled by default)",
    )
    run.add_argument(
        "--cache-size", type=int, default=512, metavar="N",
        help="result-cache capacity (default 512)",
    )
    run.add_argument(
        "--coalesce", action="store_true",
        help="enable set-oriented dispatch (submit coalescing)",
    )
    run.add_argument(
        "--backend", choices=("memory", "sqlite"), default=None,
        help=(
            "statement store behind the connection: memory (the "
            "simulated in-memory server) or sqlite (stdlib sqlite3 "
            "behind the same interface — honest file-backed latency; "
            "see docs/BACKENDS.md); default: REPRO_BACKEND, else memory"
        ),
    )
    run.add_argument(
        "--async-workers", type=int, default=10, metavar="N",
        help="connection-side async worker threads (default 10)",
    )
    run.add_argument(
        "--seed", type=int, default=17, metavar="N",
        help="deterministic seed for id draws and op mix (default 17)",
    )
    run.add_argument(
        "--slo", action="append", default=[], metavar="SPEC",
        help=(
            "latency objective '[op:]stat=seconds' (stat: "
            f"{'/'.join(SLO_STATS)}); repeatable; any breach exits "
            f"{SLO_EXIT_CODE}"
        ),
    )
    run.add_argument(
        "--json-dir", default=None, metavar="DIR",
        help=(
            "directory for BENCH_workload.json (default: REPRO_BENCH_OUT "
            "or the working directory)"
        ),
    )
    run.add_argument(
        "--no-json", action="store_true",
        help="skip writing BENCH_workload.json",
    )
    run.add_argument(
        "--csv", default=None, metavar="PATH",
        help="also write the per-op summary as CSV",
    )
    run.add_argument(
        "--report-interval", type=float, default=0.0, metavar="SECONDS",
        help="print a live per-op stats table every N seconds (default off)",
    )
    run.add_argument(
        "--quiet", action="store_true",
        help="suppress the summary table (JSON/CSV still written)",
    )
    return parser


def _resolve_profile(name: str):
    from ..db.latency import INSTANT, POSTGRES, SYS1

    return {"instant": INSTANT, "sys1": SYS1, "postgres": POSTGRES}[name]


def workload_main(argv: Sequence[str]) -> int:
    """``repro workload ...`` entry point; returns the exit code."""
    parser = build_workload_parser()
    args = parser.parse_args(list(argv))
    if args.mode == "open" and (args.rate is None or args.rate <= 0):
        parser.error("--mode open requires --rate > 0")
    if args.mode == "closed" and args.rate is not None:
        parser.error("--rate only applies to --mode open")
    if args.clients < 1:
        parser.error(f"--clients must be >= 1, got {args.clients}")
    if args.duration <= 0:
        parser.error(f"--duration must be > 0, got {args.duration}")
    if args.speculate and args.detail_pct <= 0:
        parser.error("--speculate requires --detail-pct > 0")
    try:
        slos = [parse_slo(spec) for spec in args.slo]
    except ValueError as exc:
        parser.error(str(exc))
    try:
        result = run_hotset_workload(
            mode=args.mode,
            clients=args.clients,
            duration_s=args.duration,
            rate=args.rate,
            read_pct=args.read_pct,
            detail_pct=args.detail_pct,
            speculate=args.speculate,
            profile=_resolve_profile(args.profile),
            users=args.users,
            hot_users=args.hot_users,
            hot_fraction=args.hot_fraction,
            cache_size=0 if args.no_cache else args.cache_size,
            coalesce=args.coalesce,
            backend=args.backend,
            async_workers=args.async_workers,
            seed=args.seed,
            report_interval_s=args.report_interval,
        )
    except ValueError as exc:
        parser.error(str(exc))

    if not args.quiet:
        print(result.summary_table())
        for note in result.notes:
            print(f"note: {note}")
    if not args.no_json:
        path = write_bench_json(result.to_figure(), directory=args.json_dir)
        if not args.quiet:
            print(f"wrote {path}")
    if args.csv:
        result.write_csv(args.csv)
        if not args.quiet:
            print(f"wrote {args.csv}")
    breaches = check_slos(result, slos)
    if breaches:
        for breach in breaches:
            print(f"SLO breach: {breach}", file=sys.stderr)
        return SLO_EXIT_CODE
    return 0


def run_hotset_workload(
    *,
    mode: str = "closed",
    clients: int = 4,
    duration_s: float = 5.0,
    rate: Optional[float] = None,
    read_pct: float = 90.0,
    detail_pct: float = 0.0,
    speculate: bool = False,
    profile=None,
    users: int = 2000,
    hot_users: int = 16,
    hot_fraction: float = 0.9,
    cache_size: int = 512,
    coalesce: bool = False,
    backend: Optional[str] = None,
    async_workers: int = 10,
    seed: int = 17,
    report_interval_s: float = 0.0,
    report_stream: Optional[TextIO] = None,
) -> WorkloadResult:
    """Build the hotset database, run one driver pass, return the result.

    The programmatic face of ``repro workload run`` (tests and notebooks
    call this directly).  ``cache_size=0`` disables the result cache.
    """
    from ..db.latency import SYS1
    from ..prefetch.cache import ResultCache
    from ..workloads import hotset

    if profile is None:
        profile = SYS1
    registry = MetricsRegistry()
    cache = ResultCache(capacity=cache_size) if cache_size > 0 else None
    db = hotset.build_database(
        profile,
        users=users,
        items=max(users // 3, 50),
        comments=users,
        bids=users,
        seed=seed,
    )
    try:
        with db.connect(
            async_workers=async_workers,
            result_cache=cache,
            coalesce=coalesce,
            metrics=registry,
            backend=backend,
        ) as conn:
            operations = build_hotset_operations(
                db,
                conn,
                read_pct=read_pct,
                detail_pct=detail_pct,
                speculate=speculate,
                hot_users=hot_users,
                hot_fraction=hot_fraction,
                seed=seed,
            )
            reporter = None
            if report_interval_s > 0:
                reporter = LiveReporter(
                    registry, report_interval_s, stream=report_stream
                )
                reporter.__enter__()
            try:
                if mode == "open":
                    result = run_open_loop(
                        operations,
                        rate=rate if rate is not None else 100.0,
                        duration_s=duration_s,
                        workers=clients,
                        registry=registry,
                        seed=seed,
                    )
                elif mode == "closed":
                    result = run_closed_loop(
                        operations,
                        clients=clients,
                        duration_s=duration_s,
                        registry=registry,
                        seed=seed,
                    )
                else:
                    raise ValueError(
                        f"unknown mode {mode!r} (expected closed|open)"
                    )
            finally:
                if reporter is not None:
                    reporter.__exit__(None, None, None)
        store = db.backend(backend)
        result.notes.append(
            f"profile={profile.name} users={users} read_pct={read_pct:g} "
            f"cache={'off' if cache is None else cache_size} "
            f"coalesce={coalesce} "
            f"backend={store.backend_name}"
        )
        if cache is not None:
            stats = cache.stats
            result.notes.append(
                f"cache hit_rate={stats.hit_rate:.3f} "
                f"(hits={stats.hits} misses={stats.misses})"
            )
        server = store.stats
        if server.batched_calls:
            result.notes.append(
                f"coalescer: {server.batched_calls} batched calls answered "
                f"{server.batched_bindings} bindings "
                f"(scans saved: {server.scans_saved})"
            )
        return result
    finally:
        db.close()
