"""One workload in one process: the command ``BENCHMARK.json`` names.

``--trace 0`` is the end-to-end pass: set up (several times; the median is
``setup_s``), warm up, then run whole blocks until ``--seconds`` have
passed.  ``--trace 1`` is the layers pass: a fixed number of blocks for
the exact program counters, then :mod:`perfbench.layers`.  Either way the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
from array import array
from typing import Any, Dict, List, Optional, Tuple

from . import OUT, layers, load_spec, stats
from .spans import SpanRecorder
from .workloads import WORKLOADS, Workload

#: Latency samples kept per pass.  The buffers are allocated whole before
#: set-up, so ``peak_rss_mb`` does not grow with the number of operations
#: a faster program completes.
CAPACITY = 1 << 21
#: Untimed blocks before measuring (about the first 5% of a run).
WARMUP_BLOCKS = 3
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Fewest operations in a *segment*: whole consecutive blocks, enough of
#: them for a p95 with ten samples beyond it.  The gated percentiles are
#: medians over segments, so a stretch of the run on which the host ran
#: slow moves a few segments and not the figure (pooled over the whole run,
#: such a stretch supplies most of the samples beyond p95).
SEGMENT_OPS = 200


def emit(workload: str, metric: str, value: float, unit: str, note: str = "") -> None:
    print(f"{workload} {metric} {value:.6g} {unit}{'  ' + note if note else ''}")


class Pass:
    """What one run of the block loop measured."""

    def __init__(self, wl: Workload, lat: array, kinds: bytearray,
                 seconds: Optional[float] = None,
                 blocks: Optional[int] = None) -> None:
        self.failed = 0
        for _ in range(WARMUP_BLOCKS):
            block = wl.next_block()
            outputs, _ = wl.run_block(block, lat, kinds, 0)
            self.failed += wl.check_block(block, outputs)
        self.attempted = WARMUP_BLOCKS * wl.block_ops
        kinds[:wl.block_ops] = bytes(wl.block_ops)
        before = wl.counters()
        deadline = time.perf_counter() + seconds if seconds else None
        rates: List[float] = []
        ends: List[int] = []
        self.spins = [stats.spin_s()]
        self.cpu_s = 0.0
        n = 0
        while n + wl.block_ops <= len(lat):
            if deadline is None:
                if len(rates) == blocks:
                    break
            elif time.perf_counter() >= deadline:
                break
            block = wl.next_block()
            with stats.Scaled(self.spins[-1]) as timing:
                outputs, after = wl.run_block(block, lat, kinds, n)
            self.spins.append(timing.spin_after)
            self.cpu_s += timing.cpu_s
            rates.append((after - n) / timing.seconds)
            for index in range(n, after):
                lat[index] *= timing.scale
            n = after
            ends.append(n)
            self.failed += wl.check_block(block, outputs)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.ops = n
        self.attempted += n
        self.block_rates = rates
        self.counters = {
            key: value - before[key] for key, value in wl.counters().items()
        }
        #: Per-operation latencies (s, at the reference host speed), in the
        #: order the operations ran.
        self.latencies = lat[:n]
        self.ordered = sorted(self.latencies)
        self.segments = [sorted(lat[start:end]) for start, end in segments(ends)]
        self.read_latencies = sorted(
            seconds for seconds, kind in zip(self.latencies, kinds) if not kind)
        self.write_latencies = sorted(
            seconds for seconds, kind in zip(self.latencies, kinds) if kind)
        self.writes = len(self.write_latencies)

    def end_to_end(self, name: str) -> Dict[str, float]:
        """Print and return the gated figures.  Raises
        :class:`stats.TooFewSamples` rather than report a p95 the sample
        cannot support."""
        values = {
            "ops_per_s": statistics.median(self.block_rates),
            "op_p50_ms": self.segment_percentile(0.50) * 1e3,
            "op_p95_ms": self.segment_percentile(0.95) * 1e3,
            "peak_rss_mb": self.peak_rss_mb,
        }
        emit(name, "ops_per_s", values["ops_per_s"], "1/s",
             f"median of {len(self.block_rates)} blocks")
        for metric in ("op_p50_ms", "op_p95_ms"):
            emit(name, metric, values[metric], "ms",
                 f"median of {len(self.segments)} segments, n={len(self.ordered)}")
        emit(name, "peak_rss_mb", self.peak_rss_mb, "MB")
        return values

    def segment_percentile(self, q: float) -> float:
        """Median over segments of each segment's ``q`` quantile."""
        if not self.segments:
            raise stats.TooFewSamples(
                f"{self.ops} operations do not fill one segment of {SEGMENT_OPS}")
        return statistics.median(
            stats.percentile(segment, q) for segment in self.segments)

    def diagnostics(self, name: str) -> Dict[str, float]:
        """Print and return the figures that explain a run but gate
        nothing; a percentile the sample cannot support is left out."""
        low, middle, high = statistics.quantiles(self.spins, n=4)
        if high - low > 0.1 * middle:
            print(f"perfbench: warning: {name}: the host changed speed during "
                  f"the run, calibration quartiles {low * 1e3:.2f} and "
                  f"{high * 1e3:.2f} ms", file=sys.stderr)
        values = {
            "bench.cpu_us_per_op": self.cpu_s / self.ops * 1e6,
            "bench.failed_ops_pct": 100.0 * self.failed / self.attempted,
            "bench.calibration_ms": middle * 1e3,
        }
        emit(name, "bench.calibration_ms", middle * 1e3, "ms",
             f"n={len(self.spins)}")
        for metric, sample, q in (
            ("bench.op_p99_ms", self.ordered, 0.99),
            ("bench.read_p50_ms", self.read_latencies, 0.50),
            ("bench.write_p50_ms", self.write_latencies, 0.50),
        ):
            if not sample:
                continue
            try:
                values[metric] = stats.percentile(sample, q) * 1e3
            except stats.TooFewSamples as refusal:
                print(f"{name} {metric} not reported: {refusal}")
            else:
                emit(name, metric, values[metric], "ms", f"n={len(sample)}")
        emit(name, "bench.cpu_us_per_op", values["bench.cpu_us_per_op"], "us")
        emit(name, "bench.failed_ops_pct", values["bench.failed_ops_pct"], "%",
             f"{self.failed} of {self.attempted}")
        return values


def segments(ends: List[int]) -> List[Tuple[int, int]]:
    """Cut ``[0, ends[-1])`` at block ends into ``(start, end)`` pieces of at
    least :data:`SEGMENT_OPS` operations; a shorter tail joins the last."""
    cuts = [0]
    for end in ends:
        if end - cuts[-1] >= SEGMENT_OPS:
            cuts.append(end)
    if len(cuts) > 1:
        cuts[-1] = ends[-1]
    return list(zip(cuts, cuts[1:]))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one pass of one workload; returns the result object."""
    spec = load_spec()
    stats.pin_to_first_cpu()
    lat = array("d", [0.0]) * CAPACITY
    kinds = bytearray(CAPACITY)
    wl = WORKLOADS[name](seed)
    wl.generate()
    values: Dict[str, float] = {}
    try:
        if trace:
            wl.setup()
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                wl.teardown()
                with stats.Scaled() as timing:
                    wl.setup()
                setups.append(timing.seconds)
            values["setup_s"] = statistics.median(setups)
            emit(name, "setup_s", values["setup_s"], "s",
                 f"median of {SETUP_REPEATS}")
        started = time.perf_counter()
        wl.build_oracle()
        values["bench.oracle_s"] = time.perf_counter() - started
        emit(name, "bench.oracle_s", values["bench.oracle_s"], "s")
        if trace:
            measured = Pass(wl, lat, kinds, blocks=wl.counter_blocks)
        else:
            measured = Pass(wl, lat, kinds, seconds=seconds)
            values.update(measured.end_to_end(name))
        values.update(measured.diagnostics(name))
        ran, wrong = wl.check_once()
        attempted = measured.attempted + ran
        failed = measured.failed + wrong
        if trace:
            recorder = SpanRecorder(name)
            more, ran, wrong = layers.collect(wl, recorder, measured)
            attempted += ran
            failed += wrong
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for metric, value in more.items():
                emit(name, metric, value, units[metric])
            values.update(more)
            recorder.write(OUT / f"trace-{name}.json")
    finally:
        wl.teardown()
    if trace:
        # 0: that layer is not on this workload's path.
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
