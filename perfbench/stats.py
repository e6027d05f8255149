"""Small numeric helpers: percentiles with a sample guard, quartile
summaries, the calibration spin kernel and CPU pinning."""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
from typing import Dict, Optional, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """Raised instead of reporting a percentile the sample cannot support."""


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1) of an already sorted sample, by
    linear interpolation; refuses when fewer than
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond it."""
    count = len(sorted_values)
    beyond = count - math.ceil(q * count)
    if beyond < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {count} samples has only {beyond} beyond it "
            f"(need {MIN_SAMPLES_BEYOND})"
        )
    position = q * (count - 1)
    low = int(position)
    high = min(low + 1, count - 1)
    fraction = position - low
    return sorted_values[low] * (1 - fraction) + sorted_values[high] * fraction


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median and quartiles of a metric's values across runs (quartiles
    are None for fewer than two runs)."""
    values = list(values)
    if len(values) < 2:
        return {"median": values[0], "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


#: Wall time of :func:`spin_s` on the host speed that end-to-end timings
#: are reported at.  An arbitrary constant near today's reading: both
#: sides of a comparison use the same one.
SPIN_REFERENCE_S = 1.8e-3


class _Cell:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, amount: int) -> int:
        self.total += amount
        return self.total


def _tally(counts: dict, key: int, amount: int):
    counts[key] = counts.get(key, 0) + amount
    return key, amount


def spin_s() -> float:
    """Wall time (s) of a fixed pure-Python kernel.  It touches nothing of
    the program under test, so a change between two calls is the host
    changing speed, not the code.

    The kernel is interpreter work of the kind the program does — calls,
    dict reads and writes, attribute access, small allocations, string
    formatting — because the host's slow stretches are not all alike: a
    neighbour that fills the shared cache slows such code and leaves an
    arithmetic loop alone, and timings restated by an arithmetic loop then
    spread half as wide again (README, *Sizing facts*, 5)."""
    started = time.perf_counter()
    counts: dict = {}
    pairs = []
    cell = _Cell()
    for index in range(4_000):
        key = index * 7919 % 509
        pairs.append(_tally(counts, key, index))
        cell.add(index)
        if len(pairs) > 64:
            pairs.clear()
        counts["k%d" % key] = cell
    return time.perf_counter() - started


def host_scale(wall_s: float, cpu_s: float, spin: float) -> float:
    """Factor that restates ``wall_s`` at the reference host speed.

    On this sandbox whole seconds run 10-20% slow or fast together (a
    pure-Python loop drifts by as much), which is several times any
    bound worth gating on.  ``spin`` is :func:`spin_s` read next to the
    interval.  Only the CPU seconds are rescaled; time spent waiting — all
    of the latency-bound workload's simulated round trips — stays as
    measured."""
    cpu_s = min(cpu_s, wall_s)
    return ((wall_s - cpu_s) + cpu_s * SPIN_REFERENCE_S / spin) / wall_s


class Scaled:
    """``with Scaled() as timing:`` times the block, reads the spin kernel
    on each side of it (``spin_before`` reuses a reading just taken) and
    restates the block's wall time at the reference host speed."""

    def __init__(self, spin_before: Optional[float] = None) -> None:
        self._spin_before = spin_before

    def __enter__(self) -> "Scaled":
        if self._spin_before is None:
            self._spin_before = spin_s()
        self._cpu = time.process_time()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.wall_s = time.perf_counter() - self._started
        self.cpu_s = time.process_time() - self._cpu
        self.spin_after = spin_s()
        self.scale = host_scale(
            self.wall_s, self.cpu_s, (self._spin_before + self.spin_after) / 2)
        self.seconds = self.wall_s * self.scale


def pin_to_first_cpu() -> Optional[int]:
    """Pin this process (and every thread it later starts) to its first
    allowed CPU.  The GIL serialises the client, ``client-async`` and
    ``dbworker`` threads anyway; unpinned, throughput is bimodal by 3x
    with where the kernel happens to place them."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        print(f"perfbench: warning: running unpinned ({exc})", file=sys.stderr)
        return None
    return cpu
