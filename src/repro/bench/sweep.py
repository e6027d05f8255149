"""The one sweep skeleton behind the timing figures.

The paper's evaluation is one experiment repeated: build a workload
store, walk a grid of iterations or threads, run the original kernel and
the ``asyncify``-ed kernel warm or cold, check they agree, plot seconds.
:func:`run_sweep` is that experiment; a :class:`Sweep` describes one
figure's store, inputs, grid and :class:`Variant` list
(:mod:`repro.bench.figures` holds the descriptions).  Only the skeleton
opens and closes the stores and connections of a sweep.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from ..db.latency import SYS1
from ..obs.metrics import MetricsRegistry
from ..prefetch import ResultCache
from ..transform import asyncify
from .harness import FigureData, bench_scale, full_mode, measure

#: ``Variant.threads`` on a thread-axis sweep: the grid point itself.
X = "x"
_UNSET = object()


class Transformed:
    """``asyncify(kernel, **options)``, built on first use, so importing
    a module of descriptions transforms nothing.  The skeleton builds
    every variant's kernel before the sweep starts."""

    def __init__(self, kernel: Callable[..., Any], **options: Any) -> None:
        self.kernel, self.options, self._built = kernel, options, None

    def build(self) -> Callable[..., Any]:
        if self._built is None:
            self._built = asyncify(self.kernel, **self.options)
        return self._built

    def __call__(self, *args: Any) -> Any:
        return self.build()(*args)


@dataclass(frozen=True)
class Variant:
    """One measured discipline: ``kernel(connection, *inputs) -> value``.

    ``threads`` is an int, None (the sweep's) or ``X``.  ``cache`` is
    ``"warm"`` (run the kernel once on a throwaway connection first),
    ``"cold"`` (flush the buffer pool) or None (the store as it is).
    ``connect`` holds extra connect kwargs; a callable value is invoked
    once per grid point, so warm-up and measured run share one fresh
    ``ResultCache``.  ``points`` slices the grid this variant runs on
    (default: all of it); ``flat`` measures at the first point only and
    plots a flat line (the blocking original on a thread axis, as the
    paper draws it).
    """

    name: str
    kernel: Callable[..., Any]
    threads: Union[int, str, None] = None
    cache: Optional[str] = "warm"
    connect: Mapping[str, Any] = field(default_factory=dict)
    points: Optional[slice] = None
    flat: bool = False


@dataclass(frozen=True)
class Sweep:
    """One figure: a store, an input maker, a grid and its variants.

    ``title`` is formatted with ``{profile}``, ``{threads}``, ``{size}``.
    ``build(profile, size, x) -> store`` runs once, at the first grid
    point, or at every point under ``store_per_point`` (``x`` picks a
    store configuration); ``inputs(store, x, size) -> tuple`` makes the
    kernel arguments, which kernels only read.  ``size`` is the
    figure's one scale number: the dataset size where the builder takes
    one, else the iterations behind every grid point; ``full_grid``/
    ``full_size`` replace ``grid``/``size`` under ``REPRO_BENCH_FULL``.
    Every variant must return the first variant's value — or that of
    ``oracle``, an unplotted blocking kernel run once, for sweeps whose
    result does not change with ``x``.  ``latencies`` attaches a
    ``MetricsRegistry`` per variant and absorbs its histograms.
    ``headline=(improved, *bases)`` adds the speed-up note at the top of
    the grid and ``note(x, stats)`` one note per point from ``{variant:
    connection.stats_snapshot()}`` taken after close.
    """

    figure_id: str
    title: str
    x_label: str
    paper_reference: str
    build: Callable[..., Any]
    inputs: Callable[..., tuple]
    grid: Sequence[Any]
    variants: Sequence[Variant]
    full_grid: Optional[Sequence[Any]] = None
    profile: Any = SYS1
    threads: int = 10
    size: Optional[int] = None
    full_size: Optional[int] = None
    oracle: Optional[Callable[..., Any]] = None
    store_per_point: bool = False
    latencies: bool = False
    headline: Tuple[str, ...] = ()
    note: Optional[Callable[[Any, Dict[str, dict]], str]] = None


def scaled(profile):
    """``profile`` under ``REPRO_BENCH_SCALE``."""
    return profile if bench_scale() == 1.0 else profile.scaled(bench_scale())


def add_headline(figure: FigureData, improved: str, *bases: str) -> None:
    """The ``speedup at <top> <x_label>: N.NNx over <base>…`` note."""
    top = max(figure.xs())
    gains = [figure.speedup(base, improved, top) for base in bases]
    if all(gains):
        figure.notes.append(
            f"speedup at {top} {figure.x_label}: "
            + ", ".join(f"{gain:.2f}x over {base}" for gain, base in zip(gains, bases))
        )


def _run_variant(sweep, variant, store, args, workers, figure):
    """One measured run -> ``(value, seconds, stats)``.  Connection
    setup/teardown — including the client thread pool the transformed
    program needs — happens *inside* the measured region, as in the
    paper ("the overhead of thread creation and scheduling overshoots
    the query execution time" at small iteration counts)."""
    kwargs = {
        key: value() if callable(value) else value
        for key, value in variant.connect.items()
    }
    registry = MetricsRegistry() if sweep.latencies else None
    if registry is not None:
        kwargs["metrics"] = registry

    def once():
        connection = store.connect(async_workers=workers, **kwargs)
        try:
            return variant.kernel(connection, *args), connection
        finally:
            connection.close()

    if variant.cache == "cold":
        store.flush_cache()
    elif variant.cache == "warm":
        once()
        # Keep the warm-up out of the percentiles and the hit rates.
        if registry is not None:
            registry.reset()
        for value in kwargs.values():
            if isinstance(value, ResultCache):
                value.clear_stats()
    (value, connection), seconds = measure(once)
    if registry is not None:
        figure.absorb_latencies(variant.name, registry)
    stats = connection.stats_snapshot() if sweep.note is not None else {}
    return value, seconds, stats


def run_sweep(
    sweep: Sweep, grid=None, threads=None, profile=None, size=None
) -> FigureData:
    """Run ``sweep`` and return its figure.

    The skeleton alone opens and closes stores and connections, warms
    or flushes, checks that every variant returns the reference value
    at every grid point, and adds the points and notes.
    """
    full = full_mode()
    grid = tuple(grid or (full and sweep.full_grid) or sweep.grid)
    size = size or (full and sweep.full_size) or sweep.size
    threads = threads or sweep.threads
    profile = scaled(profile or sweep.profile)
    figure = FigureData(
        figure_id=sweep.figure_id,
        title=sweep.title.format(profile=profile.name, threads=threads, size=size),
        x_label=sweep.x_label,
        paper_reference=sweep.paper_reference,
    )
    variants = tuple(sweep.variants)
    series = {variant.name: figure.new_series(variant.name) for variant in variants}
    for variant in variants:
        if isinstance(variant.kernel, Transformed):
            variant.kernel.build()  # off the clock
    if sweep.oracle is not None:
        oracle = Variant("oracle", sweep.oracle, threads=1, cache=None, flat=True)
        variants = (oracle,) + variants
    flat: Dict[str, tuple] = {}
    with contextlib.ExitStack() as stores:
        store = None
        for x in grid:
            if store is None or sweep.store_per_point:
                stores.close()
                store = sweep.build(profile, size, x)
                stores.callback(store.close)
            args = sweep.inputs(store, x, size)
            expected = _UNSET
            stats = {}
            for variant in variants:
                if variant.points is not None and x not in grid[variant.points]:
                    continue
                if variant.name in flat:
                    outcome = flat[variant.name]
                else:
                    workers = variant.threads or threads
                    outcome = _run_variant(
                        sweep, variant, store, args,
                        x if workers == X else workers, figure,
                    )
                    if variant.flat:
                        flat[variant.name] = outcome
                value, seconds, stats[variant.name] = outcome
                if expected is _UNSET:
                    expected = value
                elif value != expected:
                    raise AssertionError(
                        f"{sweep.figure_id}: variant {variant.name!r} "
                        f"changed the result at x={x!r}"
                    )
                if variant.name in series:
                    series[variant.name].add(x, seconds)
            if sweep.note is not None:
                figure.notes.append(sweep.note(x, stats))
    if sweep.headline:
        add_headline(figure, *sweep.headline)
    return figure
