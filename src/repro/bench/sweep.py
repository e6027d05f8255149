"""The one sweep skeleton behind every timing figure.

The paper's evaluation is one experiment repeated: build a workload
store, walk a grid of iterations or threads, run the original kernel and
the ``asyncify``-ed kernel warm or cold, check they agree, plot seconds.
:func:`run_sweep` is that experiment; a :class:`Sweep` describes one
figure's store, inputs, grid and :class:`Variant` list
(:mod:`repro.bench.figures` holds the descriptions).  Only the skeleton
opens and closes stores and connections.
"""

from __future__ import annotations

import operator
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
    a variant's kernel before the sweep starts; one wrapped in another
    callable builds in that variant's warm-up run."""

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
    paper draws it); ``plot=(series, offset)`` plots into a shared series
    at ``x + offset``.
    """

    name: str
    kernel: Callable[..., Any]
    threads: Union[int, str, None] = None
    cache: Optional[str] = "warm"
    connect: Mapping[str, Any] = field(default_factory=dict)
    points: Optional[slice] = None
    flat: bool = False
    plot: Optional[Tuple[str, float]] = None


def _db_connect(db, workers, **kwargs):
    return db.connect(async_workers=workers, **kwargs)


@dataclass(frozen=True)
class Sweep:
    """One figure: a store, an input maker, a grid and its variants.

    ``title`` is formatted with ``{profile}``, ``{threads}``, ``{size}``.
    ``build(profile, size, x) -> store`` (``x`` is None unless
    ``fresh_store``, which builds a new store for every measured run);
    ``inputs(store, x, size) -> tuple`` makes the kernel arguments, which
    kernels only read.  ``size`` is the figure's one scale number: the
    dataset size where the builder takes one, else the iterations behind
    every grid point; ``full_grid``/``full_size`` replace ``grid``/
    ``size`` under ``REPRO_BENCH_FULL``.  Every variant must return the
    value of ``oracle`` (an unplotted blocking kernel) or, without one,
    of the first variant; ``observe(store)`` adds the state a run left
    behind to that value.  ``latencies`` attaches a ``MetricsRegistry``
    per variant and absorbs its histograms.  ``headline=(improved,
    *bases)`` adds the speed-up note at the top of the grid,
    ``note(x, stats)`` one note per point from ``{variant:
    connection.stats_snapshot()}`` taken after close, and
    ``epilogue(figure, store=, grid=, threads=, profile=, size=)`` runs
    while the sweep-wide store is still open.
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
    fresh_store: bool = False
    observe: Optional[Callable[[Any], Any]] = None
    latencies: bool = False
    headline: Tuple[str, ...] = ()
    note: Optional[Callable[[Any, Dict[str, dict]], str]] = None
    epilogue: Optional[Callable[..., None]] = None
    open: Callable[..., Any] = _db_connect
    close: Callable[[Any], None] = operator.methodcaller("close")


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
        connection = sweep.open(store, workers, **kwargs)
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
    if sweep.observe is not None:
        value = (value, sweep.observe(store))
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
    if grid is None:
        grid = sweep.full_grid if full and sweep.full_grid else sweep.grid
    if size is None:
        size = sweep.full_size if full and sweep.full_size else sweep.size
    grid = tuple(grid)
    threads = sweep.threads if threads is None else threads
    profile = sweep.profile if profile is None else profile
    if bench_scale() != 1.0:
        profile = profile.scaled(bench_scale())
    figure = FigureData(
        figure_id=sweep.figure_id,
        title=sweep.title.format(profile=profile.name, threads=threads, size=size),
        x_label=sweep.x_label,
        paper_reference=sweep.paper_reference,
    )
    series = {}
    for variant in sweep.variants:
        name = variant.plot[0] if variant.plot else variant.name
        series[variant.name] = figure._series(name) or figure.new_series(name)
        if isinstance(variant.kernel, Transformed):
            variant.kernel.build()  # off the clock
    variants = tuple(sweep.variants)
    if sweep.oracle is not None:
        variants = (Variant("oracle", sweep.oracle, threads=1, cache=None),) + variants
    flat: Dict[str, tuple] = {}
    shared = None if sweep.fresh_store else sweep.build(profile, size, None)
    try:
        for x in grid:
            expected = _UNSET
            stats = {}
            args = None if shared is None else sweep.inputs(shared, x, size)
            for variant in variants:
                if variant.points is not None and x not in grid[variant.points]:
                    continue
                if variant.name in flat:
                    outcome = flat[variant.name]
                else:
                    store = shared
                    if store is None:
                        store = sweep.build(profile, size, x)
                    try:
                        workers = variant.threads or threads
                        outcome = _run_variant(
                            sweep, variant, store,
                            sweep.inputs(store, x, size) if args is None else args,
                            x if workers == X else workers, figure,
                        )
                    finally:
                        if shared is None:
                            sweep.close(store)
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
                    offset = variant.plot[1] if variant.plot else 0
                    series[variant.name].add(x + offset, seconds)
            if sweep.note is not None:
                figure.notes.append(sweep.note(x, stats))
        if sweep.headline:
            improved, *bases = sweep.headline
            gains = [figure.speedup(base, improved, max(grid)) for base in bases]
            if all(gains):
                figure.notes.append(
                    f"speedup at {max(grid)} {sweep.x_label}: "
                    + ", ".join(
                        f"{gain:.2f}x over {base}" for gain, base in zip(gains, bases)
                    )
                )
        if sweep.epilogue is not None:
            sweep.epilogue(
                figure, store=shared, grid=grid, threads=threads,
                profile=profile, size=size,
            )
    finally:
        if shared is not None:
            sweep.close(shared)
    return figure
