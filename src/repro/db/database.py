"""The ``Database`` facade: one-stop construction and administration.

Ties together disk, buffer pool, shared-scan manager, catalog and server,
and hands out client connections.  The benchmark harness uses
``flush_cache`` (cold runs), ``bulk_load`` (latency-free table builds)
and ``io_report`` (per-run IO accounting for EXPERIMENTS.md).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..backends.base import Backend, resolve_backend_name
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from .buffer import BufferPool
from .catalog import Catalog
from .disk import SimulatedDisk
from .latency import INSTANT, LatencyMeter, LatencyProfile
from .scans import SharedScanManager
from .server import DatabaseServer
from .storage import DEFAULT_ROWS_PER_PAGE
from .types import schema_of


class Database:
    """An embedded simulated database instance."""

    def __init__(
        self,
        profile: LatencyProfile = INSTANT,
        elevator: bool = True,
    ) -> None:
        self.profile = profile
        self.meter = LatencyMeter()
        self.disk = SimulatedDisk(profile, self.meter, elevator=elevator)
        self.buffer = BufferPool(profile.buffer_pool_pages, self.disk)
        self.scans = SharedScanManager()
        self.catalog = Catalog(self.disk)
        #: Database-wide observability surfaces.  The tracer starts
        #: disabled (``connect(trace=True)`` enables it); the registry
        #: always exists — server and IO stats register as sources up
        #: front, and snapshotting is pull-based, so an unused registry
        #: costs nothing per query.
        self.tracer = Tracer(enabled=False)
        self.metrics = MetricsRegistry()
        self.server = DatabaseServer(
            self.catalog,
            self.buffer,
            self.scans,
            profile,
            self.meter,
            metrics=self.metrics,
        )
        self.metrics.register_source("server", self.server.stats_snapshot)
        self.metrics.register_source(
            "io",
            partial(
                _io_report, self.meter, self.buffer, self.disk, self.scans, self.server
            ),
        )
        #: Backend registry: the in-memory server is the default
        #: (``"memory"``); others are created lazily by :meth:`backend`
        #: and seeded with the catalog's schema, data and indexes.
        self._backends: Dict[str, Backend] = {"memory": self.server}

    # ------------------------------------------------------------------
    # backends
    # ------------------------------------------------------------------
    def backend(self, name: Optional[str] = None) -> Backend:
        """The named statement store (see docs/BACKENDS.md).

        ``None`` defers to the ``REPRO_BACKEND`` environment variable,
        else ``"memory"`` — the in-memory :class:`DatabaseServer` this
        instance was built around.  Other backends (``"sqlite"``) are
        created on first use and seeded with every table, row and index
        the catalog holds at that moment; later tables, indexes and
        bulk loads through this facade reach them too, so the same
        workload can run against either store.
        """
        name = resolve_backend_name(name)
        backend = self._backends.get(name)
        if backend is None:
            backend = self._create_backend(name)
            self._backends[name] = backend
            self.metrics.register_source(
                f"backend.{name}", backend.stats_snapshot
            )
        return backend

    def _create_backend(self, name: str) -> Backend:
        from ..backends.sqlite import SqliteBackend

        assert name == "sqlite", name
        # The store takes this database's latency model: the client
        # charges a round trip from its backend's profile and meter.
        backend = SqliteBackend(self.profile, self.meter)
        for table_name in self.catalog.table_names():
            info = self.catalog.table(table_name)
            heap = info.heap
            backend.mirror_create_table(
                table_name, heap.schema, rows_per_page=heap.rows_per_page
            )
            backend.mirror_load(
                table_name, (row for _row_id, row in heap.iter_rows())
            )
            for index in info.indexes:
                backend.mirror_create_index(
                    index.name, table_name, index.column, unique=index.unique
                )
        return backend

    # ------------------------------------------------------------------
    # schema / loading: the one way a table or an index is made
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        *columns: Tuple[str, str],
        not_null: Optional[Sequence[str]] = None,
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
    ) -> None:
        """Create a table in every live store:
        ``db.create_table("part", ("id", "int"), ...)``.  The catalog
        checks the names (see :class:`~repro.db.catalog.Catalog`)
        before any store changes."""
        schema = schema_of(*columns, not_null=not_null)
        self.catalog.create_table(name, schema, rows_per_page=rows_per_page)
        self.server.invalidate_plans()
        for backend in self._other_backends():
            backend.mirror_create_table(name, schema, rows_per_page=rows_per_page)

    def _other_backends(self):
        """Every live backend except the in-memory server (tables,
        indexes and loads through this facade are mirrored into them)."""
        return [
            backend
            for backend_name, backend in self._backends.items()
            if backend_name != "memory"
        ]

    def create_index(
        self,
        index_name: str,
        table: str,
        column: str,
        unique: bool = False,
    ) -> None:
        """Create an index in every live store, or in none: the catalog
        checks its name and, for a unique one, its own rows first, and
        takes the index only after every other store took it (a store's
        rows may differ — rows written through a sqlite connection never
        reach the in-memory heap)."""
        with self.catalog.index_creation(index_name, table, column, unique):
            for backend in self._other_backends():
                backend.mirror_create_index(index_name, table, column, unique=unique)
        self.server.invalidate_plans()

    def bulk_load(self, table: str, rows: Iterable[Sequence]) -> int:
        """Load rows without charging any simulated latency; returns
        how many.

        Used by data generators: the paper's tables pre-exist; loading
        them is not part of any measured experiment.  A load is atomic:
        every row is coerced and checked against the unique indexes, in
        order, before anything is stored (so it fails where row-by-row
        ``INSERT`` would, with the same error), every other live store
        takes the rows in one transaction, and only then does the heap
        append them — so a load that raises changes no store.  It is
        one write window on the table in every store's ledger, so no
        cached read of the table is served across it.
        """
        info = self.catalog.table(table)
        stores = list(self._backends.values())
        for store in stores:
            store.ledger.begin_write(table)
        stored = False
        try:
            with info.heap.lock.writing():
                loaded = self.catalog.check_load(
                    info, map(info.heap.schema.coerce_row, rows)
                )
                for backend in self._other_backends():
                    backend.mirror_load(table, loaded)
                self.catalog.load(info, loaded)
            stored = True
        finally:
            for store in stores:
                store.ledger.end_write(table, stored)
        return len(loaded)

    # ------------------------------------------------------------------
    # cache control (warm / cold experiments)
    # ------------------------------------------------------------------
    def flush_cache(self) -> None:
        """Empty the buffer pool: the next run behaves cold."""
        self.buffer.clear()

    def warm_table(self, table: str) -> None:
        """Mark all pages of ``table`` resident (warm-cache setup)."""
        info = self.catalog.table(table)
        self.buffer.warm(table, info.heap.page_count)
        for index in info.indexes:
            self.buffer.warm(index.io_name, index.page_count)

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    def connect(
        self,
        async_workers: int = 10,
        result_cache=None,
        coalesce: bool = False,
        coalesce_window=None,
        trace: bool = False,
        metrics=None,
        backend: Optional[str] = None,
    ):
        """Open a client connection (imported lazily to avoid a cycle).

        ``result_cache`` attaches a shared
        :class:`repro.prefetch.cache.ResultCache`; pass the same
        instance to several connections (or to
        :func:`repro.runtime.aio.aio_connect`) to share hits across
        requests and runtimes.  Nothing is registered anywhere: every
        cached read is validated against the backend's write-epoch
        ledger at lookup, so a write through *any* connection — cached,
        cache-less, or transactional (at commit) — is seen by the next
        read of that table.  ``coalesce`` enables set-oriented dispatch (merge
        same-statement submits queued behind the executor into one
        batched server call); ``coalesce_window`` caps the batch size.

        ``trace=True`` enables the database-wide :attr:`tracer` and
        attaches it, so every request through this connection records a
        span tree.  ``metrics`` attaches a
        :class:`~repro.obs.metrics.MetricsRegistry` for per-query
        latency histograms: pass ``True`` for the database-wide
        :attr:`metrics` registry, or a registry instance (benchmarks
        keep a private one per measured variant).  Both default to off
        — the hot path then pays a single ``None`` test.

        ``backend`` picks the statement store behind the connection:
        ``"memory"`` (the simulated in-memory server — the default) or
        ``"sqlite"`` (stdlib ``sqlite3`` behind the same interface; see
        docs/BACKENDS.md).  ``None`` defers to the ``REPRO_BACKEND``
        environment variable, else memory.  Cache, coalescing,
        speculation, tracing and metrics work identically on either.
        """
        from ..client.connection import Connection

        tracer = None
        if trace:
            self.tracer.enable()
            tracer = self.tracer
        if metrics is True:
            metrics = self.metrics
        return Connection(
            self.backend(backend),
            async_workers=async_workers,
            result_cache=result_cache,
            coalesce=coalesce,
            coalesce_window=coalesce_window,
            tracer=tracer,
            metrics=metrics,
        )

    # ------------------------------------------------------------------
    # administration
    # ------------------------------------------------------------------
    def explain(self, sql: str) -> str:
        """Describe how a SELECT/UPDATE/DELETE would be executed.

        Returns the chosen access path name (``SeqScanOp`` or
        ``HashEqOp``) — the cost-relevant planning decision; useful when
        tuning workload schemas for the benchmarks.
        """
        prepared = self.server.prepare(sql)
        access = getattr(prepared.plan, "access_path", "n/a")
        return f"{type(prepared.plan).__name__}: {access}"

    def reset_stats(self) -> None:
        self.meter.reset()
        self.disk.reset_stats()
        self.buffer.reset_stats()
        self.scans.reset_stats()

    def io_report(self) -> dict:
        """Aggregate IO/latency counters for benchmark reporting."""
        return _io_report(self.meter, self.buffer, self.disk, self.scans, self.server)

    def stats_snapshot(self) -> dict:
        """One nested plain dict covering the whole instance: the
        database-wide :attr:`metrics` registry's snapshot (which pulls
        the server and IO sources, plus anything connections with
        ``metrics=True`` registered).  JSON-ready; the ``repro stats``
        command prints exactly this."""
        return self.metrics.snapshot()

    def close(self) -> None:
        for backend in self._backends.values():
            backend.shutdown()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _io_report(meter, buffer, disk, scans, server) -> dict:
    """:meth:`Database.io_report` over the instance's parts: the metrics
    source it registers holds these, not the instance, so a dropped
    database is freed at once, not by the cycle collector."""
    return {
        "latency_totals_s": meter.totals(),
        "buffer": {
            "hits": buffer.stats.hits,
            "misses": buffer.stats.misses,
            "hit_ratio": buffer.stats.hit_ratio,
        },
        "disk": {
            "reads": disk.stats.reads,
            "sequential": disk.stats.sequential_reads,
            "random": disk.stats.random_reads,
            "max_queue_depth": disk.stats.max_queue_depth,
        },
        "scans": {
            "led": scans.stats.led,
            "shared": scans.stats.shared,
            "solo": scans.stats.solo,
        },
        "server": {
            "executed": server.stats.statements_executed,
            "writes": server.stats.writes_executed,
            "peak_concurrency": server.stats.peak_concurrency,
        },
    }
