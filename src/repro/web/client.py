"""Web-service client with blocking and non-blocking call styles.

``call`` is the blocking HTTP request of the original program;
``submit_call``/``fetch_result`` are the asynchronous pair the
transformed program uses.  The default transformation registry maps one
to the other (see :mod:`repro.transform.registry`).

The submit/fetch lifecycle is the shared
:class:`repro.core.submission.CallPipeline` — the transport-agnostic
half of the database client's submission pipeline — fed HTTP-shaped
:class:`~repro.core.calls.Request` records, so the web client carries
no duplicated dispatch or stats logic, and can optionally attach a
:class:`~repro.prefetch.cache.ResultCache` keyed by
``(endpoint, args)``.  The entity-graph service is read-only, so cached
web responses only go stale through TTL expiry (set ``ttl_s`` on the
cache) or explicit invalidation.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.submission import CallPipeline, Request, SubmissionStats
from ..prefetch.cache import ResultCache
from ..runtime.executor import AsyncExecutor
from ..runtime.handles import QueryHandle
from .service import EntityGraphService

#: Backwards-compatible name: web-client stats are the pipeline's stats.
WebClientStats = SubmissionStats


class _WebRequest(Request):
    """One ``endpoint(*args)`` call on its way to ``service`` — no write
    ledger, so no ticket and nothing that lapses at publication; the
    key is ``(endpoint, args)`` when a cache is attached and the
    arguments can be hashed."""

    __slots__ = ("service", "endpoint", "args")

    def __init__(self, service, endpoint: str, args: tuple, cached: bool) -> None:
        Request.__init__(self, label=endpoint)
        self.service = service
        self.endpoint = endpoint
        self.args = args
        if cached:
            try:
                hash(args)
            except TypeError:
                return
            self.key = (endpoint, args)

    def round_trip(self) -> Any:
        service = self.service
        service.meter.charge("network", service.latency.request_rtt_s)
        return service.request(self.endpoint, *self.args)

    def charge(self) -> None:
        service = self.service
        service.meter.charge("queue", service.latency.send_overhead_s)


class WebServiceClient:
    """Client for :class:`EntityGraphService` with async submission."""

    def __init__(
        self,
        service: EntityGraphService,
        async_workers: int = 10,
        result_cache: Optional[ResultCache] = None,
    ) -> None:
        self._service = service
        self._executor = AsyncExecutor(async_workers, name="web-async")
        self._pipeline = CallPipeline(self._executor, cache=result_cache)

    @property
    def async_workers(self) -> int:
        return self._executor.workers

    def set_async_workers(self, workers: int) -> None:
        self._executor.resize(workers)

    @property
    def stats(self) -> SubmissionStats:
        return self._pipeline.stats

    @property
    def result_cache(self) -> Optional[ResultCache]:
        return self._pipeline.cache

    # ------------------------------------------------------------------
    # blocking API
    # ------------------------------------------------------------------
    def call(self, endpoint: str, *args: Any) -> Any:
        """One blocking HTTP request: full round trip in this thread
        (or no round trip at all, on a cache hit)."""
        return self._pipeline.call(self._request(endpoint, args))

    # convenience wrappers used by the workloads -----------------------
    def get_entity(self, entity_id: str) -> dict:
        return self.call("get_entity", entity_id)

    def related(self, entity_id: str, relation: str) -> list:
        return self.call("related", entity_id, relation)

    def list_type(self, entity_type: str) -> list:
        return self.call("list_type", entity_type)

    # ------------------------------------------------------------------
    # non-blocking API
    # ------------------------------------------------------------------
    def submit_call(self, endpoint: str, *args: Any) -> QueryHandle:
        """Non-blocking request submission; the round trip is paid by an
        async worker thread."""
        return self._pipeline.dispatch(self._request(endpoint, args))

    def submit_get_entity(self, entity_id: str) -> QueryHandle:
        return self.submit_call("get_entity", entity_id)

    def submit_related(self, entity_id: str, relation: str) -> QueryHandle:
        return self.submit_call("related", entity_id, relation)

    def submit_list_type(self, entity_type: str) -> QueryHandle:
        return self.submit_call("list_type", entity_type)

    def fetch_result(self, handle: QueryHandle) -> Any:
        return self._pipeline.fetch(handle)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _request(self, endpoint: str, args: tuple) -> _WebRequest:
        return _WebRequest(
            self._service, endpoint, args, self._pipeline.cache is not None
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._executor.close()

    def __enter__(self) -> "WebServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
