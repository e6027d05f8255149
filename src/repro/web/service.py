"""An in-process entity-graph web service with HTTP-like latency.

Stands in for the Freebase API of the paper's Experiment 5: entities
(directors, actors, movies) connected by typed edges, queried one HTTP
request at a time — no joins, no set-oriented API, which is exactly why
the paper's loop transformations matter for such services.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..db.latency import LatencyMeter, precise_sleep


class WebServiceError(Exception):
    """Base error for the simulated web service."""


class UnknownEntityError(WebServiceError):
    def __init__(self, entity_id: str) -> None:
        super().__init__(f"unknown entity: {entity_id!r}")
        self.entity_id = entity_id


@dataclass(frozen=True)
class WebLatency:
    """Latency knobs for the simulated service.

    Internet round trips are an order of magnitude above LAN ones;
    ``server_workers`` models the provider's per-client concurrency
    allowance.
    """

    name: str = "freebase-sim"
    request_rtt_s: float = 2000e-6
    send_overhead_s: float = 10e-6
    service_time_s: float = 300e-6
    server_workers: int = 12

    def scaled(self, factor: float) -> "WebLatency":
        return WebLatency(
            name=f"{self.name}x{factor:g}",
            request_rtt_s=self.request_rtt_s * factor,
            send_overhead_s=self.send_overhead_s * factor,
            service_time_s=self.service_time_s * factor,
            server_workers=self.server_workers,
        )


INSTANT_WEB = WebLatency(
    name="instant-web",
    request_rtt_s=0.0,
    send_overhead_s=0.0,
    service_time_s=0.0,
    server_workers=8,
)


@dataclass
class Entity:
    entity_id: str
    entity_type: str
    name: str
    properties: Dict[str, Any] = field(default_factory=dict)
    edges: Dict[str, List[str]] = field(default_factory=dict)


@dataclass
class WebServiceStats:
    requests: int = 0
    peak_concurrency: int = 0


class EntityGraphService:
    """The server side: an entity graph behind an admission gate.

    A request runs in the caller's thread (a client executor's worker)
    while it holds one of ``latency.server_workers`` slots; callers
    beyond that wait for a slot, as the backends' admission gate makes
    them — the service owns no threads.
    """

    def __init__(
        self,
        latency: WebLatency = INSTANT_WEB,
        meter: Optional[LatencyMeter] = None,
    ) -> None:
        self.latency = latency
        self.meter = meter or LatencyMeter()
        self._entities: Dict[str, Entity] = {}
        self._by_type: Dict[str, List[str]] = {}
        self._gate: "queue.SimpleQueue[None]" = queue.SimpleQueue()
        for _ in range(latency.server_workers):
            self._gate.put(None)
        self._lock = threading.Lock()
        self._active = 0
        self._shutdown = False
        self.stats = WebServiceStats()

    # ------------------------------------------------------------------
    # graph construction (no latency: data pre-exists)
    # ------------------------------------------------------------------
    def add_entity(
        self,
        entity_id: str,
        entity_type: str,
        name: str,
        **properties: Any,
    ) -> Entity:
        entity = Entity(entity_id, entity_type, name, dict(properties))
        with self._lock:
            self._entities[entity_id] = entity
            self._by_type.setdefault(entity_type, []).append(entity_id)
        return entity

    def add_edge(self, source_id: str, relation: str, target_id: str) -> None:
        with self._lock:
            source = self._entities[source_id]
            source.edges.setdefault(relation, []).append(target_id)

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def request(self, endpoint: str, *args: Any) -> Any:
        """Serve one API request in the calling thread, under one of the
        gate's slots."""
        self._gate.get()
        try:
            if self._shutdown:
                raise WebServiceError("service is shut down")
            return self._handle(endpoint, args)
        finally:
            self._gate.put(None)

    def _handle(self, endpoint: str, args: tuple) -> Any:
        with self._lock:
            self._active += 1
            self.stats.requests += 1
            if self._active > self.stats.peak_concurrency:
                self.stats.peak_concurrency = self._active
        try:
            self.meter.charge("cpu", self.latency.service_time_s)
            if endpoint == "get_entity":
                return self._get_entity(*args)
            if endpoint == "related":
                return self._related(*args)
            if endpoint == "list_type":
                return self._list_type(*args)
            if endpoint == "search":
                return self._search(*args)
            raise WebServiceError(f"unknown endpoint: {endpoint!r}")
        finally:
            with self._lock:
                self._active -= 1

    # -- endpoints ------------------------------------------------------
    def _get_entity(self, entity_id: str) -> dict:
        with self._lock:
            entity = self._entities.get(entity_id)
        if entity is None:
            raise UnknownEntityError(entity_id)
        return {
            "id": entity.entity_id,
            "type": entity.entity_type,
            "name": entity.name,
            "properties": dict(entity.properties),
            "edges": {rel: list(ids) for rel, ids in entity.edges.items()},
        }

    def _related(self, entity_id: str, relation: str) -> List[str]:
        with self._lock:
            entity = self._entities.get(entity_id)
            if entity is None:
                raise UnknownEntityError(entity_id)
            return list(entity.edges.get(relation, ()))

    def _list_type(self, entity_type: str) -> List[str]:
        with self._lock:
            return list(self._by_type.get(entity_type, ()))

    def _search(self, entity_type: str, prop: str, value: Any) -> List[str]:
        with self._lock:
            candidates = [
                self._entities[eid] for eid in self._by_type.get(entity_type, ())
            ]
        return [
            entity.entity_id
            for entity in candidates
            if entity.properties.get(prop) == value
        ]

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Refuse every later request."""
        self._shutdown = True
