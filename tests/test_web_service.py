"""Unit tests: simulated web service and its client."""

import time

import pytest

from repro.web.client import WebServiceClient
from repro.web.service import (
    INSTANT_WEB,
    EntityGraphService,
    UnknownEntityError,
    WebLatency,
    WebServiceError,
)


@pytest.fixture
def service():
    svc = EntityGraphService(INSTANT_WEB)
    svc.add_entity("d1", "director", "Director One", oscars=2)
    svc.add_entity("a1", "actor", "Actor One", age=44)
    svc.add_entity("m1", "movie", "Movie One", year=1999)
    svc.add_edge("d1", "worked_with", "a1")
    svc.add_edge("a1", "acted_in", "m1")
    yield svc
    svc.shutdown()


class TestService:
    def test_get_entity(self, service):
        entity = service.request("get_entity", "a1")
        assert entity["name"] == "Actor One"
        assert entity["properties"]["age"] == 44
        assert entity["edges"]["acted_in"] == ["m1"]

    def test_related(self, service):
        assert service.request("related", "d1", "worked_with") == ["a1"]
        assert service.request("related", "a1", "nothing") == []

    def test_list_type(self, service):
        assert service.request("list_type", "movie") == ["m1"]

    def test_search(self, service):
        assert service.request("search", "actor", "age", 44) == ["a1"]
        assert service.request("search", "actor", "age", 1) == []

    def test_unknown_entity(self, service):
        with pytest.raises(UnknownEntityError):
            service.request("get_entity", "nope")

    def test_unknown_endpoint(self, service):
        with pytest.raises(WebServiceError):
            service.request("bogus")

    def test_shutdown_rejects(self, service):
        service.shutdown()
        with pytest.raises(WebServiceError):
            service.request("get_entity", "a1")

    def test_request_counter(self, service):
        service.request("get_entity", "a1")
        service.request("get_entity", "d1")
        assert service.stats.requests == 2

    def test_entity_snapshot_is_isolated(self, service):
        entity = service.request("get_entity", "a1")
        entity["edges"]["acted_in"].append("tampered")
        fresh = service.request("get_entity", "a1")
        assert fresh["edges"]["acted_in"] == ["m1"]

    def test_the_gate_bounds_concurrent_requests(self):
        """Requests run in the callers' threads, at most
        ``server_workers`` at a time; the rest wait for a slot."""
        latency = WebLatency(
            request_rtt_s=0.0, send_overhead_s=0.0, service_time_s=0.02,
            server_workers=2,
        )
        service = EntityGraphService(latency)
        service.add_entity("a1", "actor", "Actor One")
        try:
            with WebServiceClient(service, async_workers=6) as client:
                started = time.perf_counter()
                handles = [client.submit_get_entity("a1") for _ in range(8)]
                assert all(client.fetch_result(h)["id"] == "a1" for h in handles)
                elapsed = time.perf_counter() - started
        finally:
            service.shutdown()
        assert service.stats.peak_concurrency == 2
        assert elapsed >= 8 / 2 * 0.02 * 0.9


class TestWebClient:
    def test_blocking_wrappers(self, service):
        client = WebServiceClient(service, async_workers=2)
        assert client.get_entity("m1")["properties"]["year"] == 1999
        assert client.related("d1", "worked_with") == ["a1"]
        assert client.list_type("actor") == ["a1"]
        assert client.stats.blocking_calls == 3
        client.close()

    def test_async_pairs(self, service):
        client = WebServiceClient(service, async_workers=2)
        handles = [
            client.submit_get_entity("a1"),
            client.submit_related("d1", "worked_with"),
            client.submit_list_type("movie"),
            client.submit_call("search", "actor", "age", 44),
        ]
        results = [client.fetch_result(h) for h in handles]
        assert results[0]["name"] == "Actor One"
        assert results[1] == ["a1"]
        assert results[2] == ["m1"]
        assert results[3] == ["a1"]
        assert client.stats.async_submits == 4
        client.close()

    def test_async_error_at_fetch(self, service):
        client = WebServiceClient(service, async_workers=1)
        handle = client.submit_get_entity("missing")
        with pytest.raises(UnknownEntityError):
            client.fetch_result(handle)
        client.close()

    def test_resize(self, service):
        client = WebServiceClient(service, async_workers=1)
        client.set_async_workers(4)
        assert client.async_workers == 4
        client.close()

    def test_context_manager(self, service):
        with WebServiceClient(service) as client:
            assert client.get_entity("d1")["properties"]["oscars"] == 2


class TestLatencyScaling:
    def test_scaled(self):
        latency = WebLatency().scaled(0.5)
        assert latency.request_rtt_s == pytest.approx(2000e-6 * 0.5)
        assert latency.server_workers == WebLatency().server_workers
