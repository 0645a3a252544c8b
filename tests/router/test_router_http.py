"""Router HTTP surface: 503/429 semantics, aggregation, drain, metrics."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.exceptions import ServingError
from repro.router import create_router
from repro.serve import ServingClient


def post_json(url: str, body: dict):
    """``(status, headers, payload)`` of one POST, errors included."""
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


class _Always429Handler(BaseHTTPRequestHandler):
    """A stub replica: healthy, but sheds every predict with 429."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002
        pass

    def _reply(self, status, payload, headers=()):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in headers:
            self.send_header(key, value)
        if status >= 400:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path.rstrip("/") == "/healthz":
            self._reply(200, {"status": "ok"})
        elif self.path.rstrip("/") == "/v1/models":
            self._reply(200, {"models": [{"name": "busy", "n_features": 3}]})
        else:
            self._reply(404, {"error": "nope"})

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self._reply(
            429,
            {"error": "shedding", "retry_after_s": 0.25},
            headers=[("Retry-After", "1")],
        )


@pytest.fixture
def shedding_replica():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Always429Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


def test_no_healthy_replica_is_503_with_retry_after():
    # Port 1 refuses connections, so the synchronous first sweep marks the
    # only replica down and the ring starts empty.
    server = create_router(
        ["http://127.0.0.1:1"], port=0, health_interval_s=0.5, down_after=1
    )
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        status, headers, payload = post_json(
            f"{server.url}/v1/models/demo:predict", {"rows": [[1.0, 2.0, 3.0]]}
        )
        assert status == 503
        assert "no replica is in service" in payload["error"]
        assert payload["retry_after_s"] == pytest.approx(0.5)
        assert int(headers["Retry-After"]) >= 1
        # The aggregated listing degrades the same way.
        with pytest.raises(ServingError) as listing:
            ServingClient(server.url).models()
        assert listing.value.status == 503
        health = ServingClient(server.url).health()
        assert health["status"] == "degraded"
        assert health["ring_size"] == 0
    finally:
        server.close()


def test_upstream_429_propagates_with_its_retry_hint(shedding_replica):
    server = create_router([shedding_replica], port=0, health_interval_s=0.5)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        status, headers, payload = post_json(
            f"{server.url}/v1/models/busy:predict", {"rows": [[1.0, 2.0, 3.0]]}
        )
        assert status == 429
        assert payload["retry_after_s"] == pytest.approx(0.25)
        assert headers["Retry-After"] == "1"
        snapshot = ServingClient(server.url).metrics()
        assert snapshot["upstream_429"] == 1
        assert snapshot["errors"] == {"429": 1}
    finally:
        server.close()


def test_models_aggregates_across_replicas(router_server):
    client = ServingClient(router_server.url)
    names = [info.name for info in client.models()]
    assert names == ["forest", "tree"]  # deduplicated across both replicas
    info = client.model("forest")
    assert info.model_kind == "forest"
    assert info.n_trees == 6


def test_healthz_and_admin_replicas_report_topology(router_server, replica_servers):
    health = ServingClient(router_server.url).health()
    assert health["status"] == "ok"
    assert health["ring_size"] == 2
    admin = json.loads(
        urllib.request.urlopen(f"{router_server.url}/admin/replicas", timeout=10).read()
    )
    described = {entry["url"]: entry for entry in admin["replicas"]}
    assert set(described) == {replica.url for replica in replica_servers}
    assert all(entry["healthy"] for entry in described.values())
    assert all(entry["in_ring"] for entry in described.values())
    assert all(entry["inflight"] == 0 for entry in described.values())


def test_drain_endpoint_removes_then_undrain_restores(router_server, replica_servers):
    target = replica_servers[0].url
    status, _, payload = post_json(
        f"{router_server.url}/admin/drain", {"replica": target, "timeout_s": 5}
    )
    assert status == 200
    assert payload["drained"] is True
    assert payload["inflight"] == 0
    assert router_server.router.describe()["ring_members"] == [replica_servers[1].url]

    status, _, payload = post_json(
        f"{router_server.url}/admin/undrain", {"replica": target}
    )
    assert status == 200
    assert payload["in_service"] is True
    assert set(router_server.router.describe()["ring_members"]) == {
        replica.url for replica in replica_servers
    }


def test_drain_validation(router_server):
    status, _, payload = post_json(f"{router_server.url}/admin/drain", {})
    assert status == 400
    status, _, payload = post_json(
        f"{router_server.url}/admin/drain", {"replica": "http://unknown:1"}
    )
    assert status == 404
    assert "unknown replica" in payload["error"]
    status, _, _ = post_json(
        f"{router_server.url}/admin/drain", {"replica": "x", "timeout_s": -1}
    )
    assert status == 400


def test_metrics_families_and_content_negotiation(router_server, router_rows):
    client = ServingClient(router_server.url)
    client.predict("forest", router_rows)
    client.predict("tree", router_rows[:3])
    snapshot = client.metrics()
    assert snapshot["ring_size"] == 2
    assert set(snapshot["replicas"].values()) == {1}
    assert sum(snapshot["routed"].values()) >= 3  # 2 fan-out shards + 1 tree
    assert snapshot["fanout"]["requests"] == 1
    assert snapshot["fanout"]["shards"] == 2
    assert snapshot["latency_ms"]["count"] == 2
    text = client.metrics_text()
    for family in (
        "repro_router_replica_up",
        "repro_router_ring_size",
        "repro_router_routed_total",
        "repro_router_retries_total",
        "repro_router_fanout_total",
        "repro_router_unavailable_total",
        "repro_router_upstream_429_total",
        "repro_router_request_latency_seconds_bucket",
    ):
        assert f"\n{family}" in text or text.startswith(family), family
    assert 'repro_router_request_latency_seconds_bucket{model="forest",le="+Inf"} 1' in text


def test_unknown_paths_are_404(router_server):
    with pytest.raises(ServingError) as error:
        ServingClient(router_server.url).request_json("/v1/oops")
    assert error.value.status == 404
    status, _, _ = post_json(f"{router_server.url}/v1/oops", {"x": 1})
    assert status == 404


def test_simultaneous_connects_are_answered(router_server, router_rows):
    # More simultaneous connects than socketserver's default backlog of 5:
    # each gets an answer (200, or a propagated 429), never a reset.
    n_clients = 48
    barrier = threading.Barrier(n_clients)

    def one_client(index: int):
        barrier.wait()
        row = router_rows[index % len(router_rows)].tolist()
        try:
            status, _, _ = post_json(
                f"{router_server.url}/v1/models/tree:predict", {"rows": [row]}
            )
        except OSError as exc:
            return exc
        return status

    with ThreadPoolExecutor(max_workers=n_clients) as pool:
        for _ in range(2):
            outcomes = list(pool.map(one_client, range(n_clients)))
            assert all(outcome in (200, 429) for outcome in outcomes), outcomes
