"""Tests for the stdlib HTTP front-end and its :class:`ServingClient`.

Each test spins up a real :class:`~repro.serve.http.ServingHTTPServer` on an
ephemeral port and talks to it over actual sockets — the same path the CLI,
the benchmark driver and the CI smoke job take.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import __version__
from repro.exceptions import ServingError
from repro.serve import ServingClient, create_server


@pytest.fixture
def server(model_dir):
    server = create_server(model_dir, port=0, max_batch=16, max_wait_ms=1.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.close()
    thread.join(timeout=5.0)


@pytest.fixture
def client(server):
    return ServingClient(server.url)


def _raw_post(url: str, data: bytes, content_type: str = "application/json"):
    """POST raw bytes, returning ``(status, payload)`` without raising."""
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": content_type}
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestInfoEndpoints:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["models"] == 1
        assert health["version"] == __version__

    def test_models_listing(self, client):
        models = client.models()
        assert [entry["name"] for entry in models] == ["demo"]
        assert models[0]["n_features"] == 3
        assert models[0]["class_labels"] == ["neg", "pos"]

    def test_single_model_metadata(self, client):
        meta = client.model("demo")
        assert meta["name"] == "demo"
        assert meta["estimator_class"] == "UDTClassifier"

    def test_unknown_model_metadata_is_404(self, client):
        with pytest.raises(ServingError) as excinfo:
            client.model("missing")
        assert excinfo.value.status == 404

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServingError) as excinfo:
            ServingClient(client.base_url)._request("/v2/nope")
        assert excinfo.value.status == 404


class TestPredict:
    def test_predict_matches_offline(self, client, offline_model, serving_rows):
        result = client.predict("demo", serving_rows)
        expected = offline_model.predict_proba(serving_rows)
        assert result.model == "demo"
        assert result.classes == ["neg", "pos"]
        # Bit-identical through JSON: floats serialise via shortest
        # round-trippable repr, so the doubles survive exactly.
        assert np.array_equal(result.probabilities, expected)
        assert result.labels == list(offline_model.predict(serving_rows))

    def test_single_flat_row(self, client, serving_rows):
        result = client.predict("demo", serving_rows[0])
        assert result.probabilities.shape == (1, 2)
        assert len(result.labels) == 1

    def test_proba_false_omits_probabilities(self, client, serving_rows):
        result = client.predict("demo", serving_rows[:2], proba=False)
        assert result.probabilities is None
        assert len(result.labels) == 2

    def test_predict_unknown_model_is_404(self, client, serving_rows):
        with pytest.raises(ServingError) as excinfo:
            client.predict("missing", serving_rows[:1])
        assert excinfo.value.status == 404


class TestMalformedRequests:
    def test_empty_body(self, server):
        status, payload = _raw_post(f"{server.url}/v1/models/demo:predict", b"")
        assert status == 400
        assert "empty" in payload["error"]

    def test_invalid_json(self, server):
        status, payload = _raw_post(f"{server.url}/v1/models/demo:predict", b"{nope")
        assert status == 400
        assert "JSON" in payload["error"]

    def test_non_object_body(self, server):
        status, payload = _raw_post(f"{server.url}/v1/models/demo:predict", b"[1, 2]")
        assert status == 400
        assert "object" in payload["error"]

    def test_missing_rows_field(self, server):
        status, payload = _raw_post(
            f"{server.url}/v1/models/demo:predict", b'{"data": [[1, 2, 3]]}'
        )
        assert status == 400
        assert "rows" in payload["error"]

    def test_rows_not_a_list(self, server):
        status, _ = _raw_post(
            f"{server.url}/v1/models/demo:predict", b'{"rows": "abc"}'
        )
        assert status == 400

    def test_non_numeric_rows(self, server):
        status, _ = _raw_post(
            f"{server.url}/v1/models/demo:predict", b'{"rows": [["a", "b", "c"]]}'
        )
        assert status == 400

    def test_wrong_feature_count(self, server):
        status, payload = _raw_post(
            f"{server.url}/v1/models/demo:predict", b'{"rows": [[1.0, 2.0]]}'
        )
        assert status == 400
        assert "features" in payload["error"]

    def test_non_boolean_proba(self, server):
        status, _ = _raw_post(
            f"{server.url}/v1/models/demo:predict",
            b'{"rows": [[0.0, 0.0, 0.0]], "proba": "yes"}',
        )
        assert status == 400

    def test_error_responses_close_the_connection(self, server):
        # Error paths can respond before draining the body; the server must
        # not reuse the connection (the leftover bytes would be parsed as the
        # next request line under HTTP/1.1 keep-alive).
        import http.client

        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            connection.request(
                "POST", "/v1/unknown", body=b'{"rows": [[1, 2, 3]]}',
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_errors_are_counted_in_metrics(self, server, client):
        _raw_post(f"{server.url}/v1/models/demo:predict", b"")
        with pytest.raises(ServingError):
            client.model("missing")
        metrics = client.metrics()
        assert metrics["errors"].get("400", 0) >= 1
        assert metrics["errors"].get("404", 0) >= 1

    def test_error_is_counted_before_the_client_reads_it(self, server, client, monkeypatch):
        # A slow counter must delay the error response, not the count: a
        # client that has read its 404 finds it in the very next scrape.
        record_error = server.metrics.record_error

        def slow_record_error(status):
            time.sleep(0.3)
            record_error(status)

        monkeypatch.setattr(server.metrics, "record_error", slow_record_error)
        with pytest.raises(ServingError) as excinfo:
            client.model("missing")
        assert excinfo.value.status == 404
        assert client.metrics()["errors"] == {"404": 1}


class TestMetrics:
    def test_flat_row_counts_as_one_row(self, server, client):
        # A flat single-row payload is one served row, not n_features rows.
        status, payload = _raw_post(
            f"{server.url}/v1/models/demo:predict", b'{"rows": [0.5, -0.2, 1.0]}'
        )
        assert status == 200
        assert len(payload["labels"]) == 1
        assert client.metrics()["rows_total"] == 1

    def test_metrics_fields_after_traffic(self, client, serving_rows):
        client.predict("demo", serving_rows[:4])
        client.predict("demo", serving_rows[:4])
        metrics = client.metrics()
        assert metrics["predict_requests"] == 2
        assert metrics["rows_total"] == 8
        assert metrics["batch_count"] >= 1
        assert sum(metrics["batch_size_histogram"].values()) == metrics["batch_count"]
        # The repeated rows hit the engine's LRU cache on the second call.
        assert metrics["cache"]["hits"] == 4
        assert metrics["cache"]["hit_rate"] == pytest.approx(0.5)
        latency = metrics["latency_ms"]
        assert latency["count"] == 2
        assert 0.0 <= latency["p50"] <= latency["p99"]


class TestTransport:
    def test_simultaneous_connects_are_answered(self, server, serving_rows):
        # A burst of connects larger than socketserver's default backlog of 5
        # must still reach the handler: every client gets a 200 or a 429
        # from admission control, never a reset connection.
        n_clients = 48
        url = f"{server.url}/v1/models/demo:predict"
        barrier = threading.Barrier(n_clients)

        def one_client(index: int):
            barrier.wait()
            row = serving_rows[index % len(serving_rows)].tolist()
            try:
                status, _ = _raw_post(url, json.dumps({"rows": [row]}).encode("utf-8"))
            except OSError as exc:
                return exc
            return status

        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            for _ in range(3):
                outcomes = list(pool.map(one_client, range(n_clients)))
                assert all(outcome in (200, 429) for outcome in outcomes), outcomes
