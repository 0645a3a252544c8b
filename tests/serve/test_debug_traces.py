"""Serving-tier tracing: /debug/traces, span coverage, header propagation."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import AveragingClassifier, load_model
from repro.api.spec import gaussian
from repro.obs.trace import (
    SAMPLED_HEADER,
    TRACE_ID_HEADER,
    new_trace_id,
)
from repro.serve import ServingClient, create_server


def _traced(directory):
    """A serving instance over ``directory`` sampling every request."""
    server = create_server(
        directory, port=0, max_wait_ms=1.0, trace_sample_rate=1.0
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.close()
    thread.join(timeout=5.0)


@pytest.fixture
def traced_server(model_dir):
    """A serving instance sampling every request."""
    yield from _traced(model_dir)


@pytest.fixture(params=["UDT", "AVG"])
def served_dir(request, model_dir, tmp_path, serving_rows):
    """The UDT demo model, or an AVG model fitted on the serving rows."""
    if request.param == "UDT":
        return model_dir
    directory = tmp_path / "avg"
    directory.mkdir()
    labels = np.where(serving_rows[:, 0] + serving_rows[:, 2] > 0, "pos", "neg")
    AveragingClassifier(spec=gaussian(w=0.1, s=8)).fit(serving_rows, labels).save(
        directory / "demo.zip"
    )
    return directory


@pytest.fixture
def split_server(served_dir):
    """A serving instance over ``served_dir`` sampling every request."""
    yield from _traced(served_dir)


def _post_predict(url: str, rows, extra_headers=None):
    body = json.dumps({"rows": rows}).encode("utf-8")
    request = urllib.request.Request(
        f"{url}/v1/models/demo:predict",
        data=body,
        headers={"Content-Type": "application/json", **(extra_headers or {})},
    )
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return response.headers, json.loads(response.read().decode("utf-8"))


def _debug_traces(url: str, query: str = ""):
    suffix = f"?{query}" if query else ""
    with urllib.request.urlopen(f"{url}/debug/traces{suffix}", timeout=10.0) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _wait_for_trace(url: str, trace_id: str, timeout_s: float = 5.0):
    """Poll until the trace commits — the handler sends the response first,
    then finishes the trace, so an immediate read can race the commit."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        payload = _debug_traces(url, f"trace_id={trace_id}")
        if payload["traces"]:
            return payload
        time.sleep(0.01)
    raise AssertionError(f"trace {trace_id} never appeared in {url}/debug/traces")


def test_sampled_predict_produces_full_span_tree(traced_server, serving_rows):
    headers, _ = _post_predict(traced_server.url, serving_rows[:4].tolist())
    trace_id = headers.get(TRACE_ID_HEADER)
    assert trace_id is not None and len(trace_id) == 32

    payload = _wait_for_trace(traced_server.url, trace_id)
    assert payload["service"] == "serve"
    assert len(payload["traces"]) == 1
    entry = payload["traces"][0]
    names = {span["name"] for span in entry["spans"]}
    assert {"server.predict", "queue_wait", "batch_assembly", "inference"} <= names

    by_name = {span["name"]: span for span in entry["spans"]}
    root = by_name["server.predict"]
    assert root["parent_id"] is None
    assert root["model"] == "demo"
    assert root["tags"]["rows"] == 4
    # The engine-side spans hang under the request root.
    assert by_name["inference"]["parent_id"] == root["span_id"]
    assert by_name["queue_wait"]["tags"]["rows"] == 4
    assert by_name["inference"]["tags"]["batch_rows"] >= 4


def _stage_sums(url: str) -> "dict[str, tuple[float, float]]":
    """``{stage: (count, sum)}`` of the demo model's stage histogram."""
    request = urllib.request.Request(f"{url}/metrics", headers={"Accept": "text/plain"})
    with urllib.request.urlopen(request, timeout=10.0) as response:
        text = response.read().decode("utf-8")
    stages: "dict[str, list[float]]" = {}
    for line in text.splitlines():
        for field, slot in (("_count{", 0), ("_sum{", 1)):
            prefix = f"repro_stage_latency_seconds{field}"
            if line.startswith(prefix) and 'model="demo"' in line:
                stage = line.split('stage="', 1)[1].split('"', 1)[0]
                stages.setdefault(stage, [0.0, 0.0])[slot] = float(line.rsplit(" ", 1)[1])
    return {stage: (count, total) for stage, (count, total) in stages.items()}


def test_in_process_inference_splits_into_materialise_and_descend(
    split_server, served_dir, serving_rows
):
    # For the AVG model, descend includes the reduction of every pdf to its
    # mean; either way the served rows are the offline bits.
    rows = serving_rows[:4]
    headers, body = _post_predict(split_server.url, rows.tolist())
    offline = load_model(served_dir / "demo.zip").predict_proba(rows)
    assert np.array_equal(np.asarray(body["probabilities"]), offline)
    payload = _wait_for_trace(split_server.url, headers[TRACE_ID_HEADER])
    by_name = {span["name"]: span for span in payload["traces"][0]["spans"]}
    inference = by_name["inference"]
    materialise, descend = by_name["materialise"], by_name["descend"]
    # Both parts are children of the inference span and fit inside it.
    assert materialise["parent_id"] == inference["span_id"]
    assert descend["parent_id"] == inference["span_id"]
    assert materialise["duration_ms"] + descend["duration_ms"] <= inference["duration_ms"]
    assert descend["start_s"] >= materialise["start_s"]

    stages = _stage_sums(split_server.url)
    assert stages["materialise"][0] == stages["descend"][0] == stages["inference"][0] == 1
    assert stages["materialise"][1] + stages["descend"][1] <= stages["inference"][1]


def test_cache_hit_recorded_as_cache_lookup_span(traced_server, serving_rows):
    rows = serving_rows[:2].tolist()
    _post_predict(traced_server.url, rows)
    headers, _ = _post_predict(traced_server.url, rows)  # full cache hit
    payload = _wait_for_trace(traced_server.url, headers[TRACE_ID_HEADER])
    names = {span["name"] for span in payload["traces"][0]["spans"]}
    assert "cache_lookup" in names
    assert "inference" not in names  # never reached the coalescer


def test_incoming_sampled_context_honoured_without_local_flags(model_dir, serving_rows):
    server = create_server(model_dir, port=0, max_wait_ms=1.0)  # tracing off
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        trace_id = new_trace_id()
        # No propagated context: nothing is traced.
        _post_predict(server.url, serving_rows[:2].tolist())
        assert _debug_traces(server.url)["traces"] == []
        # A propagated sampled context is always recorded.
        headers, _ = _post_predict(
            server.url,
            serving_rows[:2].tolist(),
            {TRACE_ID_HEADER: trace_id, SAMPLED_HEADER: "1"},
        )
        assert headers[TRACE_ID_HEADER] == trace_id
        payload = _wait_for_trace(server.url, trace_id)
        assert len(payload["traces"]) == 1
    finally:
        server.close()
        thread.join(timeout=5.0)


def test_model_and_min_ms_filters(traced_server, serving_rows):
    headers, _ = _post_predict(traced_server.url, serving_rows[:2].tolist())
    _wait_for_trace(traced_server.url, headers[TRACE_ID_HEADER])
    assert _debug_traces(traced_server.url, "model=demo")["traces"]
    assert _debug_traces(traced_server.url, "model=nope")["traces"] == []
    assert _debug_traces(traced_server.url, "min_ms=999999")["traces"] == []


def test_invalid_filter_is_a_400(traced_server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _debug_traces(traced_server.url, "min_ms=abc")
    assert excinfo.value.code == 400


def test_invalid_sample_rate_fails_at_startup(model_dir):
    from repro.exceptions import ServingError

    with pytest.raises(ServingError):
        create_server(model_dir, port=0, trace_sample_rate=2.0)


def test_trace_id_on_error_responses(traced_server):
    body = json.dumps({"rows": [[1.0, 2.0, 3.0]]}).encode("utf-8")
    request = urllib.request.Request(
        f"{traced_server.url}/v1/models/missing:predict",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10.0)
    assert excinfo.value.code == 404
    assert excinfo.value.headers.get(TRACE_ID_HEADER)


def test_client_predict_passes_headers_through(traced_server, serving_rows):
    client = ServingClient(traced_server.url)
    trace_id = new_trace_id()
    client.predict(
        "demo",
        serving_rows[:2],
        headers={TRACE_ID_HEADER: trace_id, SAMPLED_HEADER: "1"},
    )
    payload = _wait_for_trace(traced_server.url, trace_id)
    assert len(payload["traces"]) == 1
