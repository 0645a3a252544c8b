"""Serving subsystem: model registry, micro-batching inference, HTTP API.

Layers (each usable on its own):

* :class:`~repro.serve.registry.ModelRegistry` — a directory of persisted
  ``model.zip`` archives (:mod:`repro.api.persistence` format), keyed by
  file stem, lazily loaded and hot-reloaded when the file changes;
* :class:`~repro.serve.engine.InferenceEngine` — micro-batching queue that
  coalesces concurrent requests into single columnar ``predict_proba``
  calls, with a per-model LRU prediction cache, request cancellation
  (timed-out work is dropped before classification) and a bounded queue
  that sheds overload with 429s instead of collapsing;
* :class:`~repro.serve.pool.WorkerPool` — optional multi-process backend
  that shards each coalesced batch across N workers (``--workers N``);
* :func:`~repro.serve.http.create_server` /
  :class:`~repro.serve.http.ServingHTTPServer` — stdlib-only JSON-over-HTTP
  front-end (``repro serve`` on the CLI);
* :class:`~repro.serve.client.ServingClient` — the matching client.

Quickstart::

    from repro.serve import create_server, ServingClient
    import threading

    server = create_server("models/", port=8000)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = ServingClient(server.url)
    client.predict("iris", [[5.1, 3.5, 1.4, 0.2]]).labels

Served probabilities are bit-identical to offline
``load_model(path).predict_proba(rows)`` — coalescing and caching never
change results (see ``tests/property/test_serving_equivalence.py``).
"""

from repro.serve.client import (
    MetricsSnapshot,
    ModelInfo,
    PredictResult,
    RouterClient,
    ServingClient,
)
from repro.serve.engine import InferenceEngine
from repro.serve.http import ServingHTTPServer, create_server
from repro.serve.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    ServingMetrics,
)
from repro.serve.pool import WorkerPool
from repro.serve.registry import ModelEntry, ModelRegistry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "InferenceEngine",
    "MetricRegistry",
    "MetricsSnapshot",
    "ModelEntry",
    "ModelInfo",
    "ModelRegistry",
    "PredictResult",
    "RouterClient",
    "ServingClient",
    "ServingHTTPServer",
    "ServingMetrics",
    "WorkerPool",
    "create_server",
]
