"""Stdlib-only HTTP front-end for the serving subsystem.

Built on :class:`http.server.ThreadingHTTPServer` — no runtime dependencies
beyond the standard library.  One shared :class:`~repro.serve.registry.ModelRegistry`
and :class:`~repro.serve.engine.InferenceEngine` serve every handler thread;
the engine's coalescer is what turns the per-thread single requests into
columnar batch calls.

Endpoints (all JSON):

``GET /healthz``
    Liveness: ``{"status": "ok", "models": <count>, "version": ...}``.
``GET /v1/models``
    Registry listing with per-model metadata (classes, feature schema,
    construction engine, repro/format versions).
``GET /v1/models/<name>``
    Metadata of one model (404 for unknown names).
``GET /metrics``
    Dual-format metrics via ``Accept``-header content negotiation.  The
    default is :meth:`~repro.serve.metrics.ServingMetrics.snapshot` —
    request counts, batch-size histogram, cache hit rate, p50/p90/p99
    latency — rendered as the same JSON bytes as ever; with
    ``Accept: text/plain`` (or ``application/openmetrics-text``) the full
    typed metric registry is served in Prometheus text exposition format
    instead (per-model latency histograms, queue gauges, worker-pool
    utilisation).
``GET /debug/traces``
    The process's bounded trace ring buffer (:mod:`repro.obs.trace`) as
    JSON, filterable via ``?trace_id=``, ``?model=``, ``?min_ms=`` and
    ``?limit=``.  Populated when tracing is enabled (``--trace-sample-rate``
    / ``--trace-slow-ms``) or when an upstream (router, client, loadgen)
    propagates a sampled ``X-Repro-Trace-Id``; ``repro trace`` joins these
    buffers across the mesh.
``POST /v1/models/<name>:predict``
    Body ``{"rows": [[...], ...], "proba": true}`` → ``{"labels": [...],
    "probabilities": [[...]], "classes": [...]}``.  Malformed bodies, shape
    mismatches and non-finite feature values are 400s, unknown models 404s;
    errors are ``{"error": <message>}``.  When the inference queue is full,
    admission control answers 429 with a ``Retry-After`` header (integer
    seconds) and a fractional ``retry_after_s`` field in the JSON body —
    overload sheds load fast instead of letting every request time out.
    Besides the shared queue bound, each model has its own admission quota
    (``max_queue_rows_per_model``), so one hot model 429s against its quota
    while other models keep being admitted.  For forest models the body may
    instead carry ``{"votes": true, "members": [...]}`` to fetch the raw
    per-member vote matrices of a member shard (``votes``/``n_members``/
    ``n_members_total`` in the response) — the building block of the router
    tier's forest fan-out (:mod:`repro.router`).
"""

from __future__ import annotations

import json
import math
import socket
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.exceptions import DatasetError, ServingError, SpecError, TreeError
from repro.obs.log import get_logger
from repro.obs.trace import TRACE_ID_HEADER, Tracer, debug_traces_payload
from repro.serve.engine import InferenceEngine
from repro.serve.metrics import PROMETHEUS_CONTENT_TYPE, ServingMetrics
from repro.serve.registry import ModelRegistry

__all__ = [
    "JSONHTTPServer",
    "JSONRequestHandler",
    "ServingHTTPServer",
    "create_server",
    "negotiate_metrics_format",
]

_log = get_logger(__name__)

#: Maximum accepted request-body size (64 MiB) — a plain-guard against
#: unbounded reads, not a tuning knob.
_MAX_BODY_BYTES = 64 * 1024 * 1024


def negotiate_metrics_format(accept: "str | None") -> str:
    """``"json"`` or ``"prometheus"`` for an ``Accept`` header value.

    JSON is the default (no header, ``*/*``, ``application/json``) and wins
    ties, so every pre-existing consumer keeps receiving the exact bytes it
    always has; ``text/plain`` and ``application/openmetrics-text`` select
    the Prometheus text exposition.  q-values are honoured: the media type
    with the highest quality wins (``text/plain;q=0.5, application/json``
    still serves JSON).
    """
    if not accept:
        return "json"
    best_json = 0.0
    best_text = 0.0
    for clause in accept.split(","):
        parts = [part.strip() for part in clause.split(";")]
        media = parts[0].lower()
        quality = 1.0
        for parameter in parts[1:]:
            if parameter.startswith("q="):
                try:
                    quality = float(parameter[2:])
                except ValueError:
                    quality = 0.0
        if media in ("application/json", "application/*"):
            best_json = max(best_json, quality)
        elif media in ("text/plain", "text/*", "application/openmetrics-text"):
            best_text = max(best_text, quality)
        elif media == "*/*":
            best_json = max(best_json, quality)
    return "prometheus" if best_text > best_json else "json"


def _jsonable(value):
    """Recursively convert numpy scalars/arrays for ``json.dumps``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {key: _jsonable(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(entry) for entry in value]
    return value


class JSONRequestHandler(BaseHTTPRequestHandler):
    """Plumbing shared by the serving and router tiers' handlers.

    JSON and text responses, the keep-alive error hygiene, bounded JSON
    body reads and access logging live here once.

    The tiers differ only through the hooks: :meth:`_json_ready` (the
    serving tier converts numpy results), :meth:`_record_error` (the
    serving tier counts error responses), ``default_error_status`` (the
    status of a :class:`~repro.exceptions.ServingError` that carries none:
    400 here, 502 at the router) and ``access_log``.
    """

    protocol_version = "HTTP/1.1"
    default_error_status = 400
    access_log = _log

    # -- hooks ---------------------------------------------------------------

    def _json_ready(self, payload):
        """``payload`` made ready for ``json.dumps`` (as is by default)."""
        return payload

    def _record_error(self, status: int) -> None:
        """Count an error response (not counted by default)."""

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            self.access_log.info(
                "http_access", client=self.address_string(), request=format % args
            )

    def _send_json(self, status: int, payload: dict, *, headers: dict | None = None) -> None:
        body = json.dumps(self._json_ready(payload)).encode("utf-8")
        if status >= 400:
            # Counted before anything is written: a client that has read its
            # error response must find it in the next /metrics scrape.
            self._record_error(status)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        if status >= 400:
            # Error paths may respond before draining the request body; under
            # HTTP/1.1 keep-alive the unread bytes would be parsed as the next
            # request line, so drop the connection instead of reusing it.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _send_serving_error(
        self, exc: ServingError, *, headers: "dict | None" = None
    ) -> None:
        payload: dict = {"error": str(exc)}
        merged: dict = dict(headers or {})
        if exc.retry_after is not None:
            # The header is spec-limited to whole seconds; the JSON body
            # carries the fractional hint for clients that can use it.
            payload["retry_after_s"] = float(exc.retry_after)
            merged["Retry-After"] = str(max(1, math.ceil(exc.retry_after)))
        self._send_json(exc.status or self.default_error_status, payload, headers=merged)

    def _read_json_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ServingError("request body is empty; send a JSON object", status=400)
        if length > _MAX_BODY_BYTES:
            raise ServingError(f"request body exceeds {_MAX_BODY_BYTES} bytes", status=413)
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServingError(f"request body is not valid JSON: {exc}", status=400) from exc
        if not isinstance(payload, dict):
            raise ServingError("request body must be a JSON object", status=400)
        return payload


class JSONHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server settings shared by the serving and router tiers.

    ``daemon_threads`` keeps handler threads from blocking interpreter exit.
    The listen backlog is the system maximum rather than socketserver's 5:
    a burst of simultaneous connects beyond the backlog is reset by the
    kernel, a silent drop where admission control should answer 429.
    """

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = socket.SOMAXCONN

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(JSONRequestHandler):
    """Routes requests to the shared registry/engine/metrics triple."""

    server: "ServingHTTPServer"

    def _json_ready(self, payload):
        return _jsonable(payload)

    def _record_error(self, status: int) -> None:
        self.server.metrics.record_error(status)

    def _trace_headers(self, trace) -> "dict | None":
        """Response headers echoing the request's trace id (if traced)."""
        if trace:
            return {TRACE_ID_HEADER: trace.trace_id}
        return None

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self.server.metrics.record_request()
        try:
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/healthz":
                self._send_json(
                    200,
                    {
                        "status": "ok",
                        "models": len(self.server.registry.names()),
                        "version": _repro_version(),
                    },
                )
            elif path == "/metrics":
                wanted = negotiate_metrics_format(self.headers.get("Accept"))
                if wanted == "prometheus":
                    self._send_text(
                        200,
                        self.server.metrics.render_prometheus(),
                        PROMETHEUS_CONTENT_TYPE,
                    )
                else:
                    self._send_json(200, self.server.metrics.snapshot())
            elif path == "/debug/traces":
                query = self.path.split("?", 1)[1] if "?" in self.path else ""
                try:
                    payload = debug_traces_payload(self.server.tracer, query)
                except ValueError as exc:
                    raise ServingError(
                        f"bad /debug/traces query: {exc}", status=400
                    ) from exc
                self._send_json(200, payload)
            elif path == "/v1/models":
                self._send_json(200, {"models": self.server.registry.describe()})
            elif path.startswith("/v1/models/"):
                name = path[len("/v1/models/"):]
                self._send_json(200, self.server.registry.metadata(name))
            else:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
        except ServingError as exc:
            self._send_serving_error(exc)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self.server.metrics.record_request()
        # The tracer decides here whether this request is traced: an incoming
        # sampled X-Repro-Trace-Id is always honoured (the edge decided), a
        # headerless request samples locally.  NO_TRACE makes the rest free.
        trace = self.server.tracer.begin(self.headers)
        try:
            self._handle_predict(trace)
        finally:
            trace.finish()

    def _handle_predict(self, trace) -> None:
        started = time.perf_counter()
        root = None
        try:
            path = self.path.split("?", 1)[0]
            if not (path.startswith("/v1/models/") and path.endswith(":predict")):
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
                return
            name = path[len("/v1/models/"):-len(":predict")]
            if not name:
                raise ServingError("missing model name", status=404)
            # The root replica-side span: body parsing, queueing, batching
            # and inference all happen under it, parented onto the caller's
            # propagated span so the tree joins across processes.
            root = trace.span("server.predict", model=name)
            payload = self._read_json_body()
            if "rows" not in payload:
                raise ServingError('request needs a "rows" field', status=400)
            rows = payload["rows"]
            if not isinstance(rows, list):
                raise ServingError('"rows" must be a list of feature rows', status=400)
            include_proba = payload.get("proba", True)
            if not isinstance(include_proba, bool):
                raise ServingError('"proba" must be a boolean', status=400)
            want_votes = payload.get("votes", False)
            if not isinstance(want_votes, bool):
                raise ServingError('"votes" must be a boolean', status=400)
            members = payload.get("members")
            if members is not None and not isinstance(members, list):
                raise ServingError('"members" must be a list of member indices',
                                   status=400)
            if want_votes:
                # Forest fan-out: per-member vote matrices for the requested
                # member shard, reduced at the router (bit-identically to
                # serving the whole forest here).
                votes, classes, n_members_total = self.server.engine.predict_votes(
                    name, rows, members=members, trace=trace
                )
                self.server.metrics.record_predict(
                    votes.shape[1], time.perf_counter() - started, model=name
                )
                root.set_tag("rows", int(votes.shape[1]))
                root.set_tag("votes", True)
                root.set_tag("n_members", int(votes.shape[0]))
                root.end()
                self._send_json(
                    200,
                    {
                        "model": name,
                        "classes": classes,
                        "votes": votes,
                        "n_members": votes.shape[0],
                        "n_members_total": n_members_total,
                    },
                    headers=self._trace_headers(trace),
                )
                return
            if members is not None:
                raise ServingError(
                    '"members" is only meaningful with "votes": true', status=400
                )
            # predict_full derives labels, probabilities and classes from one
            # model snapshot, so a concurrent hot reload cannot mix models.
            labels, probabilities, classes = self.server.engine.predict_full(
                name, rows, trace=trace
            )
            response = {
                "model": name,
                "labels": labels,
                "classes": classes,
            }
            if include_proba:
                response["probabilities"] = probabilities
            # len(labels), not len(rows): a flat single-row payload is one
            # served row even though the JSON list has n_features elements.
            self.server.metrics.record_predict(
                len(labels), time.perf_counter() - started, model=name
            )
            root.set_tag("rows", len(labels))
            root.end()
            self._send_json(200, response, headers=self._trace_headers(trace))
        except ServingError as exc:
            if root is not None:
                root.set_tag("error", str(exc))
                root.set_tag("status", exc.status or 400)
                root.end(status="error")
            self._send_serving_error(exc, headers=self._trace_headers(trace))
        except (SpecError, DatasetError, TreeError, ValueError) as exc:
            if root is not None:
                root.set_tag("error", str(exc))
                root.end(status="error")
            self._send_json(
                400, {"error": str(exc)}, headers=self._trace_headers(trace)
            )
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            if root is not None:
                root.set_tag("error", f"{type(exc).__name__}: {exc}")
                root.end(status="error")
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})


def _repro_version() -> str:
    from repro import __version__

    return __version__


class ServingHTTPServer(JSONHTTPServer):
    """Threading HTTP server bound to one registry + inference engine.

    ``close()`` shuts the engine down along with the listening socket.
    """

    def __init__(
        self,
        address: tuple,
        registry: ModelRegistry,
        engine: InferenceEngine,
        metrics: ServingMetrics,
        *,
        tracer: "Tracer | None" = None,
        verbose: bool = False,
    ) -> None:
        self.registry = registry
        self.engine = engine
        self.metrics = metrics
        # A disabled tracer still serves /debug/traces (empty) and still
        # honours incoming sampled contexts, so a replica behind a sampling
        # router needs no flags of its own.
        self.tracer = tracer if tracer is not None else Tracer("serve")
        self.verbose = verbose
        super().__init__(address, _Handler)

    def close(self) -> None:
        """Shut down the listener, the coalescer thread, and shared memory."""
        self.shutdown()
        self.server_close()
        self.engine.close()
        # After the engine drained, no batch pins a segment any more: every
        # published model snapshot can be unlinked from shared memory.
        self.registry.close()


def create_server(
    models_dir,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_batch: int = 64,
    max_wait_ms: float = 2.0,
    max_queue_rows: "int | None" = None,
    max_queue_rows_per_model: "int | None" = None,
    cache_size: int = 1024,
    cache_decimals: "int | None" = None,
    request_timeout_s: float = 30.0,
    workers: int = 1,
    preload: bool = False,
    trace_sample_rate: float = 0.0,
    trace_slow_ms: "float | None" = None,
    trace_buffer: int = 2048,
    trace_export=None,
    verbose: bool = False,
) -> ServingHTTPServer:
    """Wire registry → engine → HTTP server over a model directory.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    available as ``server.server_address`` / ``server.url``.  The caller
    owns the server: run ``serve_forever()`` (blocking) or a thread, and
    ``close()`` when done.  ``workers > 1`` shards every coalesced batch
    across that many model-serving processes
    (:class:`~repro.serve.pool.WorkerPool`); the default is the
    single-process engine.  Invalid knob values raise
    :class:`~repro.exceptions.ServingError` here, before anything binds.
    """
    from repro.serve.pool import WorkerPool

    if workers < 1:
        raise ServingError(f"workers must be at least 1, got {workers}")
    try:
        tracer = Tracer(
            "serve",
            sample_rate=trace_sample_rate,
            slow_ms=trace_slow_ms,
            buffer_size=trace_buffer,
            export_path=trace_export,
        )
    except ValueError as exc:
        raise ServingError(str(exc)) from exc
    registry = ModelRegistry(models_dir)
    metrics = ServingMetrics()
    pool = WorkerPool(workers) if workers > 1 else None
    try:
        engine = InferenceEngine(
            registry,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_queue_rows=max_queue_rows,
            max_queue_rows_per_model=max_queue_rows_per_model,
            cache_size=cache_size,
            cache_decimals=cache_decimals,
            request_timeout_s=request_timeout_s,
            pool=pool,
            metrics=metrics,
        )
    except BaseException:
        if pool is not None:
            pool.close()
        raise
    try:
        if preload:
            registry.load_all()
        return ServingHTTPServer(
            (host, port), registry, engine, metrics, tracer=tracer, verbose=verbose
        )
    except BaseException:
        # A failed preload (corrupt archive) or bind (port in use) must not
        # strand the coalescer thread, the pool's worker processes, or any
        # shared-memory segments already published for preloaded models.
        engine.close()
        registry.close()
        raise
