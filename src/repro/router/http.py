"""Stdlib-only HTTP front-end for the router tier.

The same shape as the serving front-end (:mod:`repro.serve.http`) — a
:class:`http.server.ThreadingHTTPServer` whose handler threads share one
:class:`~repro.router.core.Router` — and the same wire protocol, so every
existing client (:class:`~repro.serve.client.ServingClient`, the load
generator, the benchmark drivers) can point at a router instead of a
replica without changing a line.

Endpoints (all JSON unless negotiated otherwise):

``GET /healthz``
    ``{"status": "ok"|"degraded", "replicas": [...], "ring_size": N}`` —
    ``degraded`` (still HTTP 200: the *router* is alive) when the ring is
    empty.
``GET /metrics``
    Router metrics with the same ``Accept`` negotiation as a replica:
    JSON snapshot by default, Prometheus text exposition under
    ``Accept: text/plain``.
``GET /v1/models``
    The model catalog aggregated across in-service replicas.
``GET /v1/models/<name>``
    One model's metadata, proxied to its owner replica.
``POST /v1/models/<name>:predict``
    Routed prediction (forest fan-out included).  503 + ``Retry-After``
    when no replica is in service; upstream 429s propagate with their
    ``retry_after_s`` hint intact.  Successful responses carry
    ``X-Repro-Hops`` (upstream calls used: 1 = no failover; fan-out sums
    its shards) and ``X-Repro-Upstream`` (the replica that answered, when
    a single one did); traced requests also echo ``X-Repro-Trace-Id``.
``GET /debug/traces``
    The router's bounded span buffer, grouped into traces (filters:
    ``trace_id``, ``model``, ``min_ms``, ``limit``).
``GET /admin/replicas``
    Per-replica health/drain/in-flight detail.
``POST /admin/drain`` / ``POST /admin/undrain``
    Body ``{"replica": "<url>", "timeout_s": 10}`` — drain-on-deploy:
    take the replica out of the ring, wait for its in-flight requests,
    report ``{"drained": true|false, "waited_s": ..., "inflight": ...}``.
"""

from __future__ import annotations

from repro.exceptions import ServingError
from repro.obs.log import get_logger
from repro.obs.trace import (
    HOPS_HEADER,
    TRACE_ID_HEADER,
    UPSTREAM_HEADER,
    Tracer,
    debug_traces_payload,
)
from repro.router.core import Router
from repro.serve.http import (
    JSONHTTPServer,
    JSONRequestHandler,
    negotiate_metrics_format,
)
from repro.serve.metrics import PROMETHEUS_CONTENT_TYPE

__all__ = ["RouterHTTPServer", "create_router"]

_log = get_logger(__name__)


class _Handler(JSONRequestHandler):
    """Routes requests into the shared :class:`Router`.

    A :class:`~repro.exceptions.ServingError` without a status is an
    upstream failure here, hence 502.
    """

    server: "RouterHTTPServer"
    default_error_status = 502
    access_log = _log

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        router = self.server.router
        router.metrics.record_request()
        try:
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/healthz":
                topology = router.describe()
                topology["status"] = "ok" if topology["ring_size"] else "degraded"
                self._send_json(200, topology)
            elif path == "/metrics":
                wanted = negotiate_metrics_format(self.headers.get("Accept"))
                if wanted == "prometheus":
                    self._send_text(
                        200, router.metrics.render_prometheus(), PROMETHEUS_CONTENT_TYPE
                    )
                else:
                    self._send_json(200, router.metrics.snapshot())
            elif path == "/v1/models":
                self._send_json(200, {"models": router.models()})
            elif path == "/debug/traces":
                parts = self.path.split("?", 1)
                query = parts[1] if len(parts) == 2 else ""
                try:
                    payload = debug_traces_payload(self.server.tracer, query)
                except ValueError as exc:
                    raise ServingError(str(exc), status=400) from exc
                self._send_json(200, payload)
            elif path == "/admin/replicas":
                self._send_json(200, router.describe())
            elif path.startswith("/v1/models/"):
                name = path[len("/v1/models/"):]
                self._send_json(200, router.model(name))
            else:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
        except ServingError as exc:
            self._send_serving_error(exc)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _response_headers(self, trace, meta: dict) -> "dict | None":
        """Routing/trace response headers: hops, final upstream, trace id."""
        headers: dict = {}
        hops = meta.get("hops")
        if hops:
            headers[HOPS_HEADER] = str(hops)
        upstream = meta.get("upstream")
        if upstream:
            headers[UPSTREAM_HEADER] = upstream
        if trace:
            headers[TRACE_ID_HEADER] = trace.trace_id
        return headers or None

    def _handle_predict(self, path: str, trace) -> None:
        router = self.server.router
        root = None
        meta: dict = {}
        try:
            name = path[len("/v1/models/"):-len(":predict")]
            if not name:
                raise ServingError("missing model name", status=404)
            payload = self._read_json_body()
            root = trace.span("router.predict", model=name)
            response = router.predict(name, payload, trace=trace, meta=meta)
        except ServingError as exc:
            if root is not None:
                root.set_tag("error", str(exc))
                root.end(status="error")
            self._send_serving_error(exc, headers=self._response_headers(trace, meta))
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            if root is not None:
                root.set_tag("error", f"{type(exc).__name__}: {exc}")
                root.end(status="error")
            self._send_json(
                500,
                {"error": f"{type(exc).__name__}: {exc}"},
                headers=self._response_headers(trace, meta),
            )
        else:
            if root is not None:
                if meta.get("hops"):
                    root.set_tag("hops", meta["hops"])
                if meta.get("shards"):
                    root.set_tag("shards", meta["shards"])
                if meta.get("upstream"):
                    root.set_tag("upstream", meta["upstream"])
                root.end()
            self._send_json(200, response, headers=self._response_headers(trace, meta))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        router = self.server.router
        router.metrics.record_request()
        path = self.path.split("?", 1)[0]
        if path.startswith("/v1/models/") and path.endswith(":predict"):
            trace = self.server.tracer.begin(self.headers)
            try:
                self._handle_predict(path, trace)
            finally:
                trace.finish()
            return
        try:
            if path in ("/admin/drain", "/admin/undrain"):
                payload = self._read_json_body()
                replica = payload.get("replica")
                if not isinstance(replica, str) or not replica:
                    raise ServingError(
                        'request needs a "replica" field (the replica base URL)',
                        status=400,
                    )
                if path == "/admin/drain":
                    timeout_s = payload.get("timeout_s", 10.0)
                    if not isinstance(timeout_s, (int, float)) or timeout_s < 0:
                        raise ServingError(
                            '"timeout_s" must be a non-negative number', status=400
                        )
                    self._send_json(200, router.drain(replica, timeout_s=float(timeout_s)))
                else:
                    self._send_json(200, router.undrain(replica))
            else:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
        except ServingError as exc:
            self._send_serving_error(exc)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})


class RouterHTTPServer(JSONHTTPServer):
    """Threading HTTP server bound to one :class:`Router`."""

    def __init__(
        self,
        address: tuple,
        router: Router,
        *,
        verbose: bool = False,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.router = router
        self.verbose = verbose
        # A default (rate-0) tracer still honours propagated sampled
        # contexts and serves /debug/traces — a router behind a tracing
        # edge needs no flags of its own.
        self.tracer = tracer if tracer is not None else Tracer("router")
        super().__init__(address, _Handler)

    def close(self) -> None:
        """Shut down the listener, the health prober and the sync loop."""
        self.shutdown()
        self.server_close()
        self.router.close()


def create_router(
    replicas,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    start: bool = True,
    verbose: bool = False,
    trace_sample_rate: float = 0.0,
    trace_slow_ms: "float | None" = None,
    trace_buffer: int = 2048,
    trace_export=None,
    **router_kwargs,
) -> RouterHTTPServer:
    """Wire a :class:`Router` over ``replicas`` and bind its HTTP server.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    available as ``server.url``.  ``start=True`` (the default) runs the
    initial registry sync and a synchronous first health sweep before
    binding, then starts the background loops — so the first request ever
    received already sees a populated ring.  The ``trace_*`` arguments
    configure the router-side :class:`~repro.obs.trace.Tracer` — the
    router is usually the tracing *edge*, so ``trace_sample_rate`` here
    decides which requests get traced end to end.  Remaining keyword
    arguments go to :class:`~repro.router.core.Router` verbatim.
    """
    if not replicas:
        raise ServingError("the router needs at least one replica URL")
    try:
        tracer = Tracer(
            "router",
            sample_rate=trace_sample_rate,
            slow_ms=trace_slow_ms,
            buffer_size=trace_buffer,
            export_path=trace_export,
        )
    except ValueError as exc:
        raise ServingError(str(exc)) from exc
    router = Router(replicas, **router_kwargs)
    try:
        if start:
            router.start()
        return RouterHTTPServer((host, port), router, verbose=verbose, tracer=tracer)
    except BaseException:
        # A failed first sync or a port collision must not strand the
        # prober/sync threads.
        router.close()
        raise
