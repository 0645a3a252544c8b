"""Thin stdlib HTTP client for the serving API, with typed results.

Used by the tests, the benchmark drivers, the load generator and the CI
smoke jobs; it is also the reference for how to talk to the server from any
other language — every call is one JSON request/response pair over plain
HTTP.

    client = ServingClient("http://127.0.0.1:8000")
    client.health()                       # {"status": "ok", ...}
    client.models()                       # [ModelInfo, ...]
    result = client.predict("iris", [[5.1, 3.5, 1.4, 0.2]])
    result.labels                         # ['setosa']
    result.probabilities                  # ndarray (1, n_classes)
    snap = client.metrics()               # MetricsSnapshot
    snap.latency_ms["p99"]                # typed attribute access
    snap["latency_ms"]["p99"]             # legacy dict-style access

Responses deserialise into typed dataclasses — :class:`PredictResult`,
:class:`ModelInfo` and :class:`MetricsSnapshot` — which all keep
*dict-style access* (``result["labels"]``, ``snap["errors"]``,
``info.get("error")``) over the raw payload, so code written against the
former plain-dict returns keeps working unchanged.  ``metrics_text()``
fetches the Prometheus text exposition instead of JSON.

Server-side failures surface as :class:`~repro.exceptions.ServingError`
carrying the HTTP status code and the server's ``error`` message; 429
rejections additionally carry the server's back-off hint as
``ServingError.retry_after`` (seconds), and ``predict(..., retries_429=N)``
turns that hint into automatic bounded retries for callers that prefer
waiting out a load spike over handling the rejection themselves.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ServingError

__all__ = [
    "MetricsSnapshot",
    "ModelInfo",
    "PredictResult",
    "RouterClient",
    "ServingClient",
]

_MISSING = object()


class PayloadView:
    """Dict-style access over the raw JSON payload of a typed result.

    The dataclasses below carry the server's payload verbatim in ``raw``;
    this mixin forwards ``result[key]`` / ``key in result`` / ``.get`` /
    ``.keys`` / iteration to it, so callers written against the old
    plain-dict returns keep working against the typed objects.
    """

    raw: dict

    def __getitem__(self, key):
        return self.raw[key]

    def __contains__(self, key) -> bool:
        return key in self.raw

    def __iter__(self):
        return iter(self.raw)

    def __len__(self) -> int:
        return len(self.raw)

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def keys(self):
        return self.raw.keys()

    def values(self):
        return self.raw.values()

    def items(self):
        return self.raw.items()

    def to_dict(self) -> dict:
        """The raw JSON payload as a plain dict."""
        return dict(self.raw)


@dataclass
class PredictResult(PayloadView):
    """One prediction response: labels plus optional probabilities."""

    model: str
    labels: list
    classes: list
    probabilities: "np.ndarray | None" = field(default=None)
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_payload(cls, payload: dict) -> "PredictResult":
        probabilities = payload.get("probabilities")
        return cls(
            model=payload["model"],
            labels=list(payload["labels"]),
            classes=list(payload["classes"]),
            probabilities=(
                np.asarray(probabilities, dtype=float) if probabilities is not None else None
            ),
            raw=payload,
        )


@dataclass
class ModelInfo(PayloadView):
    """One registry entry: identity, schema, and archive provenance.

    ``format_version`` is the persistence format the archive was written
    in — header-only, so operators (and the load generator) can spot stale
    v1 archives without deserialising a single tree.  Listing entries for
    unreadable archives have ``error`` set and every other field defaulted.
    """

    name: str
    model_kind: "str | None" = None
    n_trees: "int | None" = None
    format_version: "int | None" = None
    repro_version: "str | None" = None
    estimator_class: "str | None" = None
    n_features: "int | None" = None
    n_classes: "int | None" = None
    class_labels: "list | None" = None
    loaded: "bool | None" = None
    error: "str | None" = None
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_payload(cls, payload: dict) -> "ModelInfo":
        return cls(
            name=payload.get("name"),
            model_kind=payload.get("model_kind"),
            n_trees=payload.get("n_trees"),
            format_version=payload.get("format_version"),
            repro_version=payload.get("repro_version"),
            estimator_class=payload.get("estimator_class"),
            n_features=payload.get("n_features"),
            n_classes=payload.get("n_classes"),
            class_labels=payload.get("class_labels"),
            loaded=payload.get("loaded"),
            error=payload.get("error"),
            raw=payload,
        )


@dataclass
class MetricsSnapshot(PayloadView):
    """The server's JSON metrics payload with typed top-level access."""

    request_count: int = 0
    predict_requests: int = 0
    rows_total: int = 0
    batch_count: int = 0
    batch_size_histogram: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    requests_rejected: int = 0
    rows_rejected: int = 0
    requests_rejected_by_model: dict = field(default_factory=dict)
    requests_abandoned: int = 0
    rows_abandoned: int = 0
    latency_ms: dict = field(default_factory=dict)
    queue: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_payload(cls, payload: dict) -> "MetricsSnapshot":
        names = {name for name in cls.__dataclass_fields__ if name != "raw"}
        typed = {name: payload[name] for name in names if name in payload}
        return cls(raw=payload, **typed)


class ServingClient:
    """Blocking JSON-over-HTTP client for one serving process."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    @classmethod
    def for_targets(cls, targets, *, timeout: float = 30.0) -> "ServingClient":
        """A client for one URL or a list of them, chosen by shape.

        A single URL (or a one-element list) gives a plain
        :class:`ServingClient`; several URLs give a :class:`RouterClient`
        that fails over between them.  Lets the load generator, examples
        and tests target a router, one replica, or a replica set through
        one construction call.
        """
        if isinstance(targets, str):
            return ServingClient(targets, timeout=timeout)
        urls = list(targets)
        if not urls:
            raise ValueError("for_targets needs at least one base URL")
        if len(urls) == 1:
            return ServingClient(urls[0], timeout=timeout)
        return RouterClient(urls, timeout=timeout)

    # -- transport -----------------------------------------------------------

    def _request(
        self,
        path: str,
        body: "dict | None" = None,
        *,
        accept: str = "application/json",
        base_url: "str | None" = None,
        headers: "dict | None" = None,
    ):
        url = f"{base_url if base_url is not None else self.base_url}{path}"
        data = None
        request_headers = {"Accept": accept}
        if headers:
            # Extra request headers — the trace-propagation path
            # (X-Repro-Trace-Id and friends) for the router and loadgen.
            request_headers.update(headers)
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            request_headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=request_headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                raw = response.read()
                if accept != "application/json":
                    return raw.decode("utf-8")
                payload = json.loads(raw)
        except urllib.error.HTTPError as exc:
            retry_after = None
            try:
                error_body = json.loads(exc.read())
                message = error_body.get("error", exc.reason)
                retry_after = error_body.get("retry_after_s")
            except (json.JSONDecodeError, UnicodeDecodeError, AttributeError):
                message = str(exc.reason)
            if retry_after is None:
                # Fall back to the whole-second header (e.g. a proxy
                # stripped the JSON body but preserved Retry-After).
                retry_after = exc.headers.get("Retry-After") if exc.headers else None
            try:
                # Coerce whatever source supplied it: a non-numeric hint
                # (misbehaving proxy) must degrade to "no hint", never
                # crash the caller's retry loop.
                retry_after = float(retry_after) if retry_after is not None else None
            except (TypeError, ValueError):
                retry_after = None
            raise ServingError(
                f"server returned {exc.code}: {message}",
                status=exc.code,
                retry_after=retry_after,
            ) from exc
        except urllib.error.URLError as exc:
            raise ServingError(f"cannot reach {url}: {exc.reason}") from exc
        except (OSError, http.client.HTTPException) as exc:
            # Connection-level failures (resets, truncated responses) are
            # normal weather under overload; surface them as ServingError
            # (status None) like every other transport problem instead of
            # leaking raw socket exceptions to callers.
            raise ServingError(f"connection to {url} failed: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServingError(f"unexpected response payload from {url}")
        return payload

    def request_json(
        self,
        path: str,
        body: "dict | None" = None,
        *,
        headers: "dict | None" = None,
    ) -> dict:
        """One raw JSON request/response pair against the server.

        ``body=None`` sends a GET, anything else a POST.  This is the
        public escape hatch the router tier forwards traffic through: it
        returns the server's payload verbatim (no typed wrapping), so a
        proxy built on it cannot drop fields it does not know about.
        ``headers`` adds extra request headers (trace propagation).
        """
        return self._request(path, body=body, headers=headers)

    # -- endpoints -----------------------------------------------------------

    def health(self) -> dict:
        """``GET /healthz``."""
        return self._request("/healthz")

    def metrics(self) -> MetricsSnapshot:
        """``GET /metrics`` — the JSON snapshot as a typed view."""
        return MetricsSnapshot.from_payload(self._request("/metrics"))

    def metrics_text(self) -> str:
        """``GET /metrics`` with ``Accept: text/plain`` — Prometheus text."""
        return self._request("/metrics", accept="text/plain")

    def models(self) -> "list[ModelInfo]":
        """``GET /v1/models`` — the registry listing, one entry per model."""
        return [
            ModelInfo.from_payload(entry)
            for entry in self._request("/v1/models")["models"]
        ]

    def model(self, name: str) -> ModelInfo:
        """``GET /v1/models/<name>`` — metadata of one model."""
        return ModelInfo.from_payload(self._request(f"/v1/models/{name}"))

    def predict(
        self,
        model: str,
        rows,
        *,
        proba: bool = True,
        retries_429: int = 0,
        retry_max_wait_s: float = 2.0,
        headers: "dict | None" = None,
    ) -> PredictResult:
        """``POST /v1/models/<model>:predict`` for ``rows``.

        ``rows`` is any 2-D array-like (or a single flat row); ``proba``
        controls whether per-class probabilities are included in the
        response.  ``headers`` adds extra request headers — pass a minted
        trace context (``X-Repro-Trace-Id`` etc.) to trace the request
        through the mesh.

        When the server sheds load (429), the request is retried up to
        ``retries_429`` times, sleeping the server's ``retry_after`` hint
        (capped at ``retry_max_wait_s``) between attempts; the default of 0
        surfaces the 429 immediately.  Only 429s are retried — every other
        error status means retrying the identical request cannot help.
        """
        matrix = np.asarray(rows, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1) if matrix.size else matrix.reshape(0, 0)
        body = {"rows": matrix.tolist(), "proba": proba}
        attempts_left = max(0, int(retries_429))
        while True:
            try:
                payload = self._request(
                    f"/v1/models/{model}:predict", body=body, headers=headers
                )
            except ServingError as exc:
                if exc.status != 429 or attempts_left <= 0:
                    raise
                attempts_left -= 1
                hint = exc.retry_after if exc.retry_after is not None else 0.1
                time.sleep(min(max(float(hint), 0.0), retry_max_wait_s))
                continue
            return PredictResult.from_payload(payload)

    def predict_votes(
        self, model: str, rows, *, members=None, headers: "dict | None" = None
    ) -> dict:
        """Per-member vote matrices of a forest's member shard.

        ``POST /v1/models/<model>:predict`` with ``{"votes": true}``;
        ``members`` restricts the computation to those member indices.
        Returns the raw payload — ``votes`` (as a float ndarray of shape
        ``(n_members, n_rows, n_classes)``), ``classes``, ``n_members`` and
        ``n_members_total`` — for a reducer to fold with
        :func:`repro.ensemble.sharding.reduce_votes`.
        """
        matrix = np.asarray(rows, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1) if matrix.size else matrix.reshape(0, 0)
        body: dict = {"rows": matrix.tolist(), "votes": True}
        if members is not None:
            body["members"] = [int(member) for member in members]
        payload = self._request(
            f"/v1/models/{model}:predict", body=body, headers=headers
        )
        payload["votes"] = np.asarray(payload["votes"], dtype=float)
        return payload


class RouterClient(ServingClient):
    """A :class:`ServingClient` that fails over across several base URLs.

    The serving API is identical whether the other end is a single replica
    or a router tier, so the only difference is transport-level: a request
    that cannot *reach* its target (connection refused/reset — a
    :class:`~repro.exceptions.ServingError` with ``status None``) is
    retried on the next URL in the list.  HTTP-status errors (4xx/5xx,
    including 429 shedding) are real answers from a live server and
    propagate immediately.  The most recent working URL is remembered and
    tried first on subsequent requests.
    """

    def __init__(self, base_urls, *, timeout: float = 30.0) -> None:
        urls = [url.rstrip("/") for url in base_urls]
        if not urls:
            raise ValueError("RouterClient needs at least one base URL")
        super().__init__(urls[0], timeout=timeout)
        self.base_urls = urls
        self._active = 0
        self._lock = threading.Lock()

    def _request(
        self,
        path: str,
        body: "dict | None" = None,
        *,
        accept: str = "application/json",
        base_url: "str | None" = None,
        headers: "dict | None" = None,
    ):
        if base_url is not None:
            return super()._request(
                path, body, accept=accept, base_url=base_url, headers=headers
            )
        with self._lock:
            start = self._active
        last_error: "ServingError | None" = None
        for attempt in range(len(self.base_urls)):
            index = (start + attempt) % len(self.base_urls)
            try:
                result = super()._request(
                    path,
                    body,
                    accept=accept,
                    base_url=self.base_urls[index],
                    headers=headers,
                )
            except ServingError as exc:
                if exc.status is not None:
                    raise
                last_error = exc
                continue
            with self._lock:
                self._active = index
            return result
        assert last_error is not None
        raise last_error
