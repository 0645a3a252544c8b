"""Typed serving metrics: Counter/Gauge/Histogram families with labels.

One :class:`ServingMetrics` instance is shared by the HTTP layer (request
counts, per-request latency, error counts), the inference engine (batch
sizes, cache hits, admission-control rejections, abandoned requests, and
live queue-depth gauges registered via :meth:`register_gauge`) and the
worker pool (shard fan-out counters).

Every number lives in a typed metric family — :class:`Counter`,
:class:`Gauge` or :class:`Histogram`, addressed through ``.labels(...)``
children exactly like the Prometheus client libraries — collected in one
:class:`MetricRegistry`.  The registry renders two views of the same state:

* :meth:`ServingMetrics.snapshot` — the legacy JSON dict behind
  ``GET /metrics``.  Its key layout (and therefore its serialised bytes)
  is kept bit-compatible with the pre-registry implementation, so
  existing dashboards, tests and the benchmark drivers keep working
  unchanged;
* :meth:`ServingMetrics.render_prometheus` — Prometheus text exposition
  (format 0.0.4: ``# HELP`` / ``# TYPE`` lines, escaped label values,
  cumulative histogram buckets ending in ``le="+Inf"``), served by
  ``GET /metrics`` under ``Accept: text/plain`` content negotiation.
  Labelled families that have no legacy JSON slot (per-model latency
  histograms, worker-pool utilisation) appear only here.

Latency quantiles for the JSON view are computed over a bounded ring of
the most recent observations (default 2048), so the memory footprint is
constant no matter how long the server runs; the Prometheus view exposes
the full cumulative latency histogram instead.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict, deque

import numpy as np

__all__ = [
    "BATCH_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "ServingMetrics",
    "batch_bucket",
]

#: Upper bounds of the batch-size histogram buckets; sizes above the last
#: bound fall into the overflow bucket labelled ``"inf"``.
BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Upper bounds (seconds) of the request-latency histogram buckets.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: The Content-Type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def batch_bucket(size: int) -> str:
    """Histogram bucket label for a coalesced batch of ``size`` rows."""
    for bound in BATCH_BUCKETS:
        if size <= bound:
            return str(bound)
    return "inf"


def _escape_help(text: str) -> str:
    """Escape a HELP line: backslash and newline per the exposition format."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label_value(value: str) -> str:
    """Escape a label value: backslash, double quote and newline."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_number(value) -> str:
    """A sample value in exposition syntax (integers without a fraction)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    number = float(value)
    if number != number:  # NaN
        return "NaN"
    if number in (float("inf"), float("-inf")):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _format_le(bound: float) -> str:
    """The ``le`` label of a histogram bucket bound."""
    if bound == float("inf"):
        return "+Inf"
    return _format_number(bound)


def _sample_line(name: str, labels: "OrderedDict | dict", value) -> str:
    if labels:
        body = ",".join(
            f'{key}="{_escape_label_value(str(item))}"' for key, item in labels.items()
        )
        return f"{name}{{{body}}} {_format_number(value)}"
    return f"{name} {_format_number(value)}"


class MetricFamily:
    """Shared base of the three family kinds: name, help text, label schema.

    Children (one per distinct label-value tuple) are created on first
    ``labels(...)`` access and kept in insertion order — the order the
    JSON shim and the exposition renderer both report them in.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames=(), *, lock=None) -> None:  # noqa: A002
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} for metric {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = lock if lock is not None else threading.Lock()
        self._children: "OrderedDict[tuple, object]" = OrderedDict()

    def _new_child(self):
        raise NotImplementedError

    def labels(self, *values, **by_name):
        """The child for one label-value combination (created on first use)."""
        if by_name:
            if values:
                raise ValueError("pass label values either positionally or by name")
            try:
                values = tuple(str(by_name.pop(label)) for label in self.labelnames)
            except KeyError as exc:
                raise ValueError(f"missing label {exc.args[0]!r} for {self.name!r}") from exc
            if by_name:
                raise ValueError(
                    f"unknown labels {sorted(by_name)} for {self.name!r}"
                )
        else:
            values = tuple(str(value) for value in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name!r} takes {len(self.labelnames)} label values, got {len(values)}"
            )
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._new_child()
                self._children[values] = child
            return child

    def _label_dict(self, values: tuple) -> "OrderedDict":
        return OrderedDict(zip(self.labelnames, values))

    def children(self) -> "list[tuple[tuple, object]]":
        """``(label_values, child)`` pairs in first-use order."""
        with self._lock:
            return list(self._children.items())

    def render(self) -> "list[str]":
        """Exposition lines of the whole family (HELP, TYPE, samples)."""
        lines = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        lines.extend(self._sample_lines())
        return lines

    def _sample_lines(self) -> "list[str]":
        raise NotImplementedError


class _CounterValue:
    """One monotonically increasing value."""

    __slots__ = ("_value", "_lock")

    def __init__(self, lock) -> None:
        self._value = 0
        self._lock = lock

    def inc(self, amount=1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counters can only increase, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value


class Counter(MetricFamily):
    """A monotonically increasing count, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames=(), *, lock=None) -> None:  # noqa: A002
        super().__init__(name, help, labelnames, lock=lock)
        if not self.labelnames:
            self._children[()] = self._new_child()

    def _new_child(self) -> _CounterValue:
        return _CounterValue(self._lock)

    def inc(self, amount=1) -> None:
        """Increment the label-less counter (families with labels refuse)."""
        if self.labelnames:
            raise ValueError(f"{self.name!r} has labels; use .labels(...).inc()")
        self._children[()].inc(amount)

    def total(self):
        """Sum over every child (the legacy JSON scalar for this family)."""
        with self._lock:
            return sum(child.value for child in self._children.values())

    def as_dict(self) -> dict:
        """``{joined label values: count}`` in first-use order (JSON shim)."""
        with self._lock:
            return {
                ",".join(values): child.value
                for values, child in self._children.items()
            }

    def _sample_lines(self) -> "list[str]":
        return [
            _sample_line(self.name, self._label_dict(values), child.value)
            for values, child in self.children()
        ]


class _GaugeValue:
    """One settable value, or a zero-argument callable read at render time."""

    __slots__ = ("_value", "_callback", "_lock")

    def __init__(self, lock) -> None:
        self._value = 0.0
        self._callback = None
        self._lock = lock

    def set(self, value) -> None:
        with self._lock:
            self._value = value
            self._callback = None

    def inc(self, amount=1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount=1) -> None:
        with self._lock:
            self._value -= amount

    def set_function(self, callback) -> None:
        """Read the gauge through ``callback()`` at every collection."""
        with self._lock:
            self._callback = callback

    @property
    def value(self):
        # Callbacks run outside the lock: they read live engine state and
        # must never be able to deadlock against a recording call.
        callback = self._callback
        if callback is not None:
            return callback()
        return self._value


class Gauge(MetricFamily):
    """A value that can go up and down (or is read live via a callback)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames=(), *, lock=None) -> None:  # noqa: A002
        super().__init__(name, help, labelnames, lock=lock)
        if not self.labelnames:
            self._children[()] = self._new_child()

    def _new_child(self) -> _GaugeValue:
        return _GaugeValue(self._lock)

    def _solo(self) -> _GaugeValue:
        if self.labelnames:
            raise ValueError(f"{self.name!r} has labels; use .labels(...)")
        return self._children[()]

    def set(self, value) -> None:
        self._solo().set(value)

    def inc(self, amount=1) -> None:
        self._solo().inc(amount)

    def dec(self, amount=1) -> None:
        self._solo().dec(amount)

    def set_function(self, callback) -> None:
        self._solo().set_function(callback)

    def _sample_lines(self) -> "list[str]":
        return [
            _sample_line(self.name, self._label_dict(values), child.value)
            for values, child in self.children()
        ]


class _HistogramValue:
    """Per-child bucket counts (non-cumulative), sum and count."""

    __slots__ = ("counts", "sum", "count", "_lock")

    def __init__(self, n_buckets: int, lock) -> None:
        self.counts = [0] * (n_buckets + 1)  # one overflow (+Inf) slot
        self.sum = 0.0
        self.count = 0
        self._lock = lock


class Histogram(MetricFamily):
    """A distribution over fixed buckets, rendered cumulatively for Prometheus.

    ``buckets`` are ascending upper bounds; observations above the last
    bound land in the implicit ``+Inf`` overflow bucket.  Besides the
    per-child state, the family keeps one merged, first-observation-ordered
    bucket-count dict (:meth:`json_counts`) — the exact structure the
    legacy JSON ``batch_size_histogram`` reported, preserved across any
    label split so the JSON shim stays bit-compatible.
    """

    kind = "histogram"

    def __init__(
        self, name: str, help: str, labelnames=(), *, buckets, lock=None  # noqa: A002
    ) -> None:
        super().__init__(name, help, labelnames, lock=lock)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or any(upper <= lower for upper, lower in zip(bounds[1:], bounds)):
            raise ValueError(f"histogram buckets must be ascending, got {buckets!r}")
        self.buckets = bounds
        self._json_counts: "OrderedDict[str, int]" = OrderedDict()
        if not self.labelnames:
            self._children[()] = self._new_child()

    def _new_child(self) -> _HistogramValue:
        return _HistogramValue(len(self.buckets), self._lock)

    def _bucket_index(self, value: float) -> int:
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                return index
        return len(self.buckets)

    def _json_label(self, index: int) -> str:
        if index == len(self.buckets):
            return "inf"
        return _format_number(self.buckets[index])

    def observe(self, value, child: "_HistogramValue | None" = None) -> None:
        """Record one observation (into ``child`` for labelled families)."""
        if child is None:
            if self.labelnames:
                raise ValueError(f"{self.name!r} has labels; use .observe_labels(...)")
            child = self._children[()]
        value = float(value)
        index = self._bucket_index(value)
        label = self._json_label(index)
        with self._lock:
            child.counts[index] += 1
            child.sum += value
            child.count += 1
            self._json_counts[label] = self._json_counts.get(label, 0) + 1

    def observe_labels(self, value, *label_values, **by_name) -> None:
        """``labels(...).observe`` in one call (labelled families)."""
        self.observe(value, self.labels(*label_values, **by_name))

    def total_count(self) -> int:
        """Observations across every child (the legacy ``batch_count``)."""
        with self._lock:
            return sum(child.count for child in self._children.values())

    def json_counts(self) -> "OrderedDict[str, int]":
        """Merged non-cumulative bucket counts in first-observation order."""
        with self._lock:
            return OrderedDict(self._json_counts)

    def _sample_lines(self) -> "list[str]":
        lines = []
        for values, child in self.children():
            with self._lock:
                counts = list(child.counts)
                total = child.count
                observed_sum = child.sum
            cumulative = 0
            for index, bound in enumerate(self.buckets):
                cumulative += counts[index]
                labels = self._label_dict(values)
                labels["le"] = _format_le(bound)
                lines.append(_sample_line(f"{self.name}_bucket", labels, cumulative))
            labels = self._label_dict(values)
            labels["le"] = "+Inf"
            lines.append(_sample_line(f"{self.name}_bucket", labels, total))
            lines.append(
                _sample_line(f"{self.name}_sum", self._label_dict(values), observed_sum)
            )
            lines.append(
                _sample_line(f"{self.name}_count", self._label_dict(values), total)
            )
        return lines


class MetricRegistry:
    """An ordered collection of metric families sharing one lock.

    Families register through the :meth:`counter` / :meth:`gauge` /
    :meth:`histogram` factories; :meth:`render_prometheus` walks them in
    registration order and emits the text exposition format.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "OrderedDict[str, MetricFamily]" = OrderedDict()

    def _register(self, family: MetricFamily) -> MetricFamily:
        if family.name in self._families:
            raise ValueError(f"metric {family.name!r} is already registered")
        self._families[family.name] = family
        return family

    def counter(self, name: str, help: str, labelnames=()) -> Counter:  # noqa: A002
        return self._register(Counter(name, help, labelnames, lock=self._lock))

    def gauge(self, name: str, help: str, labelnames=()) -> Gauge:  # noqa: A002
        return self._register(Gauge(name, help, labelnames, lock=self._lock))

    def histogram(
        self, name: str, help: str, labelnames=(), *, buckets  # noqa: A002
    ) -> Histogram:
        return self._register(
            Histogram(name, help, labelnames, buckets=buckets, lock=self._lock)
        )

    def families(self) -> "list[MetricFamily]":
        return list(self._families.values())

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format 0.0.4."""
        lines: "list[str]" = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + "\n"


class ServingMetrics:
    """Counters and distributions describing one serving process.

    The recording API (``record_request`` / ``record_predict`` / ...) is the
    stable surface the HTTP layer, engine and pool call into; underneath,
    every value is a typed family in :attr:`registry`.  ``snapshot()``
    renders the legacy JSON layout bit-compatibly; ``render_prometheus()``
    renders the full registry as text exposition.
    """

    def __init__(self, latency_window: int = 2048) -> None:
        self._lock = threading.Lock()
        self._latencies: deque = deque(maxlen=latency_window)
        self.registry = MetricRegistry()
        registry = self.registry
        self._http_requests = registry.counter(
            "repro_http_requests_total", "HTTP requests received (any endpoint)."
        )
        self._predict_requests = registry.counter(
            "repro_predict_requests_total",
            "Successful prediction requests, by model.",
            ("model",),
        )
        self._predict_rows = registry.counter(
            "repro_predict_rows_total", "Feature rows served, by model.", ("model",)
        )
        self._latency = registry.histogram(
            "repro_request_latency_seconds",
            "Prediction request latency (seconds), by model.",
            ("model",),
            buckets=LATENCY_BUCKETS,
        )
        self._batch_rows = registry.histogram(
            "repro_batch_size_rows",
            "Rows per coalesced model invocation, by model.",
            ("model",),
            buckets=BATCH_BUCKETS,
        )
        self._cache_hits = registry.counter(
            "repro_cache_hits_total", "Prediction-cache hits."
        )
        self._cache_misses = registry.counter(
            "repro_cache_misses_total", "Prediction-cache misses."
        )
        self._errors = registry.counter(
            "repro_http_errors_total", "HTTP error responses, by status code.", ("status",)
        )
        self._rejected_requests = registry.counter(
            "repro_requests_rejected_total",
            "Requests shed by admission control (HTTP 429).",
        )
        self._rejected_rows = registry.counter(
            "repro_rows_rejected_total", "Rows shed by admission control."
        )
        self._rejected_by_model = registry.counter(
            "repro_requests_rejected_by_model_total",
            "Requests shed by admission control, by model.",
            ("model",),
        )
        self._abandoned_requests = registry.counter(
            "repro_requests_abandoned_total",
            "Timed-out requests cancelled before classification.",
        )
        self._abandoned_rows = registry.counter(
            "repro_rows_abandoned_total", "Rows of cancelled requests never classified."
        )
        self._pool_workers = registry.gauge(
            "repro_pool_workers", "Worker-pool processes attached to the engine."
        )
        self._pool_batches = registry.counter(
            "repro_pool_batches_total", "Coalesced batches dispatched to the worker pool."
        )
        self._pool_shards = registry.counter(
            "repro_pool_shards_total", "Shards fanned out across worker processes."
        )
        self._pool_fallbacks = registry.counter(
            "repro_pool_fallbacks_total",
            "Batches served in-process because the pool refused or failed.",
        )
        self._stage_latency = registry.histogram(
            "repro_stage_latency_seconds",
            "Per-stage serving latency (seconds): queue_wait, batch_wait, "
            "inference and, for in-process batches, its materialise and "
            "descend parts — the same stages the trace spans carry.",
            ("stage", "model"),
            buckets=LATENCY_BUCKETS,
        )
        self._model_generation = registry.gauge(
            "repro_model_update_generation",
            "Streaming update generation of the served model snapshot "
            "(incremental partial_fit/refresh updates since its full fit).",
            ("model",),
        )
        self._gauges: dict = {}

    # -- recording -----------------------------------------------------------

    def record_request(self) -> None:
        """Count one HTTP request (any endpoint)."""
        self._http_requests.inc()

    def record_predict(
        self, n_rows: int, latency_seconds: float, model: "str | None" = None
    ) -> None:
        """Count one prediction call of ``n_rows`` rows and its latency.

        ``model`` labels the per-model counters and latency histogram; the
        legacy JSON view reports the totals across models, exactly as the
        unlabelled implementation did.
        """
        label = model if model is not None else ""
        self._predict_requests.labels(label).inc()
        self._predict_rows.labels(label).inc(int(n_rows))
        self._latency.observe_labels(float(latency_seconds), label)
        with self._lock:
            self._latencies.append(float(latency_seconds))

    def record_batch(self, size: int, model: "str | None" = None) -> None:
        """Count one coalesced model invocation of ``size`` rows."""
        self._batch_rows.observe_labels(int(size), model if model is not None else "")

    def record_stage(
        self, stage: str, model: "str | None", seconds: float
    ) -> None:
        """Record one per-stage latency observation (Prometheus-only family).

        Stages mirror the replica-side trace spans — ``queue_wait`` (enqueue
        to batch claim), ``batch_wait`` (coalescer linger + assembly) and
        ``inference`` (the model invocation), which an in-process batch
        splits into ``materialise`` (rows to a store-backed dataset) and
        ``descend`` (the classification, which for an AVG model includes
        the reduction of every pdf to its mean) — so a histogram regression
        and a slow trace point at the same place.  No legacy JSON slot: the
        ``snapshot()`` byte-compatibility contract stays untouched.
        """
        self._stage_latency.observe_labels(
            float(seconds), stage, model if model is not None else ""
        )

    def set_model_generation(self, model: str, generation) -> None:
        """Expose the update generation of the snapshot a model serves from.

        Set on every prediction right after the registry lookup, so the
        continuous trainer's hot-reloaded publications become visible in
        ``/metrics`` as soon as traffic touches the new snapshot.  Like
        :meth:`record_stage` this is a Prometheus-only family — the
        ``snapshot()`` byte-compatibility contract stays untouched.
        """
        self._model_generation.labels(model).set(int(generation))

    def record_cache(self, hits: int = 0, misses: int = 0) -> None:
        """Count prediction-cache lookups."""
        if hits:
            self._cache_hits.inc(int(hits))
        if misses:
            self._cache_misses.inc(int(misses))

    def record_error(self, status: int) -> None:
        """Count one HTTP error response by status code."""
        self._errors.labels(str(int(status))).inc()

    def record_rejected(self, n_rows: int, model: "str | None" = None) -> None:
        """Count one request shed by admission control (queue full, 429).

        ``model`` attributes the rejection to the model whose request was
        shed — whether it hit the shared bound or its own per-model quota —
        so ``/metrics`` shows which model is drawing the overload.
        """
        self._rejected_requests.inc()
        self._rejected_rows.inc(int(n_rows))
        if model is not None:
            self._rejected_by_model.labels(model).inc()

    def record_abandoned(self, n_rows: int) -> None:
        """Count one cancelled request dropped before classification.

        Abandoned rows are the serving-side analogue of the paper's pruned
        entropy calculations: work that provably cannot change any answer a
        caller will see, identified and skipped instead of computed.
        """
        self._abandoned_requests.inc()
        self._abandoned_rows.inc(int(n_rows))

    def record_pool(self, n_shards: int) -> None:
        """Count one batch fanned out across ``n_shards`` worker shards."""
        self._pool_batches.inc()
        self._pool_shards.inc(int(n_shards))

    def record_pool_fallback(self) -> None:
        """Count one batch the pool refused (hot-reload race or breakage)."""
        self._pool_fallbacks.inc()

    def set_pool_workers(self, n_workers: int) -> None:
        """Expose the attached worker-pool size (0 = in-process engine)."""
        self._pool_workers.set(int(n_workers))

    def register_gauge(self, name: str, read) -> None:
        """Expose a live value in ``snapshot()``'s ``queue`` section.

        ``read`` is a zero-argument callable returning a number — or a
        ``{label: number}`` dict for per-model gauges — and the engine
        registers its queue-depth and capacity here so ``/metrics`` reports
        the instantaneous backlog, not just cumulative counters.  In the
        Prometheus rendering each entry appears as ``repro_queue_<name>``
        (dict-valued gauges become one sample per ``model`` label).
        """
        with self._lock:
            self._gauges[name] = read

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able view of every metric, bit-compatible with the legacy
        ad-hoc dict (the default ``GET /metrics`` payload)."""
        with self._lock:
            latencies = np.asarray(self._latencies, dtype=float)
            gauges = dict(self._gauges)
        cache_hits = self._cache_hits.total()
        cache_misses = self._cache_misses.total()
        cache_lookups = cache_hits + cache_misses
        snapshot = {
            "request_count": self._http_requests.total(),
            "predict_requests": self._predict_requests.total(),
            "rows_total": self._predict_rows.total(),
            "batch_count": self._batch_rows.total_count(),
            "batch_size_histogram": dict(self._batch_rows.json_counts()),
            "cache": {
                "hits": cache_hits,
                "misses": cache_misses,
                "hit_rate": (cache_hits / cache_lookups) if cache_lookups else 0.0,
            },
            "errors": self._errors.as_dict(),
            "requests_rejected": self._rejected_requests.total(),
            "rows_rejected": self._rejected_rows.total(),
            "requests_rejected_by_model": self._rejected_by_model.as_dict(),
            "requests_abandoned": self._abandoned_requests.total(),
            "rows_abandoned": self._abandoned_rows.total(),
        }
        if latencies.size:
            snapshot["latency_ms"] = {
                "count": int(latencies.size),
                "mean": float(latencies.mean() * 1e3),
                "p50": float(np.percentile(latencies, 50) * 1e3),
                "p90": float(np.percentile(latencies, 90) * 1e3),
                "p99": float(np.percentile(latencies, 99) * 1e3),
            }
        else:
            snapshot["latency_ms"] = {
                "count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
            }
        # Gauges are evaluated outside the metrics lock: they read engine
        # state and must never be able to deadlock against a recording call.
        snapshot["queue"] = {name: read() for name, read in gauges.items()}
        return snapshot

    def render_prometheus(self) -> str:
        """Every family — plus the live queue gauges — as text exposition."""
        text = self.registry.render_prometheus()
        with self._lock:
            gauges = dict(self._gauges)
        lines: "list[str]" = []
        for name, read in gauges.items():
            metric = f"repro_queue_{name}"
            lines.append(f"# HELP {metric} Live queue gauge {_escape_help(name)}.")
            lines.append(f"# TYPE {metric} gauge")
            value = read()
            if isinstance(value, dict):
                for label, entry in value.items():
                    lines.append(
                        _sample_line(metric, OrderedDict(model=str(label)), entry)
                    )
            else:
                lines.append(_sample_line(metric, {}, value))
        if lines:
            text += "\n".join(lines) + "\n"
        return text
