"""Micro-batching inference engine with an LRU prediction cache.

The paper's efficiency story (Figs. 6-7) is about amortising per-tuple pdf
work; this module is the serving-side analogue.  Concurrent callers submit
single rows (or small arrays) through :meth:`InferenceEngine.predict_proba`;
a background coalescer thread drains the queue and issues **one** columnar
``predict_proba`` call per tick for all rows addressed to the same model, so
the per-call costs (spec conversion set-up, pdf store construction, the tree
walk dispatch) are paid once per batch instead of once per row.

Guarantees:

* **bit-identical results** — the batch path of
  :meth:`repro.core.tree.DecisionTree.classify_batch` processes every row
  independently, so coalescing arbitrary requests into one call returns
  exactly the probabilities that ``load_model(path).predict_proba(rows)``
  would (property-tested in ``tests/property/test_serving_equivalence.py``);
* **isolation** — requests are validated against the model's feature count
  *before* enqueueing, so one malformed request can never fail a batch it
  shares with well-formed ones;
* **freshness** — the per-model cache is invalidated whenever the registry
  hot-reloads the model underneath it;
* **no dead work** — a request that exceeds ``request_timeout_s`` while
  still queued is cancelled: the coalescer drops it from the queue before
  batching, so abandoned rows are never classified — the serving-side
  analogue of the paper's never-pay-for-work-that-cannot-change-the-answer
  pruning (counted in the ``requests_abandoned`` metric).  (Cancellation is
  deadline-driven; the stdlib HTTP layer cannot observe a client that
  disconnects mid-wait, so an aborted connection's rows are dropped only
  once its deadline lapses.);
* **overload sheds, it does not collapse** — the queue is bounded by
  ``max_queue_rows`` (default ``8 * max_batch``); when it is full new
  requests are rejected *at enqueue time* with a 429
  :class:`~repro.exceptions.ServingError` carrying a ``retry_after`` hint,
  so sustained overload turns into fast rejections instead of a spiral in
  which every queued request times out while the worker burns CPU on rows
  nobody will read;
* **fairness across models** — besides the shared bound, every model has an
  admission quota (``max_queue_rows_per_model``, default half of
  ``max_queue_rows``): a traffic spike on one hot model 429s against its
  own quota while requests for other models keep being admitted.  The
  per-model backlog and rejection counts are visible in ``/metrics``
  (``queue.rows_by_model``, ``requests_rejected_by_model``).

Tuning knobs: ``max_batch`` (rows per coalesced call), ``max_wait_ms`` (the
upper bound on how long the coalescer lingers for stragglers once a request
is queued — it lingers only while other callers are being admitted, so a
lone request is batched at once),
``max_queue_rows`` / ``max_queue_rows_per_model`` (admission-control
bounds), ``request_timeout_s``,
``cache_size`` (LRU entries per model) and ``cache_decimals``.  Cache keys
are the exact feature bytes by default, which is what keeps the bit-identical
guarantee unconditional; setting ``cache_decimals`` to an integer instead
rounds the features first, trading that exactness for cache hits on rows
that differ only by float jitter below ``10^-decimals``.  Passing a
:class:`~repro.serve.pool.WorkerPool` as ``pool`` shards every coalesced
batch across worker processes (``repro serve --workers N``); the engine
owns the pool and closes it on shutdown.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict, deque

import numpy as np

from repro.api.spec import first_non_finite_row
from repro.exceptions import ServingError, TreeError
from repro.obs.log import get_logger
from repro.obs.trace import NO_TRACE
from repro.serve.metrics import ServingMetrics
from repro.serve.registry import ModelRegistry, json_scalars

__all__ = ["InferenceEngine"]

_log = get_logger(__name__)


class _Pending:
    """One enqueued request: rows in, per-row probabilities (or an error) out.

    Carries the model snapshot the rows were validated against, so the
    coalescer serves the request with exactly that model even if the
    registry hot-reloads the archive while the request sits in the queue.

    ``cancelled`` is set (under the engine's condition lock) when the caller
    stops waiting; a cancelled entry is dropped by ``_take_batch`` instead
    of being classified.  ``taken`` is set when the coalescer claims the
    entry for a batch — from that point cancellation can no longer prevent
    the work, only the delivery.

    ``batch_key`` partitions the queue into compatible work: ``None`` for
    plain probability requests, ``("votes", members_tuple)`` for member-vote
    requests — only entries with equal keys (and the same model snapshot)
    coalesce into one batch.  ``trace`` is the caller's request trace (or
    :data:`~repro.obs.trace.NO_TRACE`); the coalescer records queue-wait /
    batch-assembly / inference spans into it after serving the batch.
    """

    __slots__ = (
        "rows",
        "model",
        "event",
        "result",
        "error",
        "cancelled",
        "taken",
        "batch_key",
        "trace",
        "enqueued_wall",
        "enqueued_perf",
        "taken_perf",
    )

    def __init__(self, rows: np.ndarray, model, batch_key=None, trace=NO_TRACE) -> None:
        self.rows = rows
        self.model = model
        self.event = threading.Event()
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None
        self.cancelled = False
        self.taken = False
        self.batch_key = batch_key
        self.trace = trace if trace is not None else NO_TRACE
        self.enqueued_wall = 0.0
        self.enqueued_perf = 0.0
        self.taken_perf = 0.0


class InferenceEngine:
    """Coalescing prediction front-end over a :class:`ModelRegistry`."""

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        max_queue_rows: "int | None" = None,
        max_queue_rows_per_model: "int | None" = None,
        cache_size: int = 1024,
        cache_decimals: "int | None" = None,
        request_timeout_s: float = 30.0,
        pool=None,
        metrics: ServingMetrics | None = None,
    ) -> None:
        if max_batch < 1:
            raise ServingError(f"max_batch must be at least 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ServingError(f"max_wait_ms must be non-negative, got {max_wait_ms}")
        if max_queue_rows is None:
            max_queue_rows = 8 * max_batch
        if max_queue_rows < 1:
            raise ServingError(
                f"max_queue_rows must be at least 1, got {max_queue_rows}"
            )
        if max_queue_rows_per_model is None:
            # Half the shared budget: one hot model can never starve the
            # admission of every other model, yet a single-model deployment
            # still gets a usefully deep queue.
            max_queue_rows_per_model = max(1, max_queue_rows // 2)
        if max_queue_rows_per_model < 1:
            raise ServingError(
                f"max_queue_rows_per_model must be at least 1, "
                f"got {max_queue_rows_per_model}"
            )
        if cache_size < 0:
            raise ServingError(f"cache_size must be non-negative, got {cache_size}")
        if cache_decimals is not None and (
            isinstance(cache_decimals, bool)
            or not isinstance(cache_decimals, int)
            or cache_decimals < 0
        ):
            raise ServingError(
                f"cache_decimals must be None or a non-negative integer, "
                f"got {cache_decimals!r}"
            )
        if request_timeout_s <= 0:
            # Zero or negative would 504 every request the instant it was
            # enqueued — a broken server that looks configured.
            raise ServingError(
                f"request_timeout_s must be positive, got {request_timeout_s}"
            )
        self.registry = registry
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.max_queue_rows = max_queue_rows
        self.max_queue_rows_per_model = max_queue_rows_per_model
        self.cache_size = cache_size
        self.cache_decimals = cache_decimals
        self.request_timeout_s = request_timeout_s
        self.pool = pool
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self.metrics.set_pool_workers(getattr(pool, "n_workers", 0) if pool else 0)
        if pool is not None and getattr(pool, "metrics", None) is None:
            pool.metrics = self.metrics
        self._condition = threading.Condition()
        self._queue: deque = deque()  # (model_name, _Pending) in arrival order
        # Per-model and total queued-row counters, maintained on enqueue /
        # take / cancel so the linger loop and admission control are O(1)
        # instead of rescanning the whole queue on every wakeup.
        self._queued_rows: dict[str, int] = {}
        self._total_queued_rows = 0
        # Callers that entered a predict path but have not yet enqueued,
        # been answered from the cache, or failed.  The coalescer lingers
        # only while this is non-zero: a straggler worth waiting for is one
        # already on its way, so a lone request is batched at once.
        self._admitting = 0
        # Suggested client back-off when shedding: roughly one coalescer
        # linger period, floored so the header never rounds to "now".
        self._retry_after_s = max(0.1, 2.0 * max_wait_ms / 1e3)
        self._closed = False
        self.metrics.register_gauge("rows", lambda: self._total_queued_rows)
        self.metrics.register_gauge("max_rows", lambda: self.max_queue_rows)
        self.metrics.register_gauge(
            "max_rows_per_model", lambda: self.max_queue_rows_per_model
        )
        # Per-model backlog gauge: a dict snapshot of the O(1) counters the
        # quota reads, so /metrics shows exactly who is filling the queue.
        self.metrics.register_gauge("rows_by_model", lambda: dict(self._queued_rows))
        # Per-model LRU caches plus a weakref to the model they were filled
        # from, so a registry hot-reload invalidates stale predictions.  A
        # weakref identity check cannot be fooled by CPython recycling a
        # collected model's id() for a later model object.
        self._cache_lock = threading.Lock()
        self._caches: dict[str, OrderedDict] = {}
        self._cache_markers: dict[str, "weakref.ref"] = {}
        self._worker = threading.Thread(
            target=self._run, name="repro-serve-coalescer", daemon=True
        )
        self._worker.start()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop the coalescer thread (outstanding requests still complete).

        Closes the worker pool too, if one was attached — the engine owns
        whatever backend executes its batches.
        """
        with self._condition:
            self._closed = True
            self._condition.notify_all()
        self._worker.join(timeout=5.0)
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request path --------------------------------------------------------

    def _as_matrix(self, rows, n_features: int) -> np.ndarray:
        try:
            matrix = np.asarray(rows, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ServingError(f"rows are not numeric: {exc}", status=400) from exc
        if matrix.ndim == 1:
            if matrix.size == 0:
                matrix = matrix.reshape(0, n_features)
            elif matrix.size == n_features:
                matrix = matrix.reshape(1, -1)
            else:
                raise ServingError(
                    f"a single row needs {n_features} features, got {matrix.size}",
                    status=400,
                )
        if matrix.ndim != 2:
            raise ServingError(
                f"rows must be a 2-D array of shape (n, {n_features}), got ndim={matrix.ndim}",
                status=400,
            )
        if matrix.shape[0] and matrix.shape[1] != n_features:
            # Validated here, before enqueueing: a wrong-width request must
            # fail alone, never the coalesced batch it would have joined.
            raise ServingError(
                f"rows have {matrix.shape[1]} features, model expects {n_features}",
                status=400,
            )
        bad = first_non_finite_row(matrix)
        if bad is not None:
            # Same pre-enqueue isolation guarantee as the shape checks: a
            # NaN/Inf cell would otherwise be classified into garbage
            # probabilities — and worse, cached under its exact bytes.
            raise ServingError(
                f"rows contain non-finite feature values (NaN or Inf), "
                f"first at row {bad}",
                status=400,
            )
        return matrix

    def _cache_key(self, row: np.ndarray):
        if self.cache_decimals is None:
            # Exact bytes: only a bit-for-bit identical row can hit, so the
            # cache can never substitute one row's probabilities for another's.
            return row.tobytes()
        return tuple(round(float(value), self.cache_decimals) for value in row)

    def _cache_for(self, name: str, model) -> "OrderedDict | None":
        if self.cache_size == 0:
            return None
        with self._cache_lock:
            marker = self._cache_markers.get(name)
            if marker is None or marker() is not model:
                # The registry reloaded the model: drop stale predictions.
                self._caches[name] = OrderedDict()
                self._cache_markers[name] = weakref.ref(model)
            return self._caches.setdefault(name, OrderedDict())

    def _cache_put(self, cache: OrderedDict, key: tuple, value: np.ndarray) -> None:
        entry = np.array(value, copy=True)
        entry.flags.writeable = False
        with self._cache_lock:
            cache[key] = entry
            cache.move_to_end(key)
            while len(cache) > self.cache_size:
                cache.popitem(last=False)

    def predict_proba(self, model_name: str, rows, *, trace=NO_TRACE) -> np.ndarray:
        """Class probabilities ``(n, n_classes)`` for ``rows``, micro-batched.

        Blocks until the coalescer has served the request.  Raises
        :class:`~repro.exceptions.ServingError` for unknown models, malformed
        rows, engine shutdown, and coalescer timeouts.
        """
        _, probabilities = self._predict_with_model(model_name, rows, trace=trace)
        return probabilities

    def _predict_with_model(self, model_name: str, rows, *, trace=NO_TRACE):
        """``(model, probabilities)`` — one model snapshot drives everything.

        The snapshot fetched here is validated against, cached against, and
        (via :class:`_Pending`) classified with; a registry hot reload that
        lands mid-request can therefore never mix two models' outputs.
        """
        if self._closed:
            raise ServingError("the inference engine is closed", status=503)
        self._enter_admission()
        pending = None
        try:
            model = self.registry.get(model_name)
            self.metrics.set_model_generation(
                model_name, getattr(model, "update_generation_", 0) or 0
            )
            n_features = int(model.n_features_in_)
            matrix = self._as_matrix(rows, n_features)
            n_rows = matrix.shape[0]
            if n_rows == 0:
                return model, np.zeros((0, len(model.classes_)))

            cache = self._cache_for(model_name, model)
            results: list = [None] * n_rows
            miss_positions = list(range(n_rows))
            keys: list = []
            if cache is not None:
                lookup_wall = time.time()
                lookup_perf = time.perf_counter()
                keys = [self._cache_key(row) for row in matrix]
                hits = 0
                miss_positions = []
                with self._cache_lock:
                    for position, key in enumerate(keys):
                        cached = cache.get(key)
                        if cached is not None:
                            cache.move_to_end(key)
                            results[position] = cached
                            hits += 1
                        else:
                            miss_positions.append(position)
                self.metrics.record_cache(hits=hits, misses=len(miss_positions))
                if trace:
                    trace.record(
                        "cache_lookup",
                        start_s=lookup_wall,
                        duration_s=time.perf_counter() - lookup_perf,
                        model=model_name,
                        tags={"hits": hits, "misses": len(miss_positions)},
                    )

            if miss_positions:
                pending = _Pending(matrix[miss_positions], model, trace=trace)
                self._enqueue_and_wait(model_name, pending)
                assert pending.result is not None
                for offset, position in enumerate(miss_positions):
                    results[position] = pending.result[offset]
                    if cache is not None:
                        self._cache_put(cache, keys[position], pending.result[offset])
            return model, np.stack(results)
        finally:
            if pending is None:
                # Answered without the queue (no rows, every row cached) or
                # failed before reaching it.
                self._leave_admission()

    def _enter_admission(self) -> None:
        """Count the caller as on its way to the queue (see ``_admitting``)."""
        with self._condition:
            self._admitting += 1

    def _leave_admission(self) -> None:
        """End a caller's admission; wakes the coalescer when none is left.

        Re-entrant, so :meth:`_enqueue_and_wait` can end the count under
        the same lock hold as its enqueue or 429: the coalescer never sees
        a request counted both as on its way and as queued.
        """
        with self._condition:
            self._admitting -= 1
            if not self._admitting:
                self._condition.notify_all()

    def _enqueue_and_wait(self, model_name: str, pending: _Pending) -> None:
        """Admit ``pending`` into the queue and block until it is served.

        Shared by the probability and member-vote paths: admission control
        (shared bound + per-model quota, both shedding with 429 at enqueue
        time), the timeout/cancellation dance, and error delivery are
        identical for both kinds of batch.  The caller's admission count
        ends here, whether the request is queued or shed.
        """
        n_missing = len(pending.rows)
        with self._condition:
            self._leave_admission()
            if self._closed:
                raise ServingError("the inference engine is closed", status=503)
            if (
                self._total_queued_rows
                and self._total_queued_rows + n_missing > self.max_queue_rows
            ):
                # Admission control: shed at enqueue time.  An empty
                # queue admits any request (even one larger than the
                # bound — it is served whole, exactly as before), so the
                # bound throttles concurrency, never request size.
                self.metrics.record_rejected(n_missing, model=model_name)
                raise ServingError(
                    f"inference queue is full ({self._total_queued_rows} rows "
                    f"queued, max_queue_rows={self.max_queue_rows}); retry later",
                    status=429,
                    retry_after=self._retry_after_s,
                )
            model_queued = self._queued_rows.get(model_name, 0)
            if (
                model_queued
                and model_queued + n_missing > self.max_queue_rows_per_model
            ):
                # Per-model quota: one hot model exhausting its share is
                # shed while other models' admission budget stays open.
                # The same empty-queue rule applies per model, so the
                # quota throttles a model's concurrency, never its
                # request size.
                self.metrics.record_rejected(n_missing, model=model_name)
                raise ServingError(
                    f"inference queue for model {model_name!r} is full "
                    f"({model_queued} rows queued, "
                    f"max_queue_rows_per_model={self.max_queue_rows_per_model}); "
                    "retry later",
                    status=429,
                    retry_after=self._retry_after_s,
                )
            pending.enqueued_wall = time.time()
            pending.enqueued_perf = time.perf_counter()
            self._queue.append((model_name, pending))
            self._adjust_queued(model_name, n_missing)
            self._condition.notify_all()
        if not pending.event.wait(self.request_timeout_s):
            if self._cancel(model_name, pending):
                raise ServingError(
                    f"inference timed out after {self.request_timeout_s:.1f}s "
                    "(request abandoned before classification)",
                    status=504,
                )
            # The coalescer claimed the batch in the same instant the
            # timeout fired; the rows are being classified, but this
            # caller is no longer listening for the answer.
            raise ServingError(
                f"inference timed out after {self.request_timeout_s:.1f}s", status=504
            )
        if pending.error is not None:
            error = pending.error
            if isinstance(error, ServingError):
                raise error
            raise ServingError(str(error), status=400) from error

    def predict(self, model_name: str, rows, *, trace=NO_TRACE):
        """``(labels, probabilities)`` for ``rows``.

        Labels are the argmax of the probabilities over the model's
        ``classes_`` — the same reduction ``predict`` applies offline.
        """
        labels, probabilities, _ = self.predict_full(model_name, rows, trace=trace)
        return labels, probabilities

    def predict_full(self, model_name: str, rows, *, trace=NO_TRACE):
        """``(labels, probabilities, classes)`` from one model snapshot.

        ``classes`` are JSON-ready scalars in probability-column order; all
        three pieces come from the same model object, so a concurrent hot
        reload cannot pair one model's probabilities with another's labels.
        """
        model, probabilities = self._predict_with_model(model_name, rows, trace=trace)
        classes = np.asarray(model.classes_)
        labels = classes[np.argmax(probabilities, axis=1)] if len(probabilities) \
            else classes[:0]
        return labels, probabilities, json_scalars(model.classes_)

    def predict_votes(self, model_name: str, rows, members=None, *, trace=NO_TRACE):
        """``(votes, classes, n_members_total)`` for a forest's member shard.

        ``votes`` is the ``(n_members, n_rows, n_classes)`` stack of
        per-member vote matrices (``members`` restricts it to those member
        indices; ``None`` means every member), and ``n_members_total`` is
        the full forest's member count — the divisor a fan-out reducer
        needs.  Vote requests ride the same coalescer as probability
        requests: per-member classification is row-independent, so stacking
        concurrent shard requests for the *same member subset* into one
        ``member_votes`` call returns bit-identical matrices while paying
        the per-call setup once — exactly the economics that made routed
        fan-out the hot path worth batching.  Member indices are resolved
        *before* enqueueing, so a request naming an out-of-range member
        fails alone (400), never the batch it would have joined.  The
        prediction cache is not consulted: caching partial votes would only
        duplicate the reduced results cached upstream.
        """
        if self._closed:
            raise ServingError("the inference engine is closed", status=503)
        self._enter_admission()
        pending = None
        try:
            model = self.registry.get(model_name)
            self.metrics.set_model_generation(
                model_name, getattr(model, "update_generation_", 0) or 0
            )
            if not hasattr(model, "member_votes"):
                raise ServingError(
                    f"model {model_name!r} is not a forest; member votes are only "
                    "defined for kind: \"forest\" models",
                    status=400,
                )
            matrix = self._as_matrix(rows, int(model.n_features_in_))
            try:
                selected = tuple(model._resolve_members(members))
            except TreeError as exc:
                raise ServingError(str(exc), status=400) from exc
            classes = json_scalars(model.classes_)
            n_members_total = len(model.trees_)
            if matrix.shape[0] == 0 or not selected:
                # Nothing to classify: answer from the snapshot without waking
                # the coalescer (shape matches member_votes exactly).
                return (
                    np.zeros((len(selected), matrix.shape[0], len(model.classes_))),
                    classes,
                    n_members_total,
                )
            pending = _Pending(
                matrix, model, batch_key=("votes", selected), trace=trace
            )
            self._enqueue_and_wait(model_name, pending)
        finally:
            if pending is None:
                self._leave_admission()
        assert pending.result is not None
        return pending.result, classes, n_members_total

    # -- the coalescer -------------------------------------------------------

    def _adjust_queued(self, name: str, delta: int) -> None:
        """Update the per-model and total queued-row counters (locked)."""
        if not delta:
            return
        self._total_queued_rows += delta
        remaining = self._queued_rows.get(name, 0) + delta
        if remaining > 0:
            self._queued_rows[name] = remaining
        else:
            self._queued_rows.pop(name, None)

    def _cancel(self, name: str, pending: _Pending) -> bool:
        """Cancel a queued request; ``True`` if it was still unclaimed.

        A cancelled entry stays in the deque but stops counting towards the
        queued-row totals immediately (so admission control frees its slot
        and the linger loop stops waiting for it); ``_take_batch`` drops it
        before the next model invocation, so its rows are never classified.
        """
        with self._condition:
            if pending.taken or pending.event.is_set():
                return False
            pending.cancelled = True
            self._adjust_queued(name, -len(pending.rows))
            self.metrics.record_abandoned(len(pending.rows))
            self._condition.notify_all()
            return True

    def _take_batch(self, name: str, model, batch_key) -> list:
        """Pop queued requests for ``name`` up to ``max_batch`` rows (locked).

        Only requests validated against the same ``model`` snapshot *and*
        carrying the same ``batch_key`` (probabilities vs one member-vote
        subset) join the batch; requests that raced a hot reload wait for
        the next tick and are then served by their own snapshot.  Cancelled
        entries are dropped here — abandoned work never reaches ``_invoke``
        (their row counters were already released by :meth:`_cancel`).
        """
        taken: list = []
        kept: deque = deque()
        total = 0
        now_perf = time.perf_counter()
        for qname, pending in self._queue:
            if pending.cancelled:
                continue
            fits = not taken or total + len(pending.rows) <= self.max_batch
            if (
                qname == name
                and pending.model is model
                and pending.batch_key == batch_key
                and fits
            ):
                pending.taken = True
                pending.taken_perf = now_perf
                taken.append(pending)
                total += len(pending.rows)
            else:
                kept.append((qname, pending))
        self._queue = kept
        self._adjust_queued(name, -total)
        return taken

    def _invoke(self, model_name: str, model, matrix: np.ndarray):
        """The probabilities of one batch, as ``(output, split)``.

        ``split`` is :meth:`_classify`'s timing of an in-process batch, or
        ``None`` when the worker pool served it.
        """
        if self.pool is not None:
            # The batch was validated (and will be cached and labelled)
            # against *this* snapshot, so the workers must serve exactly it.
            # Preferred path: the registry publishes the snapshot once as a
            # shared-memory segment (archive JSON + the matrix the nodes
            # view into) and workers attach by name + generation — zero
            # archive I/O, one physical copy of the matrix for the whole
            # pool.  Acquiring the segment pins it for this batch: a hot
            # reload retiring it can unlink the memory only after we
            # release (the remap's drain step).
            snapshot = self.registry.snapshot_token(model_name, model)
            segment = None
            shared = getattr(self.registry, "shared_segment", None)
            if shared is not None:
                segment = shared(model_name, model)
            if snapshot is not None or segment is not None:
                path, token = snapshot if snapshot is not None else (None, None)
                if path is None:
                    path = segment.spec["model"]
                try:
                    result = self.pool.predict_proba(
                        path,
                        matrix,
                        expected_token=token,
                        segment=segment.spec if segment is not None else None,
                    )
                except Exception:
                    # A broken pool (worker OOM-killed, executor shut down)
                    # must degrade the server to in-process serving, not
                    # turn every subsequent request into an error: the
                    # snapshot in hand can always answer correctly.
                    result = None
                finally:
                    if segment is not None:
                        segment.release()
                if result is not None:
                    return result, None
            # Refused snapshot (token and segment both stale), pool
            # breakage, or a reload that beat the queue: the batch is
            # served in-process — visible in the pool-utilisation metrics
            # as a fallback.
            self.metrics.record_pool_fallback()
        return self._classify(model, matrix)

    @staticmethod
    def _classify(model, matrix: np.ndarray, members: "list | None" = None):
        """Serve a batch in process, timing pdf materialisation apart from descent.

        Returns ``(output, (wall start, materialise seconds, descend
        seconds))``: materialise is the model's ``as_dataset`` (rows to a
        store-backed dataset), descend classifies that dataset (the
        member-vote stack when ``members`` is given), AVG's reduction of
        every pdf to its mean included.  The output is the bits
        ``predict_proba(matrix)`` (or ``member_votes(matrix, members)``)
        returns.
        """
        start_wall, start = time.time(), time.perf_counter()
        dataset = model.as_dataset(matrix)
        materialised = time.perf_counter()
        if members is None:
            output = model.predict_proba(dataset)
        else:
            output = model.member_votes(dataset, members=members)
        return output, (start_wall, materialised - start, time.perf_counter() - materialised)

    def _drop_cancelled_head(self) -> None:
        """Discard cancelled entries at the queue head (locked).

        Keeps a dead request from steering the linger loop: the next tick
        must batch for a model somebody is still waiting on.
        """
        while self._queue and self._queue[0][1].cancelled:
            self._queue.popleft()

    def _run(self) -> None:
        while True:
            with self._condition:
                self._drop_cancelled_head()
                while not self._queue and not self._closed:
                    self._condition.wait()
                    self._drop_cancelled_head()
                if not self._queue:
                    return  # closed and drained
                name = self._queue[0][0]
                model = self._queue[0][1].model
                batch_key = self._queue[0][1].batch_key
                linger_wall = time.time()
                linger_perf = time.perf_counter()
                if self.max_wait_ms > 0 and self.max_batch > 1:
                    # Linger for stragglers, but only while another caller
                    # is being admitted: better batches at the cost of at
                    # most max_wait_ms extra latency for the first request,
                    # and none at all when nobody else is on the way.  The
                    # O(1) counter excludes cancelled rows, so the loop
                    # never waits for a batch made of work nobody wants.
                    deadline = time.monotonic() + self.max_wait_ms / 1e3
                    while (
                        not self._closed
                        and self._admitting
                        and self._queued_rows.get(name, 0) < self.max_batch
                    ):
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._condition.wait(remaining)
                taken = self._take_batch(name, model, batch_key)
            if not taken:
                continue
            try:
                matrix = (
                    taken[0].rows
                    if len(taken) == 1
                    else np.concatenate([pending.rows for pending in taken])
                )
                assembled_perf = time.perf_counter()
                invoke_wall = time.time()
                if batch_key is None:
                    output, split = self._invoke(name, model, matrix)
                else:
                    # A member-vote batch: one stacked classification for
                    # the shared member subset, split per request along the
                    # rows axis (axis 1 of the (members, rows, classes)
                    # stack).  Row independence keeps the split exact.
                    output, split = self._classify(model, matrix, list(batch_key[1]))
                inference_s = time.perf_counter() - assembled_perf
                self.metrics.record_batch(matrix.shape[0], model=name)
                self.metrics.record_stage("batch_wait", name, assembled_perf - linger_perf)
                self.metrics.record_stage("inference", name, inference_s)
                if split is not None:
                    self.metrics.record_stage("materialise", name, split[1])
                    self.metrics.record_stage("descend", name, split[2])
                offset = 0
                for pending in taken:
                    count = len(pending.rows)
                    if batch_key is None:
                        pending.result = output[offset:offset + count]
                    else:
                        pending.result = output[:, offset:offset + count, :]
                    offset += count
                batch_rows = int(matrix.shape[0])
                for pending in taken:
                    queue_wait_s = pending.taken_perf - pending.enqueued_perf
                    self.metrics.record_stage("queue_wait", name, queue_wait_s)
                    trace = pending.trace
                    if trace:
                        trace.record(
                            "queue_wait",
                            start_s=pending.enqueued_wall,
                            duration_s=queue_wait_s,
                            model=name,
                            tags={"rows": len(pending.rows)},
                        )
                        trace.record(
                            "batch_assembly",
                            start_s=linger_wall,
                            duration_s=assembled_perf - linger_perf,
                            model=name,
                            tags={"batch_rows": batch_rows, "n_requests": len(taken)},
                        )
                        inference_id = trace.record(
                            "inference",
                            start_s=invoke_wall,
                            duration_s=inference_s,
                            model=name,
                            tags={"batch_rows": batch_rows, "votes": batch_key is not None},
                        )
                        if split is not None:
                            start_wall, materialise_s, descend_s = split
                            trace.record("materialise", start_s=start_wall,
                                         duration_s=materialise_s, model=name,
                                         parent_id=inference_id)
                            trace.record("descend", start_s=start_wall + materialise_s,
                                         duration_s=descend_s, model=name,
                                         parent_id=inference_id)
            except BaseException as exc:  # noqa: BLE001 - delivered to callers
                for pending in taken:
                    pending.error = exc
            finally:
                for pending in taken:
                    pending.event.set()
