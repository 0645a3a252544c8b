"""Sharded multi-process prediction backend for the inference engine.

The coalescer amortises per-call costs by merging requests into one columnar
``predict_proba`` call — but that call still runs on one core, behind the
GIL of the serving process.  :class:`WorkerPool` is the next lever from the
ROADMAP: it shards each coalesced batch across ``n_workers`` OS processes,
so a saturated server scales with cores instead of serialising every batch
through the parent interpreter.

Design constraints that make this correct:

* **models are shared, not rebuilt** — the parent publishes each model
  snapshot once as a :class:`~repro.serve.shm.SharedModelSegment` (archive
  JSON + the distribution matrix every tree node views into) and workers
  attach it by name + generation (:func:`repro.serve.shm.attach_model`):
  zero archive I/O in the workers, and the matrix — the bulk of a model —
  occupies physical memory once for the whole pool instead of once per
  process.  Segments are generation-tokened, so a hot reload racing a
  queued batch can never mix two models' outputs: workers either serve the
  exact published snapshot or (segment already drained) refuse with
  ``None`` and the engine serves that batch in-process from its own pinned
  snapshot.
* **archive-rebuild fallback** — when no segment is available (shared
  memory unsupported, or the pool is driven directly by path), workers
  fall back to loading the archive themselves, cached per ``(mtime_ns,
  size)`` token exactly as before; ``expected_token`` pins that path the
  same way the segment generation pins the shared path.
* **bit-identical outputs** — every row of a batch is classified
  independently, so splitting a matrix with :func:`numpy.array_split` and
  concatenating the per-shard probability blocks in shard order returns
  exactly what one in-process call would (property-tested against the
  single-process engine in ``tests/serve/test_pool.py`` and
  ``tests/property/test_serving_equivalence.py``).
* **small batches stay whole** — shards smaller than ``min_shard_rows``
  are not worth a round of pickling; the pool sends such batches to a
  single worker instead of fanning out.

Select it with ``repro serve --workers N`` (the single-process engine
remains the default) or pass ``pool=WorkerPool(N)`` to
:class:`~repro.serve.engine.InferenceEngine` directly.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from pathlib import Path

import numpy as np

from repro.exceptions import ServingError

__all__ = ["WorkerPool"]


def _worker_context():
    """A non-fork multiprocessing context for the executor.

    The pool lives inside a multi-threaded server; forking there can
    inherit locks held by other threads mid-operation and deadlock the
    child (the pattern CPython 3.12 deprecates).  ``forkserver`` forks from
    a clean single-threaded helper — preloaded with the serving modules so
    each worker starts in milliseconds instead of re-importing numpy —
    and ``spawn`` is the fallback where it is unavailable.
    """
    try:
        context = multiprocessing.get_context("forkserver")
    except ValueError:
        return multiprocessing.get_context("spawn")
    context.set_forkserver_preload(["repro.serve.engine", "repro.serve.pool"])
    return context

#: Per-process model cache for the archive-rebuild fallback:
#: path -> (mtime_ns, size, loaded model).  Lives in the *worker* processes;
#: the parent never populates it.  (The shared-memory fast path keeps its
#: own attachment cache in :mod:`repro.serve.shm`.)
_WORKER_MODELS: dict = {}


def _worker_model(path: str, expected_token):
    """The worker-local model for ``path``, reloaded when the file changes.

    ``expected_token`` is the ``(mtime_ns, size)`` the engine's model
    snapshot was loaded from; if the file on disk no longer matches (a hot
    reload raced the queue, or the archive vanished), the worker refuses
    with ``None`` and the engine classifies the batch in-process with the
    exact snapshot instead.
    """
    from repro.api.persistence import load_model

    try:
        stat = Path(path).stat()
    except FileNotFoundError:
        return None
    token = (stat.st_mtime_ns, stat.st_size)
    if expected_token is not None and token != tuple(expected_token):
        return None
    cached = _WORKER_MODELS.get(path)
    if cached is None or cached[0] != token:
        _WORKER_MODELS[path] = (token, load_model(path))
        cached = _WORKER_MODELS[path]
    return cached[1]


def _worker_predict(path: str, expected_token, segment, matrix):
    """Classify one shard inside a worker process (``None`` = snapshot refused).

    ``segment`` (a :class:`~repro.serve.shm.SharedModelSegment` spec dict)
    selects the zero-copy path: attach the published segment and serve from
    it, never touching the archive.  Without a spec — or if the segment has
    already been drained — the worker falls back to the token-pinned
    archive rebuild.
    """
    model = None
    if segment is not None:
        from repro.serve.shm import attach_model

        model = attach_model(segment)
    if model is None:
        model = _worker_model(path, expected_token)
    if model is None:
        return None
    return model.predict_proba(matrix)


class WorkerPool:
    """Shards coalesced batches across ``n_workers`` model-serving processes."""

    def __init__(
        self,
        n_workers: int,
        *,
        min_shard_rows: int = 8,
        shard_timeout_s: float = 60.0,
        metrics=None,
    ) -> None:
        if n_workers < 1:
            raise ServingError(f"n_workers must be at least 1, got {n_workers}")
        if min_shard_rows < 1:
            raise ServingError(f"min_shard_rows must be at least 1, got {min_shard_rows}")
        if shard_timeout_s <= 0:
            raise ServingError(
                f"shard_timeout_s must be positive, got {shard_timeout_s}"
            )
        self.n_workers = n_workers
        self.min_shard_rows = min_shard_rows
        self.shard_timeout_s = shard_timeout_s
        # Shard fan-out counters land here; the engine adopts the pool and
        # points this at its own ServingMetrics, so /metrics reports
        # worker-pool utilisation without the pool importing the registry.
        self.metrics = metrics
        self._broken = False
        self._executor: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=n_workers, mp_context=_worker_context()
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            # A broken pool may hold a hung worker; waiting on it would hang
            # shutdown too, and there is nothing left worth waiting for.
            executor.shutdown(wait=not self._broken, cancel_futures=self._broken)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- prediction ----------------------------------------------------------

    def _n_shards(self, n_rows: int) -> int:
        by_size = max(1, n_rows // self.min_shard_rows)
        return min(self.n_workers, by_size)

    def predict_proba(
        self, model_path, matrix: np.ndarray, *, expected_token=None, segment=None
    ) -> "np.ndarray | None":
        """Class probabilities for ``matrix``, computed across the workers.

        The matrix is split into up to ``n_workers`` contiguous shards
        (never smaller than ``min_shard_rows``), each classified by a worker
        against the shared model snapshot, and the per-shard blocks are
        concatenated back in order — bit-identical to one in-process
        ``predict_proba`` call.

        ``segment`` (a published :class:`~repro.serve.shm.SharedModelSegment`
        spec) lets workers attach the snapshot over shared memory instead of
        rebuilding from ``model_path``.  ``expected_token`` (the archive's
        ``(mtime_ns, size)`` at snapshot load time) pins the archive
        fallback to exactly those bytes.  If any worker cannot serve the
        pinned snapshot either way, the call returns ``None`` and the
        caller serves its own model snapshot in-process instead.
        """
        executor = self._executor
        if executor is None:
            raise ServingError("the worker pool is closed", status=503)
        if self._broken:
            raise ServingError("the worker pool is broken (a shard hung)", status=503)
        n_rows = int(matrix.shape[0])
        if n_rows == 0:
            raise ServingError("cannot shard an empty batch")  # engine never sends one
        path = str(model_path)
        shards = np.array_split(matrix, self._n_shards(n_rows))
        if self.metrics is not None:
            self.metrics.record_pool(len(shards))
        futures = [
            executor.submit(_worker_predict, path, expected_token, segment, shard)
            for shard in shards
        ]
        try:
            # The timeout covers a *hung* (not crashed) worker — without it
            # one stuck shard would wedge the engine's single coalescer
            # thread, and with it the whole server, forever.
            blocks = [future.result(timeout=self.shard_timeout_s) for future in futures]
        except FuturesTimeoutError:
            # Latch broken so later batches fail fast (and the engine falls
            # back to in-process serving) instead of re-paying the timeout.
            self._broken = True
            for future in futures:
                future.cancel()
            raise ServingError(
                f"worker pool shard did not answer within {self.shard_timeout_s:.0f}s",
                status=503,
            ) from None
        if any(block is None for block in blocks):
            return None
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
