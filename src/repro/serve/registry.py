"""Model registry: named, lazily loaded, hot-reloadable persisted models.

A :class:`ModelRegistry` watches a directory of ``*.zip`` archives in the
:mod:`repro.api.persistence` format (``model.json`` + the stacked
distribution matrix, ``format_version``-gated).  Each archive is
addressable by its file stem — ``models/iris.zip`` serves as ``iris``:

* **lazy load** — archives are only deserialised on the first ``get()``;
  listing models reads just the cheap ``model.json`` header
  (:func:`~repro.api.persistence.read_model_metadata`);
* **hot reload as an atomic remap** — every ``get()`` stats the file; when
  the mtime/size changed, the replacement model is prepared *outside* the
  entry lock (v3 archives mmap their matrix, so preparation is cheap and
  concurrent ``snapshot_token`` / ``shared_segment`` calls keep serving
  the old snapshot without stalling) and then swapped in under the lock in
  one step, bumping the entry's generation;
* **shared-memory publication** — :meth:`shared_segment` lazily publishes
  the current snapshot (archive JSON + matrix) as one
  :class:`~repro.serve.shm.SharedModelSegment` for the worker pool.  The
  engine acquires the segment around each pool batch; a reload retires the
  old generation's segment, which is unlinked only after those in-flight
  batches drain;
* **metadata** — classes, feature schema, split strategy and the
  ``repro``/format versions that produced the archive, exposed through
  ``GET /v1/models``.

All methods are thread-safe; the HTTP layer calls into one shared registry
from many handler threads.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.api.persistence import (
    load_model,
    read_model_metadata,
    read_model_payload_bytes,
)
from repro.exceptions import PersistenceError, ServingError
from repro.serve.shm import SharedModelSegment

__all__ = ["ModelEntry", "ModelRegistry", "json_scalars"]


def json_scalars(labels) -> list:
    """Labels as plain-Python scalars (numpy scalars unwrapped via item())."""
    return [label.item() if hasattr(label, "item") else label for label in labels]


class ModelEntry:
    """One registered archive: path, load state, and cached metadata.

    Each entry carries its own lock, so deserialising one (possibly large)
    archive never blocks requests for other models or the registry's
    listing endpoints.  ``reload_lock`` additionally serialises remap
    *preparation* (the expensive part) without holding ``lock``, so readers
    of the current snapshot are never blocked behind a reload.
    """

    __slots__ = (
        "name",
        "path",
        "model",
        "metadata",
        "mtime_ns",
        "size",
        "load_count",
        "generation",
        "segment",
        "segment_failed",
        "lock",
        "reload_lock",
    )

    def __init__(self, name: str, path: Path) -> None:
        self.name = name
        self.path = path
        self.model = None
        self.metadata: dict | None = None
        self.mtime_ns: int | None = None
        self.size: int | None = None
        self.load_count = 0
        self.generation = 0
        self.segment: SharedModelSegment | None = None
        self.segment_failed = False
        self.lock = threading.RLock()
        self.reload_lock = threading.Lock()

    def _stat_changed(self) -> bool:
        stat = self.path.stat()
        return stat.st_mtime_ns != self.mtime_ns or stat.st_size != self.size

    def describe(self) -> dict:
        """Metadata dict for listings (never triggers a full model load)."""
        with self.lock:
            if self.metadata is None or self._stat_changed():
                # Header-only read; (mtime, size) are recorded by loads only,
                # so a changed file still reloads lazily on the next get().
                self.metadata = read_model_metadata(self.path)
            return {
                "name": self.name,
                "path": str(self.path),
                "loaded": self.model is not None,
                "load_count": self.load_count,
                **self.metadata,
            }


class ModelRegistry:
    """Directory-backed collection of persisted models, keyed by name.

    Parameters
    ----------
    models_dir:
        Directory scanned for archives.  It must exist at construction time
        (misconfigured paths should fail at startup, not at first request).
    pattern:
        Glob pattern of the archives within ``models_dir``.
    """

    def __init__(self, models_dir, pattern: str = "*.zip") -> None:
        self.models_dir = Path(models_dir)
        if not self.models_dir.is_dir():
            raise ServingError(f"model directory {str(self.models_dir)!r} does not exist")
        self.pattern = pattern
        self._lock = threading.RLock()
        self._entries: dict[str, ModelEntry] = {}
        self.refresh()

    # -- scanning ------------------------------------------------------------

    def refresh(self) -> None:
        """Re-scan the directory: register new archives, drop deleted ones."""
        dropped: list[SharedModelSegment] = []
        with self._lock:
            found = {path.stem: path for path in sorted(self.models_dir.glob(self.pattern))}
            for name in list(self._entries):
                if name not in found:
                    entry = self._entries.pop(name)
                    if entry.segment is not None:
                        dropped.append(entry.segment)
            for name, path in found.items():
                entry = self._entries.get(name)
                if entry is None or entry.path != path:
                    self._entries[name] = ModelEntry(name, path)
        for segment in dropped:
            segment.retire()

    def names(self) -> list[str]:
        """Sorted names of every registered model."""
        with self._lock:
            self.refresh()
            return sorted(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            if name in self._entries:
                return True
            self.refresh()
            return name in self._entries

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Retire every published shared-memory segment (idempotent).

        Segments with in-flight pins are unlinked when their last batch
        releases; the rest are unlinked immediately, so a closed registry
        leaves nothing behind in ``/dev/shm``.
        """
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            with entry.lock:
                segment, entry.segment = entry.segment, None
            if segment is not None:
                segment.retire()

    # -- access --------------------------------------------------------------

    def _entry(self, name: str) -> ModelEntry:
        entry = self._entries.get(name)
        if entry is None:
            self.refresh()
            entry = self._entries.get(name)
        if entry is None or not entry.path.exists():
            raise ServingError(f"unknown model {name!r}", status=404)
        return entry

    def get(self, name: str):
        """The loaded estimator for ``name`` (lazy load, reload on change).

        Deserialisation happens under the entry's ``reload_lock`` with the
        entry lock *released* — the registry lock is only held to look the
        entry up — so loading or hot-reloading one model never stalls
        requests for other models, ``/healthz``, or in-flight batches still
        pinning the previous snapshot.  The caller that observes a changed
        file performs the remap and returns the new model synchronously.
        """
        with self._lock:
            entry = self._entry(name)
        try:
            with entry.lock:
                if entry.model is not None and not entry._stat_changed():
                    return entry.model
            return self._remap(entry)
        except FileNotFoundError as exc:
            # Deleted between the directory scan and the stat.
            raise ServingError(f"unknown model {name!r}", status=404) from exc
        except (PersistenceError, OSError) as exc:
            raise ServingError(
                f"cannot load model {name!r}: {exc}", status=500
            ) from exc

    def _remap(self, entry: ModelEntry):
        """Atomically swap in a freshly prepared snapshot of ``entry``.

        Preparation (archive parse + matrix mmap) runs under only the
        ``reload_lock``; the swap itself — model, metadata, stat token,
        generation bump, segment handoff — happens under ``entry.lock`` in
        one step.  The previous generation's shared-memory segment is
        retired *after* the swap, so it is unlinked only once in-flight
        batches holding it drain.
        """
        with entry.reload_lock:
            with entry.lock:
                if entry.model is not None and not entry._stat_changed():
                    # Another caller completed the remap while we waited.
                    return entry.model
            stat = entry.path.stat()
            model = load_model(entry.path)
            metadata = read_model_metadata(entry.path)
            with entry.lock:
                old_segment, entry.segment = entry.segment, None
                entry.segment_failed = False
                entry.model = model
                entry.metadata = metadata
                entry.mtime_ns = stat.st_mtime_ns
                entry.size = stat.st_size
                entry.load_count += 1
                entry.generation += 1
        if old_segment is not None:
            old_segment.retire()
        return model

    def snapshot_token(self, name: str, model) -> "tuple[Path, tuple[int, int]] | None":
        """``(path, (mtime_ns, size))`` if ``model`` is the current load of
        ``name``, else ``None``.

        Lets the worker pool pin a queued request's model snapshot to the
        archive bytes it was loaded from: workers serve from the path only
        while the file still carries this token, so a hot reload that races
        a queued batch can never substitute a different model's outputs.
        """
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            return None
        with entry.lock:
            if entry.model is model and entry.mtime_ns is not None:
                return entry.path, (entry.mtime_ns, int(entry.size))
        return None

    def shared_segment(self, name: str, model) -> "SharedModelSegment | None":
        """An *acquired* shared-memory segment publishing ``model``, or ``None``.

        Publishes lazily on first use per generation: the archive's
        ``model.json`` bytes plus the model's shared matrix go into one
        segment that pool workers attach by name.  The returned segment is
        already pinned for the caller's batch — ``release()`` it when the
        batch completes so a concurrent hot reload can drain and unlink it.
        ``None`` (model is not the current snapshot, shared memory is
        unavailable, or the file changed under us) sends the caller down
        its fallback path.
        """
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            return None
        with entry.lock:
            if entry.model is not model:
                return None
            segment = entry.segment
            if segment is None and not entry.segment_failed:
                segment = self._publish(entry)
                entry.segment = segment
                entry.segment_failed = segment is None
            if segment is None or not segment.acquire():
                return None
            return segment

    def _publish(self, entry: ModelEntry) -> "SharedModelSegment | None":
        """Build the segment for ``entry``'s current snapshot (entry locked)."""
        matrix = getattr(entry.model, "_shared_arrays", None)
        if matrix is None or getattr(matrix, "nbytes", 0) == 0:
            return None
        try:
            payload_bytes = read_model_payload_bytes(entry.path)
            if entry._stat_changed():
                # The archive was replaced after our snapshot loaded; its
                # JSON no longer matches the matrix.  The next get() remaps
                # and the new generation publishes cleanly.
                return None
            return SharedModelSegment(
                entry.name, entry.generation, payload_bytes, matrix
            )
        except (PersistenceError, OSError, ValueError):
            return None

    def metadata(self, name: str) -> dict:
        """Metadata of one model (header-only, no tree deserialisation)."""
        with self._lock:
            entry = self._entry(name)
        try:
            return entry.describe()
        except FileNotFoundError as exc:
            # Deleted between the directory scan and the stat.
            raise ServingError(f"unknown model {name!r}", status=404) from exc
        except (PersistenceError, OSError) as exc:
            raise ServingError(
                f"cannot read model {name!r}: {exc}", status=500
            ) from exc

    def describe(self) -> list[dict]:
        """Metadata of every registered model (the ``/v1/models`` payload)."""
        with self._lock:
            self.refresh()
            entries = [self._entries[name] for name in sorted(self._entries)]
        described = []
        for entry in entries:
            try:
                described.append(entry.describe())
            except (PersistenceError, OSError) as exc:
                # A corrupt (or just-deleted) archive must not take down the
                # listing of its healthy neighbours.
                described.append(
                    {"name": entry.name, "path": str(entry.path), "error": str(exc)}
                )
        return described

    def load_all(self) -> list[str]:
        """Eagerly load every model (server ``--preload``); returns the names."""
        return [name for name in self.names() if self.get(name) is not None]

    def classes(self, name: str) -> list:
        """Class labels of a model, aligned with its probability columns."""
        return json_scalars(self.get(name).classes_)
