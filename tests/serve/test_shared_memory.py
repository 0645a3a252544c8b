"""Shared-memory model segments and the atomic hot-reload remap.

The contract under test (the v3 zero-copy serving path):

* the registry publishes one :class:`SharedModelSegment` per model
  snapshot and workers attach by name, rebuilding the model with node
  distributions viewing the mapped matrix — bit-identical to in-process;
* a hot reload is an atomic remap: ``get()`` returns the new model while
  in-flight batches keep the *old* generation's segment pinned, and the
  old backing memory is unlinked only after the last pin releases;
* nothing leaks — after a drain or ``registry.close()`` no segment with
  this process's prefix remains in ``/dev/shm``.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.api import load_model
from repro.api.persistence import read_model_payload_bytes
from repro.serve import InferenceEngine, ModelRegistry, WorkerPool
from repro.serve.shm import SharedModelSegment, attach_model, segment_prefix

_SHM_DIR = Path("/dev/shm")


def _segment_names() -> "set[str]":
    """Names of this process's segments currently backed in ``/dev/shm``."""
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-tmpfs platforms
        pytest.skip("no /dev/shm listing on this platform")
    prefix = segment_prefix()
    return {entry.name for entry in _SHM_DIR.iterdir() if entry.name.startswith(prefix)}


def _touch(path: Path) -> None:
    """Bump the archive's mtime so the registry sees a changed file."""
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10_000_000))


class TestSegmentLifecycle:
    def test_refcounted_drain_unlinks_only_after_last_release(self, model_dir):
        path = model_dir / "demo.zip"
        model = load_model(path)
        segment = SharedModelSegment(
            "demo", 1, read_model_payload_bytes(path), model._shared_arrays
        )
        assert segment.acquire()
        assert segment.acquire()
        segment.retire()
        # Retired but pinned twice: the name must stay attachable.
        assert not segment.unlinked()
        probe = shared_memory.SharedMemory(name=segment.name)
        probe.close()
        segment.release()
        assert not segment.unlinked()
        segment.release()
        assert segment.unlinked()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment.name)
        # A retired segment refuses new pins (callers fall back).
        assert not segment.acquire()

    def test_retire_without_pins_unlinks_immediately(self, model_dir):
        path = model_dir / "demo.zip"
        model = load_model(path)
        segment = SharedModelSegment(
            "demo", 1, read_model_payload_bytes(path), model._shared_arrays
        )
        name = segment.name
        assert name in _segment_names()
        segment.retire()
        assert segment.unlinked()
        assert name not in _segment_names()

    def test_attach_rebuilds_a_bit_identical_model(
        self, model_dir, offline_model, serving_rows
    ):
        registry = ModelRegistry(model_dir)
        try:
            model = registry.get("demo")
            segment = registry.shared_segment("demo", model)
            assert segment is not None
            try:
                attached = attach_model(segment.spec)
                assert attached is not None
                assert np.array_equal(
                    attached.predict_proba(serving_rows),
                    offline_model.predict_proba(serving_rows),
                )
                # The attached model's leaves view the mapped segment: no
                # per-node copies were made while rebuilding.
                matrix = attached._shared_arrays
                assert not matrix.flags.writeable
                for node in attached.tree_.iter_nodes():
                    if node.is_leaf:
                        assert np.shares_memory(node.distribution, matrix)
            finally:
                segment.release()
        finally:
            registry.close()

    def test_attach_of_a_gone_segment_returns_none(self):
        spec = {
            "model": "ghost",
            "name": f"{segment_prefix()}-gone",
            "generation": 1,
            "json_size": 2,
            "matrix_offset": 4096,
            "dtype": "<f8",
            "shape": [1, 2],
        }
        assert attach_model(spec) is None

    def test_shared_segment_refuses_a_stale_model_object(self, model_dir):
        registry = ModelRegistry(model_dir)
        try:
            registry.get("demo")
            assert registry.shared_segment("demo", object()) is None
            assert registry.shared_segment("missing", object()) is None
        finally:
            registry.close()


class TestHotReloadRemap:
    def test_reload_during_inflight_batch_drains_after_release(
        self, model_dir, serving_rows
    ):
        """The satellite acceptance test: remap is atomic, drain is deferred.

        A batch pins generation 1's segment; the archive changes; ``get()``
        swaps in generation 2.  The pinned segment must stay attachable and
        keep serving generation 1's exact bits until the batch releases it —
        only then is the backing memory unlinked.
        """
        registry = ModelRegistry(model_dir)
        try:
            old_model = registry.get("demo")
            expected = old_model.predict_proba(serving_rows)
            pinned = registry.shared_segment("demo", old_model)
            assert pinned is not None

            _touch(model_dir / "demo.zip")
            new_model = registry.get("demo")
            assert new_model is not old_model
            # The stale model no longer gets a segment...
            assert registry.shared_segment("demo", old_model) is None
            # ...but the in-flight pin holds the old generation alive.
            assert not pinned.unlinked()
            assert pinned.name in _segment_names()
            attached = attach_model(pinned.spec)
            assert np.array_equal(attached.predict_proba(serving_rows), expected)

            fresh = registry.shared_segment("demo", new_model)
            assert fresh is not None
            assert fresh.generation == pinned.generation + 1
            assert fresh.name != pinned.name
            fresh.release()

            pinned.release()
            assert pinned.unlinked()
            assert pinned.name not in _segment_names()
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=pinned.name)
        finally:
            registry.close()

    def test_refresh_retires_segments_of_dropped_archives(self, model_dir):
        registry = ModelRegistry(model_dir)
        try:
            model = registry.get("demo")
            segment = registry.shared_segment("demo", model)
            assert segment is not None
            segment.release()
            (model_dir / "demo.zip").unlink()
            registry.refresh()
            assert segment.unlinked()
        finally:
            registry.close()

    def test_registry_close_leaves_no_segments_behind(self, model_dir, serving_model):
        serving_model.save(model_dir / "second.zip")
        before = _segment_names()
        registry = ModelRegistry(model_dir)
        published = []
        for name in ("demo", "second"):
            segment = registry.shared_segment(name, registry.get(name))
            assert segment is not None
            segment.release()
            published.append(segment)
        assert {segment.name for segment in published} <= _segment_names()
        registry.close()
        registry.close()  # idempotent
        assert all(segment.unlinked() for segment in published)
        assert _segment_names() <= before


class TestWorkerAttachment:
    def test_pool_serves_from_the_segment_without_the_archive(
        self, model_dir, offline_model, serving_rows
    ):
        """Workers never reopen the archive: a published segment keeps the
        pinned snapshot serveable even after the file is deleted."""
        registry = ModelRegistry(model_dir)
        engine = InferenceEngine(
            registry, max_batch=64, cache_size=0, pool=WorkerPool(1, min_shard_rows=4)
        )
        try:
            model = registry.get("demo")
            # Publish (and immediately unpin) the segment, then remove the
            # archive: only the shared-memory path can serve this batch
            # through the pool now.
            segment = registry.shared_segment("demo", model)
            assert segment is not None
            segment.release()
            (model_dir / "demo.zip").unlink()
            result, _ = engine._invoke(
                "demo", model, np.asarray(serving_rows, dtype=float)
            )
            assert np.array_equal(result, offline_model.predict_proba(serving_rows))
            assert engine.metrics._pool_fallbacks.total() == 0
        finally:
            engine.close()
            registry.close()

    def test_engine_releases_its_pin_after_each_batch(
        self, model_dir, serving_rows
    ):
        registry = ModelRegistry(model_dir)
        engine = InferenceEngine(
            registry, max_batch=64, cache_size=0, pool=WorkerPool(1, min_shard_rows=4)
        )
        try:
            engine.predict_proba("demo", serving_rows)
            model = registry.get("demo")
            segment = registry.shared_segment("demo", model)
            assert segment is not None
            segment.release()
            # No batch is in flight: a retire must drain instantly, which
            # only holds if _invoke released its acquire() in all paths.
            segment.retire()
            assert segment.unlinked()
        finally:
            engine.close()
            registry.close()
