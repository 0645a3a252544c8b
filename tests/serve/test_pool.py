"""Tests for the sharded multi-process :class:`repro.serve.pool.WorkerPool`.

The contract under test: sharding a coalesced batch across worker processes
(each rebuilding the model from its archive) returns bit-identical
probabilities to one in-process ``predict_proba`` call — through the bare
pool, through an engine configured with one, and over the full HTTP stack.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.exceptions import ServingError
from repro.serve import (
    InferenceEngine,
    ModelRegistry,
    ServingClient,
    WorkerPool,
    create_server,
)


class TestValidation:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ServingError):
            WorkerPool(0)
        with pytest.raises(ServingError):
            WorkerPool(2, min_shard_rows=0)

    def test_create_server_rejects_bad_worker_count(self, model_dir):
        with pytest.raises(ServingError):
            create_server(model_dir, workers=0)

    def test_closed_pool_refuses_work(self, model_dir):
        pool = WorkerPool(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ServingError) as excinfo:
            pool.predict_proba(model_dir / "demo.zip", np.zeros((2, 3)))
        assert excinfo.value.status == 503


class TestSharding:
    def test_shard_count_respects_min_shard_rows(self):
        pool = WorkerPool(4, min_shard_rows=8)
        try:
            assert pool._n_shards(1) == 1
            assert pool._n_shards(8) == 1
            assert pool._n_shards(16) == 2
            assert pool._n_shards(64) == 4
            assert pool._n_shards(10_000) == 4
        finally:
            pool.close()

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_pool_matches_offline_bit_for_bit(
        self, model_dir, offline_model, serving_rows, n_workers
    ):
        expected = offline_model.predict_proba(serving_rows)
        with WorkerPool(n_workers, min_shard_rows=4) as pool:
            result = pool.predict_proba(model_dir / "demo.zip", serving_rows)
        assert np.array_equal(result, expected)

    def test_single_row_batch(self, model_dir, offline_model, serving_rows):
        with WorkerPool(2) as pool:
            result = pool.predict_proba(model_dir / "demo.zip", serving_rows[:1])
        assert np.array_equal(result, offline_model.predict_proba(serving_rows[:1]))


class TestSnapshotPinning:
    def test_wrong_token_is_refused(self, model_dir, serving_rows):
        with WorkerPool(1) as pool:
            result = pool.predict_proba(
                model_dir / "demo.zip", serving_rows[:2], expected_token=(0, 0)
            )
        assert result is None

    def test_matching_token_is_served(self, model_dir, offline_model, serving_rows):
        stat = (model_dir / "demo.zip").stat()
        token = (stat.st_mtime_ns, stat.st_size)
        with WorkerPool(1) as pool:
            result = pool.predict_proba(
                model_dir / "demo.zip", serving_rows[:2], expected_token=token
            )
        assert np.array_equal(result, offline_model.predict_proba(serving_rows[:2]))

    def test_missing_file_is_refused_not_raised(self, model_dir, serving_rows):
        with WorkerPool(1) as pool:
            result = pool.predict_proba(model_dir / "gone.zip", serving_rows[:2])
        assert result is None

    def test_registry_snapshot_token(self, model_dir, serving_model):
        registry = ModelRegistry(model_dir)
        model = registry.get("demo")
        snapshot = registry.snapshot_token("demo", model)
        assert snapshot is not None
        path, token = snapshot
        assert path == model_dir / "demo.zip"
        stat = path.stat()
        assert token == (stat.st_mtime_ns, stat.st_size)
        # A stale model object (not the current load) gets no token.
        assert registry.snapshot_token("demo", object()) is None
        assert registry.snapshot_token("missing", model) is None

    def test_hot_reload_during_flight_falls_back_to_the_snapshot(
        self, model_dir, serving_model, serving_rows
    ):
        # A batch validated against snapshot M1 whose archive changes before
        # the pool invocation must be served in-process with M1's exact
        # bits, never with whatever now sits on disk.
        import os

        registry = ModelRegistry(model_dir)
        engine = InferenceEngine(
            registry, max_batch=16, cache_size=0, pool=WorkerPool(1, min_shard_rows=4)
        )
        try:
            model = registry.get("demo")
            expected = model.predict_proba(serving_rows)
            path = model_dir / "demo.zip"
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10_000_000))
            # The snapshot token no longer matches the file: _invoke must
            # refuse the pool and classify with the snapshot object.
            result, _ = engine._invoke("demo", model, np.asarray(serving_rows, dtype=float))
        finally:
            engine.close()
        assert np.array_equal(result, expected)


class TestEngineIntegration:
    def test_engine_with_pool_matches_in_process_engine(
        self, model_dir, serving_rows
    ):
        registry = ModelRegistry(model_dir)
        with InferenceEngine(registry, max_batch=64, cache_size=0) as engine:
            expected = engine.predict_proba("demo", serving_rows)
        with InferenceEngine(
            registry,
            max_batch=64,
            cache_size=0,
            pool=WorkerPool(2, min_shard_rows=4),
        ) as engine:
            result = engine.predict_proba("demo", serving_rows)
        assert np.array_equal(result, expected)

    def test_pool_batches_record_inference_only(self, model_dir, serving_rows):
        # Materialise and descend happen inside the workers, so a pooled
        # batch records the inference stage alone.
        registry = ModelRegistry(model_dir)
        with InferenceEngine(
            registry, max_batch=64, cache_size=0, pool=WorkerPool(1, min_shard_rows=4)
        ) as engine:
            engine.predict_proba("demo", serving_rows)
            stages = {values[0] for values, _ in engine.metrics._stage_latency.children()}
            assert engine.metrics._pool_fallbacks.total() == 0
        assert "inference" in stages
        assert not stages & {"materialise", "descend"}

    def test_concurrent_coalesced_requests_through_pool(
        self, model_dir, offline_model, serving_rows
    ):
        expected = offline_model.predict_proba(serving_rows)
        registry = ModelRegistry(model_dir)
        with InferenceEngine(
            registry,
            max_batch=64,
            max_wait_ms=10.0,
            cache_size=0,
            pool=WorkerPool(2, min_shard_rows=4),
        ) as engine:
            with ThreadPoolExecutor(max_workers=8) as executor:
                results = list(
                    executor.map(
                        lambda i: engine.predict_proba("demo", serving_rows[i]),
                        range(len(serving_rows)),
                    )
                )
        assert np.array_equal(np.vstack(results), expected)

    def test_broken_pool_degrades_to_in_process_serving(
        self, model_dir, offline_model, serving_rows
    ):
        # A pool whose workers died (OOM kill, executor shutdown) must not
        # turn every request into an error: the engine falls back to
        # classifying in-process with the snapshot it already holds.
        registry = ModelRegistry(model_dir)
        pool = WorkerPool(1, min_shard_rows=4)
        with InferenceEngine(
            registry, max_batch=64, cache_size=0, pool=pool
        ) as engine:
            pool._executor.shutdown(wait=True)  # simulate a dead pool
            result = engine.predict_proba("demo", serving_rows)
        assert np.array_equal(result, offline_model.predict_proba(serving_rows))

    def test_engine_close_closes_the_pool(self, model_dir):
        registry = ModelRegistry(model_dir)
        pool = WorkerPool(1)
        engine = InferenceEngine(registry, cache_size=0, pool=pool)
        engine.close()
        with pytest.raises(ServingError):
            pool.predict_proba(model_dir / "demo.zip", np.zeros((1, 3)))


class TestHTTP:
    def test_workers_flag_over_http_matches_offline(
        self, model_dir, offline_model, serving_rows
    ):
        expected = offline_model.predict_proba(serving_rows)
        server = create_server(
            model_dir, port=0, max_batch=16, max_wait_ms=1.0, cache_size=0, workers=2
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServingClient(server.url)
            result = client.predict("demo", serving_rows)
        finally:
            server.close()
            thread.join(timeout=5.0)
        assert np.array_equal(result.probabilities, expected)
        assert result.labels == list(offline_model.predict(serving_rows))
