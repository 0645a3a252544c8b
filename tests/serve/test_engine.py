"""Unit tests for the micro-batching :class:`repro.serve.engine.InferenceEngine`."""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.exceptions import ServingError
from repro.obs.trace import Tracer
from repro.serve import InferenceEngine, ModelRegistry


@pytest.fixture
def registry(model_dir):
    return ModelRegistry(model_dir)


def make_engine(registry, **overrides) -> InferenceEngine:
    options = {"max_batch": 16, "max_wait_ms": 2.0, "cache_size": 0}
    options.update(overrides)
    return InferenceEngine(registry, **options)


class TestValidation:
    def test_rejects_bad_configuration(self, registry):
        with pytest.raises(ServingError):
            InferenceEngine(registry, max_batch=0)
        with pytest.raises(ServingError):
            InferenceEngine(registry, max_wait_ms=-1)
        with pytest.raises(ServingError):
            InferenceEngine(registry, cache_size=-1)
        with pytest.raises(ServingError):
            InferenceEngine(registry, max_queue_rows=0)

    @pytest.mark.parametrize("timeout", [0, -1, -0.5])
    def test_rejects_non_positive_request_timeout(self, registry, timeout):
        # request_timeout_s <= 0 would 504 every request instantly — a
        # configured-looking but broken server.
        with pytest.raises(ServingError):
            InferenceEngine(registry, request_timeout_s=timeout)

    @pytest.mark.parametrize("decimals", [-1, -7, 2.5, True])
    def test_rejects_invalid_cache_decimals(self, registry, decimals):
        with pytest.raises(ServingError):
            InferenceEngine(registry, cache_decimals=decimals)

    def test_max_queue_rows_defaults_to_8x_max_batch(self, registry):
        with make_engine(registry, max_batch=16) as engine:
            assert engine.max_queue_rows == 128

    def test_unknown_model(self, registry):
        with make_engine(registry) as engine:
            with pytest.raises(ServingError) as excinfo:
                engine.predict_proba("missing", [[0.0, 0.0, 0.0]])
        assert excinfo.value.status == 404

    def test_wrong_width_fails_without_poisoning_the_batch(self, registry, serving_rows):
        with make_engine(registry, max_wait_ms=20.0, max_batch=64) as engine:
            with ThreadPoolExecutor(max_workers=4) as pool:
                good = [pool.submit(engine.predict_proba, "demo", serving_rows[i])
                        for i in range(3)]
                bad = pool.submit(engine.predict_proba, "demo", [[1.0, 2.0]])
                with pytest.raises(ServingError) as excinfo:
                    bad.result()
                for future in good:
                    assert future.result().shape == (1, 2)
        assert excinfo.value.status == 400

    def test_non_numeric_rows(self, registry):
        with make_engine(registry) as engine:
            with pytest.raises(ServingError) as excinfo:
                engine.predict_proba("demo", [["a", "b", "c"]])
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rows_are_rejected_before_enqueueing(
        self, registry, serving_rows, bad
    ):
        # NaN/Inf features would be classified into garbage probabilities
        # AND cached under their exact bytes; they must 400 pre-enqueue.
        with make_engine(registry, cache_size=64) as engine:
            with pytest.raises(ServingError) as excinfo:
                engine.predict_proba("demo", [[0.0, bad, 0.0]])
            snapshot = engine.metrics.snapshot()
            # The rejection happened before the queue and before the cache:
            # nothing was classified, nothing was recorded as a lookup.
            assert snapshot["batch_count"] == 0
            assert snapshot["cache"]["misses"] == 0
            # A well-formed request afterwards is unaffected.
            assert engine.predict_proba("demo", serving_rows[:2]).shape == (2, 2)
        assert excinfo.value.status == 400
        assert "non-finite" in str(excinfo.value)

    def test_non_finite_error_names_the_offending_row(self, registry):
        with make_engine(registry) as engine:
            with pytest.raises(ServingError) as excinfo:
                engine.predict_proba(
                    "demo", [[0.0, 0.0, 0.0], [0.0, float("nan"), 0.0]]
                )
        assert "row 1" in str(excinfo.value)

    def test_predict_after_close(self, registry):
        engine = make_engine(registry)
        engine.close()
        with pytest.raises(ServingError) as excinfo:
            engine.predict_proba("demo", [[0.0, 0.0, 0.0]])
        assert excinfo.value.status == 503


class TestShapes:
    def test_single_flat_row(self, registry, offline_model, serving_rows):
        with make_engine(registry) as engine:
            result = engine.predict_proba("demo", serving_rows[0])
        assert result.shape == (1, 2)
        assert np.array_equal(result, offline_model.predict_proba(serving_rows[:1]))

    def test_empty_rows(self, registry):
        with make_engine(registry) as engine:
            assert engine.predict_proba("demo", []).shape == (0, 2)
            labels, probabilities = engine.predict("demo", [])
            assert labels.shape == (0,)
            assert probabilities.shape == (0, 2)

    def test_labels_match_offline_predict(self, registry, offline_model, serving_rows):
        with make_engine(registry) as engine:
            labels, _ = engine.predict("demo", serving_rows)
        assert list(labels) == list(offline_model.predict(serving_rows))


class TestCoalescing:
    def test_concurrent_single_rows_are_batched(self, registry, offline_model, serving_rows):
        expected = offline_model.predict_proba(serving_rows)
        with make_engine(registry, max_batch=64, max_wait_ms=10.0) as engine:
            with ThreadPoolExecutor(max_workers=16) as pool:
                results = list(
                    pool.map(lambda i: engine.predict_proba("demo", serving_rows[i]),
                             range(len(serving_rows)))
                )
            snapshot = engine.metrics.snapshot()
        assert np.array_equal(np.vstack(results), expected)
        # Coalescing happened: fewer model invocations than requests.
        assert snapshot["batch_count"] < len(serving_rows)
        assert sum(snapshot["batch_size_histogram"].values()) == snapshot["batch_count"]

    def test_lone_request_is_batched_at_once(self, registry, serving_rows):
        # No other caller is being admitted, so there is no straggler to
        # linger for: max_wait_ms only caps the wait, it is not spent.
        tracer = Tracer("serve", sample_rate=1.0)
        with make_engine(registry, max_batch=64, max_wait_ms=500.0) as engine:
            engine.predict_proba("demo", serving_rows[0])  # warm-up: model load
            trace = tracer.begin()
            started = time.perf_counter()
            engine.predict_proba("demo", serving_rows[1], trace=trace)
            elapsed = time.perf_counter() - started
            trace.finish()
        (assembly,) = [
            span for span in tracer.buffer.spans() if span.name == "batch_assembly"
        ]
        assert elapsed < 0.1
        assert assembly.duration_ms < 1.0

    def test_admission_count_survives_concurrent_callers(
        self, registry, offline_model, serving_rows
    ):
        # More callers than cores and frequent thread switches, leaving by
        # every route (queued, cached, shed with 429, no rows, invalid rows,
        # unknown model): a leaked or lost update would leave the count off
        # zero, and every later lone request would linger in full.
        expected = offline_model.predict_proba(serving_rows)
        refused = ([[1.0, 2.0]], [[np.nan, 0.0, 0.0]])
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with make_engine(
                registry, max_batch=4, max_wait_ms=5.0, max_queue_rows=4, cache_size=8
            ) as engine:

                def call(index: int):
                    route = index % 8
                    if route < len(refused):
                        with pytest.raises(ServingError):
                            engine.predict_proba("demo", refused[route])
                        return None
                    if route == 2:
                        with pytest.raises(ServingError):
                            engine.predict_proba("missing", serving_rows[0])
                        return None
                    if route == 3:
                        assert engine.predict_proba("demo", np.empty((0, 3))).shape == (0, 2)
                        return None
                    row = index % len(serving_rows)
                    try:
                        return row, engine.predict_proba("demo", serving_rows[row])
                    except ServingError as exc:
                        assert exc.status == 429
                        return None

                with ThreadPoolExecutor(max_workers=16) as pool:
                    outcomes = list(pool.map(call, range(1000)))
                assert engine._admitting == 0
        finally:
            sys.setswitchinterval(previous)
        served = [outcome for outcome in outcomes if outcome is not None]
        assert served
        for row, result in served:
            assert np.array_equal(result, expected[row:row + 1])

    def test_max_batch_1_disables_coalescing(self, registry, serving_rows):
        with make_engine(registry, max_batch=1, max_wait_ms=10.0) as engine:
            for row in serving_rows[:5]:
                engine.predict_proba("demo", row)
            snapshot = engine.metrics.snapshot()
        assert snapshot["batch_count"] == 5
        assert snapshot["batch_size_histogram"] == {"1": 5}

    def test_oversized_request_is_served_whole(self, registry, offline_model, serving_rows):
        with make_engine(registry, max_batch=4) as engine:
            result = engine.predict_proba("demo", serving_rows)
        assert np.array_equal(result, offline_model.predict_proba(serving_rows))


class TestCache:
    def test_repeat_rows_hit_the_cache(self, registry, serving_rows):
        with make_engine(registry, cache_size=64) as engine:
            first = engine.predict_proba("demo", serving_rows[:5])
            second = engine.predict_proba("demo", serving_rows[:5])
            snapshot = engine.metrics.snapshot()
        assert np.array_equal(first, second)
        assert snapshot["cache"] == {"hits": 5, "misses": 5, "hit_rate": 0.5}
        # Only the misses reached the model.
        assert snapshot["batch_count"] == 1

    def test_partial_hits_merge_with_fresh_rows(self, registry, offline_model,
                                                serving_rows):
        with make_engine(registry, cache_size=64) as engine:
            engine.predict_proba("demo", serving_rows[:3])
            mixed = engine.predict_proba("demo", serving_rows[:6])
            snapshot = engine.metrics.snapshot()
        assert np.array_equal(mixed, offline_model.predict_proba(serving_rows[:6]))
        assert snapshot["cache"]["hits"] == 3

    def test_lru_eviction_respects_cache_size(self, registry, serving_rows):
        with make_engine(registry, cache_size=4) as engine:
            engine.predict_proba("demo", serving_rows[:8])
            engine.predict_proba("demo", serving_rows[:8])
            snapshot = engine.metrics.snapshot()
        # All 8 keys cannot fit in 4 slots, so the second pass misses too.
        assert snapshot["cache"]["hits"] < 8

    def test_cache_disabled(self, registry, serving_rows):
        with make_engine(registry, cache_size=0) as engine:
            engine.predict_proba("demo", serving_rows[:3])
            engine.predict_proba("demo", serving_rows[:3])
            snapshot = engine.metrics.snapshot()
        assert snapshot["cache"] == {"hits": 0, "misses": 0, "hit_rate": 0.0}
        assert snapshot["batch_count"] == 2

    def test_exact_keys_distinguish_near_identical_rows(self, registry):
        import numpy as np

        with make_engine(registry, cache_size=16) as engine:
            near = engine._cache_key(np.array([0.5 + 1e-13, 0.0, 0.0]))
            exact = engine._cache_key(np.array([0.5, 0.0, 0.0]))
        # Default keying is bitwise: a sub-ulp difference is a different key,
        # so the cache can never serve one row another row's probabilities.
        assert near != exact

    def test_cache_decimals_opt_in_rounds_keys(self, registry):
        import numpy as np

        with make_engine(registry, cache_size=16, cache_decimals=12) as engine:
            near = engine._cache_key(np.array([0.5 + 1e-13, 0.0, 0.0]))
            exact = engine._cache_key(np.array([0.5, 0.0, 0.0]))
        assert near == exact

    def test_hot_reload_invalidates_cache(self, registry, model_dir, serving_model,
                                          serving_rows):
        with make_engine(registry, cache_size=64) as engine:
            engine.predict_proba("demo", serving_rows[:3])
            serving_model.save(model_dir / "demo.zip")
            path = model_dir / "demo.zip"
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10_000_000))
            engine.predict_proba("demo", serving_rows[:3])
            snapshot = engine.metrics.snapshot()
        assert snapshot["cache"]["hits"] == 0
        assert snapshot["cache"]["misses"] == 6
