"""Overload-path tests: cancellation, admission control, queue accounting.

The serving-side analogue of the paper's pruning guarantee: work that
provably cannot change any answer a caller will see (a timed-out request's
rows) is dropped, not computed, and sustained overload degrades into fast
429 rejections instead of a queue where everything times out while the
coalescer burns CPU on dead rows.

The engine's ``_invoke`` is wrapped (never replaced) in these tests: the
wrapper records every matrix that reaches classification and can hold the
coalescer on an event, which makes "the queue is full" and "the worker is
busy" deterministic states instead of races.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.exceptions import ServingError
from repro.serve import InferenceEngine, ModelRegistry, ServingClient, create_server


@pytest.fixture
def registry(model_dir):
    return ModelRegistry(model_dir)


class _InvokeSpy:
    """Wraps ``engine._invoke``: records classified matrices, can block."""

    def __init__(self, engine, block: bool = False):
        self._real = engine._invoke
        self.matrices: list = []
        self.started = threading.Event()
        self.release = threading.Event()
        if not block:
            self.release.set()
        engine._invoke = self  # instance attribute shadows the bound method

    def __call__(self, model_name, model, matrix):
        self.matrices.append(np.array(matrix))
        self.started.set()
        assert self.release.wait(timeout=10.0)
        return self._real(model_name, model, matrix)

    @property
    def classified_rows(self) -> int:
        return sum(len(matrix) for matrix in self.matrices)


def make_engine(registry, **overrides) -> InferenceEngine:
    options = {"max_batch": 16, "max_wait_ms": 0.0, "cache_size": 0}
    options.update(overrides)
    return InferenceEngine(registry, **options)


class TestCancellation:
    def test_timed_out_request_is_never_classified(self, registry, serving_rows):
        with make_engine(
            registry, max_batch=1, request_timeout_s=0.25
        ) as engine:
            spy = _InvokeSpy(engine, block=True)
            first_error: list = []

            def first_request():
                try:
                    engine.predict_proba("demo", serving_rows[0])
                except ServingError as exc:
                    first_error.append(exc)

            occupant = threading.Thread(target=first_request)
            occupant.start()
            assert spy.started.wait(timeout=5.0)
            # The coalescer is now busy with the first row; this request
            # waits in the queue past its deadline and must be abandoned.
            with pytest.raises(ServingError) as excinfo:
                engine.predict_proba("demo", serving_rows[1])
            assert excinfo.value.status == 504
            assert "abandoned" in str(excinfo.value)
            spy.release.set()
            occupant.join(timeout=5.0)
            # Give the coalescer one tick to drain the (empty) queue.
            time.sleep(0.05)
            snapshot = engine.metrics.snapshot()
        # The victim's row never reached _invoke — only the occupant's did.
        assert spy.classified_rows == 1
        assert np.array_equal(spy.matrices[0], serving_rows[:1])
        assert snapshot["requests_abandoned"] == 1
        assert snapshot["rows_abandoned"] == 1
        # The occupant also timed out (its batch was already claimed), but
        # as plain 504: claimed work is classified, only delivery is lost.
        assert first_error and first_error[0].status == 504
        assert "abandoned" not in str(first_error[0])

    def test_cancelled_rows_free_queue_capacity_immediately(
        self, registry, serving_rows
    ):
        with make_engine(
            registry, max_batch=1, max_queue_rows=1, request_timeout_s=0.2
        ) as engine:
            spy = _InvokeSpy(engine, block=True)
            threading.Thread(
                target=lambda: _swallow(engine.predict_proba, "demo", serving_rows[0])
            ).start()
            assert spy.started.wait(timeout=5.0)
            # Fills the 1-row queue, then times out and is abandoned.
            with pytest.raises(ServingError):
                engine.predict_proba("demo", serving_rows[1])
            # Its slot must be free again: this enqueue is admitted (and
            # then times out itself) rather than being 429-rejected.
            with pytest.raises(ServingError) as excinfo:
                engine.predict_proba("demo", serving_rows[2])
            assert excinfo.value.status == 504
            spy.release.set()

    def test_queue_counters_return_to_zero_after_traffic(
        self, registry, serving_rows
    ):
        with make_engine(registry, max_wait_ms=2.0) as engine:
            engine.predict_proba("demo", serving_rows)
            snapshot = engine.metrics.snapshot()
            assert snapshot["queue"]["rows"] == 0
            assert engine._queued_rows == {}
            assert engine._total_queued_rows == 0


def _swallow(fn, *args):
    try:
        fn(*args)
    except ServingError:
        pass


class TestAdmissionControl:
    def test_full_queue_rejects_fast_with_429(
        self, registry, offline_model, serving_rows
    ):
        with make_engine(
            registry, max_batch=4, max_queue_rows=4, request_timeout_s=10.0
        ) as engine:
            spy = _InvokeSpy(engine, block=True)
            results: dict = {}
            occupant = threading.Thread(
                target=lambda: results.update(a=engine.predict_proba("demo", serving_rows[0]))
            )
            occupant.start()
            assert spy.started.wait(timeout=5.0)
            queued = threading.Thread(
                target=lambda: results.update(b=engine.predict_proba("demo", serving_rows[1:5]))
            )
            queued.start()
            _wait_until(lambda: engine._total_queued_rows == 4)
            started = time.perf_counter()
            with pytest.raises(ServingError) as excinfo:
                engine.predict_proba("demo", serving_rows[5])
            elapsed = time.perf_counter() - started
            spy.release.set()
            occupant.join(timeout=5.0)
            queued.join(timeout=5.0)
            snapshot = engine.metrics.snapshot()
            # The shed caller ended its admission: later lone requests do
            # not linger for it.
            assert engine._admitting == 0
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after is not None
        # "Fast" means enqueue-time rejection, not a timeout in disguise.
        # The acceptance bar is 50 ms; allow CI scheduling noise.
        assert elapsed < 0.5
        assert snapshot["requests_rejected"] == 1
        assert snapshot["rows_rejected"] == 1
        # In-flight and queued work still completed, bit-identically.
        assert np.array_equal(results["a"], offline_model.predict_proba(serving_rows[:1]))
        assert np.array_equal(results["b"], offline_model.predict_proba(serving_rows[1:5]))
        # The rejected row was never classified.
        assert spy.classified_rows == 5

    def test_empty_queue_admits_oversized_requests(
        self, registry, offline_model, serving_rows
    ):
        # The bound throttles concurrency, never request size: a request
        # larger than max_queue_rows is admitted when the queue is empty
        # (and served whole, as before admission control existed).
        with make_engine(registry, max_batch=4, max_queue_rows=8) as engine:
            result = engine.predict_proba("demo", serving_rows)  # 24 rows > 8
        assert np.array_equal(result, offline_model.predict_proba(serving_rows))

    def test_rejections_do_not_poison_later_requests(
        self, registry, offline_model, serving_rows
    ):
        with make_engine(
            registry, max_batch=2, max_queue_rows=2, request_timeout_s=10.0
        ) as engine:
            spy = _InvokeSpy(engine, block=True)
            threading.Thread(
                target=lambda: _swallow(engine.predict_proba, "demo", serving_rows[:2])
            ).start()
            assert spy.started.wait(timeout=5.0)
            threading.Thread(
                target=lambda: _swallow(engine.predict_proba, "demo", serving_rows[2:4])
            ).start()
            _wait_until(lambda: engine._total_queued_rows == 2)
            with pytest.raises(ServingError):
                engine.predict_proba("demo", serving_rows[4])
            spy.release.set()
            # After the spike drains, the engine serves normally again.
            _wait_until(lambda: engine._total_queued_rows == 0)
            result = engine.predict_proba("demo", serving_rows[4:8])
        assert np.array_equal(result, offline_model.predict_proba(serving_rows[4:8]))


class TestPerModelQuota:
    @pytest.fixture
    def two_model_dir(self, tmp_path, serving_model):
        """Two archives of the same fitted model, served as 'hot' and 'cold'."""
        serving_model.save(tmp_path / "hot.zip")
        serving_model.save(tmp_path / "cold.zip")
        return tmp_path

    def test_default_quota_is_half_the_shared_bound(self, registry):
        with make_engine(registry, max_queue_rows=64) as engine:
            assert engine.max_queue_rows_per_model == 32
        with make_engine(
            registry, max_queue_rows=64, max_queue_rows_per_model=5
        ) as engine:
            assert engine.max_queue_rows_per_model == 5

    def test_invalid_quota_is_rejected(self, registry):
        with pytest.raises(ServingError):
            make_engine(registry, max_queue_rows_per_model=0)

    def test_hot_model_sheds_while_other_models_stay_admitted(
        self, two_model_dir, offline_model, serving_rows
    ):
        registry = ModelRegistry(two_model_dir)
        with make_engine(
            registry,
            max_batch=1,
            max_queue_rows=100,
            max_queue_rows_per_model=2,
            request_timeout_s=10.0,
        ) as engine:
            spy = _InvokeSpy(engine, block=True)
            results: dict = {}
            occupant = threading.Thread(
                target=lambda: results.update(
                    hot=engine.predict_proba("hot", serving_rows[0])
                )
            )
            occupant.start()
            assert spy.started.wait(timeout=5.0)
            # Fill the hot model's quota (2 rows) while the coalescer is busy.
            backlog = threading.Thread(
                target=lambda: results.update(
                    backlog=engine.predict_proba("hot", serving_rows[1:3])
                )
            )
            backlog.start()
            _wait_until(lambda: engine._queued_rows.get("hot", 0) == 2)
            # The hot model is over its quota: shed, naming the model —
            # even though the shared queue (100 rows) is nowhere near full.
            with pytest.raises(ServingError) as excinfo:
                engine.predict_proba("hot", serving_rows[3])
            assert excinfo.value.status == 429
            assert "hot" in str(excinfo.value)
            assert excinfo.value.retry_after is not None
            # The other model's admission budget is untouched: its request
            # enqueues instead of being rejected.
            cold = threading.Thread(
                target=lambda: results.update(
                    cold=engine.predict_proba("cold", serving_rows[4:8])
                )
            )
            cold.start()
            _wait_until(lambda: engine._queued_rows.get("cold", 0) == 4)
            snapshot = engine.metrics.snapshot()
            spy.release.set()
            occupant.join(timeout=5.0)
            backlog.join(timeout=5.0)
            cold.join(timeout=5.0)
        # Everything admitted was served, bit-identically.
        assert np.array_equal(results["hot"], offline_model.predict_proba(serving_rows[:1]))
        assert np.array_equal(
            results["backlog"], offline_model.predict_proba(serving_rows[1:3])
        )
        assert np.array_equal(
            results["cold"], offline_model.predict_proba(serving_rows[4:8])
        )
        # The rejection is attributed to the hot model in /metrics, and the
        # per-model backlog gauge saw both models' queues.
        assert snapshot["requests_rejected_by_model"] == {"hot": 1}
        assert snapshot["queue"]["max_rows_per_model"] == 2
        assert snapshot["queue"]["rows_by_model"] == {"hot": 2, "cold": 4}

    def test_empty_per_model_queue_admits_oversized_requests(
        self, two_model_dir, offline_model, serving_rows
    ):
        # The quota mirrors the shared bound's rule: it throttles a model's
        # concurrency, never its request size.
        registry = ModelRegistry(two_model_dir)
        with make_engine(
            registry, max_batch=4, max_queue_rows=100, max_queue_rows_per_model=2
        ) as engine:
            result = engine.predict_proba("hot", serving_rows)  # 24 rows > 2
        assert np.array_equal(result, offline_model.predict_proba(serving_rows))


def _wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.002)
    raise AssertionError("condition never became true")


class TestHTTPOverload:
    @pytest.fixture
    def overloaded_server(self, model_dir):
        server = create_server(
            model_dir,
            port=0,
            max_batch=4,
            max_queue_rows=4,
            max_wait_ms=0.0,
            cache_size=0,
            request_timeout_s=10.0,
        )
        spy = _InvokeSpy(server.engine, block=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server, spy
        spy.release.set()
        server.close()
        thread.join(timeout=5.0)

    def _saturate(self, server, spy, client, serving_rows):
        """Occupy the coalescer and fill the queue; returns the two threads."""
        occupant = threading.Thread(
            target=lambda: client.predict("demo", serving_rows[0])
        )
        occupant.start()
        assert spy.started.wait(timeout=5.0)
        queued = threading.Thread(
            target=lambda: client.predict("demo", serving_rows[1:5])
        )
        queued.start()
        _wait_until(lambda: server.engine._total_queued_rows == 4)
        return occupant, queued

    def test_429_carries_retry_after_header_and_hint(
        self, overloaded_server, serving_rows
    ):
        server, spy = overloaded_server
        client = ServingClient(server.url)
        occupant, queued = self._saturate(server, spy, client, serving_rows)
        with pytest.raises(ServingError) as excinfo:
            client.predict("demo", serving_rows[5])
        spy.release.set()
        occupant.join(timeout=5.0)
        queued.join(timeout=5.0)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after > 0
        metrics = client.metrics()
        assert metrics["requests_rejected"] >= 1
        assert metrics["errors"].get("429", 0) >= 1
        assert metrics["queue"]["max_rows"] == 4

    def test_client_retries_429_until_admitted(
        self, overloaded_server, offline_model, serving_rows
    ):
        server, spy = overloaded_server
        client = ServingClient(server.url)
        occupant, queued = self._saturate(server, spy, client, serving_rows)
        # Release the coalescer shortly after the first rejection; the
        # retry loop must then get through on a later attempt.
        threading.Timer(0.1, spy.release.set).start()
        result = client.predict(
            "demo", serving_rows[5], retries_429=20, retry_max_wait_s=0.1
        )
        occupant.join(timeout=5.0)
        queued.join(timeout=5.0)
        assert np.array_equal(
            result.probabilities, offline_model.predict_proba(serving_rows[5:6])
        )
