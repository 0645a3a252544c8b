"""The benchmark's own tests, at tiny sizes: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import lifecycle  # noqa: E402
import run as bench  # noqa: E402
from lifecycle import WORKLOADS, Lifecycle, Sizes  # noqa: E402

TINY = Sizes(samples=10, table_scale=0.3, predict_rows=64, reference_rows=16,
             forest_members=3, stream_rows=128, stream_batch=32, serve_rate=50.0,
             serve_requests=12, closed_seconds=0.3, deploys=2)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {entry["name"]: (entry["unit"], entry["better"]) for entry in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {entry["name"]: entry["unit"] for entry in spec["per_layer"]} == bench.PER_LAYER
    assert [entry["name"] for entry in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_reports_every_end_to_end_metric(workload, tmp_path):
    result = bench.run(workload, 3, 0.0, False, sizes=TINY, state=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result = bench.run("reuse", 3, 0.0, True, sizes=TINY, state=tmp_path)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == set(bench.PER_LAYER)
    for name in ("spec.materialise_s", "columnar.store_s", "strategies.search_s",
                 "tree.descend_s", "stream.partial_fit_s", "persistence.load_s"):
        assert metrics[name]["value"] > 0, name
    assert metrics["forest.members_descended"]["value"] >= TINY.forest_members
    assert list(tmp_path.glob("spans-reuse-seed3.json"))


def test_exact_counts_repeat_for_one_seed(tmp_path):
    first = bench.run("reuse", 4, 0.0, False, sizes=TINY, state=tmp_path)
    again = bench.run("reuse", 4, 0.0, False, sizes=TINY, state=tmp_path)
    assert first["failed"] == again["failed"] == 0
    stored = json.loads((tmp_path / "counts-reuse-seed4.json").read_text())
    stored["stream"][1] += 1
    (tmp_path / "counts-reuse-seed4.json").write_text(json.dumps(stored))
    assert bench.run("reuse", 4, 0.0, False, sizes=TINY, state=tmp_path)["failed"] == 1


def test_a_wrong_prediction_counts_as_failed(tmp_path, monkeypatch):
    deploy = Lifecycle.deploy

    def deploy_a_skewed_tree(self, index):
        deploy(self, index)
        honest = self.tree.predict_proba
        self.tree.predict_proba = lambda X: honest(X) * (1.0 + 1e-12)

    monkeypatch.setattr(Lifecycle, "deploy", deploy_a_skewed_tree)
    lc = Lifecycle("reuse", 5, TINY, tmp_path / "work", tmp_path)
    lc.run(0.0)
    assert lc.failed == len(lc.predict_times["tree"]) > 0
    assert all(text.startswith("predict tree") for text in lc.failures)


def test_a_non_200_response_counts_as_failed(tmp_path, monkeypatch):
    class WrongModelClient(lifecycle.KeepAliveClient):
        def __init__(self, host, port, model, rows):
            super().__init__(host, port, "no-such-model", rows)

    monkeypatch.setattr(lifecycle, "KeepAliveClient", WrongModelClient)
    lc = Lifecycle("fresh", 6, TINY, tmp_path / "work", tmp_path)
    lc.run(0.0)
    served = [text for text in lc.failures if text.startswith("serve row")]
    assert served and all("status 404" in text for text in served)
    assert lc.failed == len(served)
