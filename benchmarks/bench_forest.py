"""Forest workload — accuracy vs ensemble size, plus parallel-training speedup.

The new workload axis opened by :mod:`repro.ensemble`: on the fig-4 noise
model (Segment stand-in point data perturbed with Gaussian noise of
magnitude ``u``, then modelled with pdfs of width ``w``), a bagged
:class:`~repro.ensemble.UDTForestClassifier` is trained at several ensemble
sizes and compared against the single UDT tree with the same spec.  The
classical bagging expectation — the forest meets or beats the single
high-variance tree at some ensemble size — is asserted, and the
parallel-training speedup of ``n_jobs = cpu_count`` over sequential
training is recorded (and asserted ≥ 1.3x when at least 4 CPUs exist;
the forest itself is bit-identical either way, which is also asserted).

Records in ``BENCH_forest.json``:

* one record per ensemble size with ``accuracy`` and ``train_seconds``;
* one ``single_tree`` record (the w-matched UDT baseline);
* a ``parallel`` extra block with sequential/parallel wall times and the
  speedup.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.data.uci import load_dataset
from repro.data.uncertainty import perturb_points
from repro.api.spec import gaussian
from repro.core.udt import UDTClassifier
from repro.ensemble import UDTForestClassifier
from repro.eval.crossval import train_test_split

from helpers import BENCH_SAMPLES, BENCH_SCALE, save_artifact, save_json_artifact

#: Fig-4 noise model parameters: perturbation magnitude u and pdf width w.
_PERTURBATION = 0.10
_WIDTH = 0.10

#: Ensemble sizes swept for the accuracy-vs-size curve.
_ENSEMBLE_SIZES = (1, 3, 7, 11)

#: Member trees used for the parallel-speedup measurement.
_SPEEDUP_TREES = 8


def _fig4_arrays(seed: int = 23):
    """Point arrays of the fig-4 noise model (perturbed Segment stand-in)."""
    base, _, _ = load_dataset("Segment", scale=BENCH_SCALE * 0.3, seed=seed)
    rng = np.random.default_rng(seed + 1)
    perturbed = perturb_points(base, perturbation_fraction=_PERTURBATION, rng=rng)
    training, test = train_test_split(
        perturbed, test_fraction=0.3, rng=np.random.default_rng(seed + 2)
    )

    def as_arrays(dataset):
        X = np.array([item.mean_vector() for item in dataset], dtype=float)
        y = [item.label for item in dataset]
        return X, y

    return as_arrays(training), as_arrays(test)


def _forest(n_trees: int, n_jobs: int = 1) -> UDTForestClassifier:
    return UDTForestClassifier(
        n_estimators=n_trees,
        spec=gaussian(w=_WIDTH, s=BENCH_SAMPLES),
        n_jobs=n_jobs,
        random_state=7,
    )


def bench_forest(benchmark):
    """Accuracy vs ensemble size on the fig-4 noise model, plus speedup."""
    (X_train, y_train), (X_test, y_test) = _fig4_arrays()

    # The w-matched single-tree baseline the ensemble must meet or beat.
    started = time.perf_counter()
    tree = UDTClassifier(spec=gaussian(w=_WIDTH, s=BENCH_SAMPLES)).fit(X_train, y_train)
    tree_seconds = time.perf_counter() - started
    tree_accuracy = tree.score(X_test, y_test)

    records = [
        {
            "model": "single_tree",
            "n_trees": 1,
            "accuracy": tree_accuracy,
            "train_seconds": tree_seconds,
        }
    ]
    forest_accuracies = {}
    for n_trees in _ENSEMBLE_SIZES:
        started = time.perf_counter()
        forest = _forest(n_trees).fit(X_train, y_train)
        elapsed = time.perf_counter() - started
        accuracy = forest.score(X_test, y_test)
        forest_accuracies[n_trees] = accuracy
        records.append(
            {
                "model": "udt_forest",
                "n_trees": n_trees,
                "accuracy": accuracy,
                "train_seconds": elapsed,
            }
        )

    # Parallel-training speedup: same forest, all cores vs one.
    cpu_count = os.cpu_count() or 1
    started = time.perf_counter()
    sequential = _forest(_SPEEDUP_TREES, n_jobs=1).fit(X_train, y_train)
    sequential_seconds = time.perf_counter() - started
    started = time.perf_counter()
    parallel = _forest(_SPEEDUP_TREES, n_jobs=cpu_count).fit(X_train, y_train)
    parallel_seconds = time.perf_counter() - started
    speedup = sequential_seconds / parallel_seconds if parallel_seconds else 0.0
    assert np.array_equal(
        sequential.predict_proba(X_test), parallel.predict_proba(X_test)
    ), "parallel training must be bit-identical to sequential"

    benchmark(lambda: _forest(3).fit(X_train, y_train))

    best_size = max(forest_accuracies, key=forest_accuracies.get)
    lines = [
        f"{'model':<14} {'trees':>5} {'accuracy':>9} {'train s':>9}",
        *(
            f"{r['model']:<14} {r['n_trees']:>5} {r['accuracy']:>9.4f} "
            f"{r['train_seconds']:>9.3f}"
            for r in records
        ),
        "",
        f"single UDT tree accuracy:       {tree_accuracy:.4f}",
        f"best forest accuracy:           {forest_accuracies[best_size]:.4f} "
        f"(at {best_size} trees)",
        f"parallel training ({_SPEEDUP_TREES} trees): "
        f"{sequential_seconds:.2f}s sequential vs {parallel_seconds:.2f}s "
        f"at n_jobs={cpu_count} -> {speedup:.2f}x",
    ]
    save_artifact(
        "forest",
        f"Forests on the fig-4 noise model (u = {_PERTURBATION}, w = {_WIDTH})",
        "\n".join(lines),
    )
    save_json_artifact(
        "forest",
        records,
        params={
            "seed": 23,
            "perturbation_fraction": _PERTURBATION,
            "width_fraction": _WIDTH,
            "cpu_count": cpu_count,
        },
        extra={
            "parallel": {
                "n_trees": _SPEEDUP_TREES,
                "n_jobs": cpu_count,
                "sequential_seconds": sequential_seconds,
                "parallel_seconds": parallel_seconds,
                "speedup": speedup,
            },
            "single_tree_accuracy": tree_accuracy,
            "best_forest_accuracy": forest_accuracies[best_size],
            "best_forest_size": best_size,
        },
    )

    # Bagging must pay for itself at some ensemble size.
    assert forest_accuracies[best_size] >= tree_accuracy, (
        f"no ensemble size beat the single tree "
        f"({forest_accuracies} vs {tree_accuracy})"
    )
    # Speedup is hardware-dependent; only assert where cores clearly exist.
    if cpu_count >= 4:
        assert speedup >= 1.3, f"expected >= 1.3x at {cpu_count} CPUs, got {speedup:.2f}x"
