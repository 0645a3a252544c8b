"""E2 — Table 3: classification accuracy of AVG vs UDT on the ten datasets.

For every Table 2 dataset stand-in the driver evaluates the Averaging and
Distribution-based classifiers under the paper's error models and collects
one Table 3 style row per configuration.  The benchmark fixture times a
single representative UDT training run per dataset; the full accuracy sweep
runs once and its rows are written to ``benchmarks/results/table3_accuracy.txt``.

Expected shape (not absolute numbers): UDT accuracy >= AVG accuracy for most
datasets and widths, with the best case clearly positive; integer-domain
datasets favour the uniform error model.
"""

from __future__ import annotations

import pytest

from repro.core import UDTClassifier
from repro.data import inject_uncertainty, load_dataset
from repro.eval import AccuracyExperiment, format_accuracy_results

from helpers import BENCH_SAMPLES, BENCH_SCALE, save_artifact, save_json_artifact

#: Datasets evaluated by cross validation get fewer folds at bench scale.
_BENCH_FOLDS = 3

#: Width sweep — a subset of the paper's {1 %, 5 %, 10 %, 20 %}.
_WIDTHS = (0.05, 0.10)

#: (dataset, error models) pairs following Table 3: uniform is tried for the
#: integer-domain datasets, Gaussian everywhere.
_CONFIGS = [
    ("JapaneseVowel", ("gaussian",)),
    ("PenDigits", ("gaussian", "uniform")),
    ("PageBlock", ("gaussian",)),
    ("Satellite", ("gaussian", "uniform")),
    ("Segment", ("gaussian",)),
    ("Vehicle", ("gaussian", "uniform")),
    ("BreastCancer", ("gaussian",)),
    ("Ionosphere", ("gaussian",)),
    ("Glass", ("gaussian",)),
    ("Iris", ("gaussian",)),
]

#: Extra scale reduction for the large train/test datasets so the accuracy
#: sweep stays in bench territory.
_EXTRA_SCALE = {"PenDigits": 0.06, "Satellite": 0.08, "PageBlock": 0.1, "Segment": 0.3}

_collected_rows = []


def _dataset_scale(name: str) -> float:
    return BENCH_SCALE * _EXTRA_SCALE.get(name, 1.0)


@pytest.mark.parametrize("name,error_models", _CONFIGS, ids=[c[0] for c in _CONFIGS])
def bench_table3_dataset(benchmark, name, error_models):
    """Accuracy sweep for one dataset; the benchmark times one UDT fit."""
    scale = _dataset_scale(name)
    experiment = AccuracyExperiment(
        name, scale=scale, n_samples=BENCH_SAMPLES, n_folds=_BENCH_FOLDS, seed=17
    )
    results = experiment.run(width_fractions=_WIDTHS, error_models=error_models)
    _collected_rows.extend(results)

    # Benchmark one representative UDT training run on this dataset.
    training, _, spec = load_dataset(name, scale=scale, seed=17)
    if not spec.repeated_measurements:
        training = inject_uncertainty(
            training, width_fraction=0.10, n_samples=BENCH_SAMPLES, error_model=error_models[0]
        )
    benchmark(lambda: UDTClassifier(strategy="UDT-ES").fit(training))

    # Shape check: UDT should not lose badly to AVG in any configuration.
    # (At bench scale the per-fold variance is high, so the tight claim is
    # enforced on the aggregate in bench_table3_report instead.)
    for result in results:
        assert result.udt_accuracy >= result.avg_accuracy - 0.15, result


def bench_table3_report(benchmark):
    """Aggregate the collected rows into the Table 3 reproduction artefact."""
    benchmark(lambda: format_accuracy_results(_collected_rows))
    body = format_accuracy_results(_collected_rows)
    wins = sum(1 for r in _collected_rows if r.improvement >= -1e-9)
    body += (
        f"\n\nUDT >= AVG in {wins} of {len(_collected_rows)} configurations "
        "(the paper reports UDT ahead in almost all, with a handful of '#' exceptions)."
    )
    save_artifact("table3_accuracy", "Table 3 — AVG vs UDT accuracy", body)
    save_json_artifact(
        "table3",
        [
            {
                "dataset": r.dataset,
                "error_model": r.error_model,
                "width_fraction": r.width_fraction,
                "avg_accuracy": r.avg_accuracy,
                "udt_accuracy": r.udt_accuracy,
            }
            for r in _collected_rows
        ],
        params={"folds": _BENCH_FOLDS, "seed": 17},
        extra={"udt_wins": wins, "n_configurations": len(_collected_rows)},
    )
    assert wins >= len(_collected_rows) * 0.6
