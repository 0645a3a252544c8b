"""E8 — Section 7.4 ablation: Gini index and gain ratio as dispersion measures.

The paper states that all pruning results carry over to the Gini index (with
the Eq. 4 bound) and that gain ratio loses Theorem 2 (homogeneous-interval
pruning) but keeps Theorem 1 and pruning-by-bounding.  This ablation repeats
the Fig. 7 measurement under all three measures and also compares the
resulting accuracies.
"""

from __future__ import annotations

import pytest

from repro.core import UDTClassifier
from repro.data import inject_uncertainty, load_dataset
from repro.eval import format_table

from helpers import BENCH_SAMPLES, BENCH_SCALE, save_artifact, save_json_artifact

_MEASURES = ("entropy", "gini", "gain_ratio")
_DATASET = "Glass"

_rows = []


def _training():
    training, _, _ = load_dataset(_DATASET, scale=BENCH_SCALE, seed=43)
    return inject_uncertainty(training, width_fraction=0.10, n_samples=BENCH_SAMPLES)


@pytest.mark.parametrize("measure", _MEASURES)
def bench_ablation_dispersion_measure(benchmark, measure):
    """Build UDT and UDT-GP trees under one dispersion measure."""
    training = _training()

    def run():
        exhaustive = UDTClassifier(strategy="UDT", measure=measure).fit(training)
        pruned = UDTClassifier(strategy="UDT-GP", measure=measure).fit(training)
        return exhaustive, pruned

    exhaustive, pruned = benchmark.pedantic(run, rounds=1, iterations=1)
    exhaustive_calcs = exhaustive.build_stats_.total_entropy_like_calculations
    pruned_calcs = pruned.build_stats_.total_entropy_like_calculations
    _rows.append(
        (
            measure,
            f"{exhaustive.score(training):.4f}",
            f"{pruned.score(training):.4f}",
            exhaustive_calcs,
            pruned_calcs,
            f"{100.0 * pruned_calcs / exhaustive_calcs:.1f}%",
        )
    )
    # Safe pruning under every measure: same training accuracy.
    assert pruned.score(training) == pytest.approx(exhaustive.score(training))
    # Pruning must help for entropy and Gini; for gain ratio it is weaker
    # (no homogeneous-interval pruning) but must never be counter-productive.
    assert pruned_calcs <= exhaustive_calcs


def bench_ablation_dispersion_report(benchmark):
    """Write the dispersion-measure ablation artefact."""
    headers = (
        "measure", "UDT accuracy", "UDT-GP accuracy",
        "UDT calcs", "UDT-GP calcs", "GP/UDT",
    )
    benchmark(lambda: format_table(headers, _rows))
    body = format_table(headers, _rows)
    body += (
        "\n\nExpected (Sec. 7.4): Gini behaves like entropy (Theorems 1-3 + Eq. 4 bound);"
        "\ngain ratio cannot prune homogeneous intervals, so its reduction is smaller."
    )
    save_artifact("ablation_dispersion", "Section 7.4 ablation — dispersion measures", body)
    save_json_artifact(
        "ablation_dispersion",
        [
            {
                "measure": row[0],
                "udt_accuracy": float(row[1]),
                "udt_gp_accuracy": float(row[2]),
                "udt_entropy_calculations": row[3],
                "udt_gp_entropy_calculations": row[4],
            }
            for row in _rows
        ],
    )
