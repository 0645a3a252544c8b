"""E7 — Fig. 9: effect of the pdf width ``w`` on UDT-ES.

Sweeps ``w`` and records UDT-ES construction time, entropy calculations and
the heterogeneous-interval census.  Expected shape: wider pdfs overlap more,
creating more heterogeneous intervals and (generally) more work, although
the paper notes the effect is data dependent.
"""

from __future__ import annotations

import pytest

from repro.core import UDTClassifier
from repro.data import inject_uncertainty, load_dataset
from repro.eval import format_table

from helpers import BENCH_SAMPLES, BENCH_SCALE, save_artifact, save_json_artifact

_WIDTHS = (0.02, 0.05, 0.10, 0.20)
_DATASET = "Glass"

_rows = []


@pytest.mark.parametrize("width", _WIDTHS)
def bench_fig9_effect_of_w(benchmark, width):
    """Time one UDT-ES build at the given w."""
    training, _, _ = load_dataset(_DATASET, scale=BENCH_SCALE, seed=41)
    uncertain = inject_uncertainty(
        training, width_fraction=width, n_samples=BENCH_SAMPLES, error_model="gaussian"
    )

    def run():
        return UDTClassifier(strategy="UDT-ES").fit(uncertain)

    model = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = model.build_stats_
    heterogeneous_fraction = stats.split_search.intervals_heterogeneous / max(
        stats.split_search.intervals_total, 1
    )
    _rows.append(
        (
            _DATASET,
            width,
            stats.total_entropy_like_calculations,
            stats.split_search.intervals_heterogeneous,
            heterogeneous_fraction,
            stats.elapsed_seconds,
        )
    )


def bench_fig9_report(benchmark):
    """Write the Fig. 9 artefact and check the heterogeneity trend."""
    headers = (
        "dataset", "w", "entropy calcs", "heterogeneous intervals",
        "heterogeneous fraction", "build time (s)",
    )
    ordered = sorted(_rows, key=lambda r: r[1])
    formatted = [
        (row[0], f"{row[1]:.0%}", row[2], row[3], f"{row[4]:.3f}", f"{row[5]:.3f}")
        for row in ordered
    ]
    benchmark(lambda: format_table(headers, formatted))
    body = format_table(headers, formatted)
    body += (
        "\n\nExpected: larger w increases pdf overlap, so a larger fraction of the"
        "\nintervals is heterogeneous and UDT-ES generally does more work (Fig. 9);"
        "\nthe paper notes the trend is data dependent (PenDigits deviates)."
    )
    save_artifact("fig9_effect_of_w", "Fig. 9 — effect of w on UDT-ES", body)
    save_json_artifact(
        "fig9",
        [
            {
                "dataset": row[0],
                "width_fraction": row[1],
                "entropy_calculations": row[2],
                "heterogeneous_intervals": row[3],
                "heterogeneous_fraction": row[4],
                "wall_seconds": row[5],
            }
            for row in ordered
        ],
        params={"seed": 41},
    )
    fractions = [row[4] for row in ordered]
    assert fractions[-1] >= fractions[0] * 0.8
