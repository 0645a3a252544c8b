"""E6 — Fig. 8: effect of the pdf sample count ``s`` on UDT-ES.

Sweeps ``s`` and records UDT-ES construction time and entropy calculations.
Expected shape: cost grows roughly linearly with ``s``.
"""

from __future__ import annotations

import pytest

from repro.eval import SensitivityExperiment, format_sensitivity_results

from helpers import BENCH_SCALE, save_artifact, save_json_artifact

_SAMPLE_COUNTS = (25, 50, 75, 100)
_DATASET = "Glass"

_results = []


@pytest.mark.parametrize("n_samples", _SAMPLE_COUNTS)
def bench_fig8_effect_of_s(benchmark, n_samples):
    """Time one UDT-ES build at the given s."""
    experiment = SensitivityExperiment(_DATASET, scale=BENCH_SCALE, seed=37)

    def run():
        return experiment.sweep_samples(sample_counts=(n_samples,), width_fraction=0.10)[0]

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _results.append(result)


def bench_fig8_report(benchmark):
    """Write the Fig. 8 artefact and check the roughly-linear growth."""
    ordered = sorted(_results, key=lambda r: r.value)
    benchmark(lambda: format_sensitivity_results(ordered))
    body = format_sensitivity_results(ordered)
    calcs = [r.entropy_calculations for r in ordered]
    body += "\n\nExpected: execution cost rises roughly linearly with s (Fig. 8)."
    save_artifact("fig8_effect_of_s", "Fig. 8 — effect of s on UDT-ES", body)
    save_json_artifact(
        "fig8",
        [
            {
                "dataset": r.dataset,
                "parameter": r.parameter,
                "value": r.value,
                "wall_seconds": r.elapsed_seconds,
                "entropy_calculations": r.entropy_calculations,
            }
            for r in ordered
        ],
        params={"width_fraction": 0.10, "seed": 37},
    )
    # Shape check: monotone non-decreasing cost with s.
    assert all(b >= a for a, b in zip(calcs, calcs[1:]))
    # Roughly linear: quadrupling s should not blow cost up by more than ~10x.
    if calcs[0] > 0:
        growth = calcs[-1] / calcs[0]
        expected = _SAMPLE_COUNTS[-1] / _SAMPLE_COUNTS[0]
        assert growth < expected * 2.5
