"""E3 — Fig. 4: controlled noise study on the "Segment" stand-in.

The point data is perturbed with Gaussian noise of magnitude ``u`` and then
modelled with pdfs of width ``w``; UDT's accuracy is recorded for every
``(u, w)`` pair, plus the Eq. 2 "model" curve that predicts the best width.

Expected shape: for every fixed ``u`` the accuracy rises from the ``w = 0``
point (AVG) onto a plateau; larger ``u`` gives lower curves; the "model"
width lands on (or near) the plateau.
"""

from __future__ import annotations


from repro.eval import NoiseModelExperiment, format_noise_model_results

from helpers import BENCH_SAMPLES, BENCH_SCALE, save_artifact, save_json_artifact

_PERTURBATIONS = (0.0, 0.05, 0.10)
_WIDTHS = (0.0, 0.05, 0.10, 0.20)


def bench_fig4_noise_model(benchmark):
    """Run the (u, w) accuracy grid; the benchmark times one grid cell."""
    experiment = NoiseModelExperiment(
        "Segment", scale=BENCH_SCALE * 0.3, n_samples=BENCH_SAMPLES, n_folds=3, seed=23
    )
    results = experiment.run(perturbation_fractions=_PERTURBATIONS, width_fractions=_WIDTHS)
    model_curve = experiment.model_curve(
        perturbation_fractions=_PERTURBATIONS, intrinsic_fraction=0.10
    )

    benchmark(
        lambda: experiment.run(perturbation_fractions=(0.05,), width_fractions=(0.10,))
    )

    body = format_noise_model_results(results)
    body += "\n\nEq. 2 'model' curve (w^2 = intrinsic^2 + u^2, intrinsic = 10%):\n"
    body += format_noise_model_results(model_curve)

    # Shape checks.
    by_u = {}
    for result in results:
        by_u.setdefault(result.perturbation_fraction, {})[result.width_fraction] = result.accuracy
    plateau_wins = 0
    for u, curve in by_u.items():
        best_nonzero = max(accuracy for w, accuracy in curve.items() if w > 0)
        if best_nonzero >= curve[0.0] - 1e-9:
            plateau_wins += 1
    body += (
        f"\n\nCurves where some w > 0 meets or beats w = 0 (AVG): "
        f"{plateau_wins}/{len(by_u)} (paper: all of them)."
    )
    save_artifact("fig4_noise_model", "Fig. 4 — controlled noise on 'Segment'", body)
    save_json_artifact(
        "fig4",
        [
            {
                "dataset": r.dataset,
                "perturbation_fraction": r.perturbation_fraction,
                "width_fraction": r.width_fraction,
                "accuracy": r.accuracy,
            }
            for r in results
        ],
        params={"seed": 23},
        extra={"plateau_wins": plateau_wins, "n_curves": len(by_u)},
    )
    assert plateau_wins >= len(by_u) - 1
