"""Experiment runners reproducing the paper's evaluation (Sections 4 and 6).

Each runner corresponds to one of the paper's tables or figures:

* :class:`AccuracyExperiment` — Table 3: AVG vs UDT accuracy per dataset,
  error model and pdf width ``w``.
* :class:`NoiseModelExperiment` — Fig. 4: accuracy of UDT under controlled
  perturbation ``u`` as a function of the model width ``w``, plus the Eq. 2
  "model" curve.
* :class:`EfficiencyExperiment` — Figs. 6 and 7: construction time and the
  number of entropy(-like) calculations for AVG, UDT and the four pruned
  variants.
* :class:`SensitivityExperiment` — Figs. 8 and 9: UDT-ES construction time
  as a function of the pdf sample count ``s`` and the width ``w``.

The runners work on the synthetic UCI stand-ins of :mod:`repro.data.uci`
(see DESIGN.md for the substitution) and accept a ``scale`` parameter so the
same code path can be exercised at laptop-bench sizes or at the paper's full
dataset sizes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.core.averaging import AveragingClassifier
from repro.core.stats import Timer
from repro.core.udt import UDTClassifier
from repro.core.dataset import UncertainDataset
from repro.data.uci import UCIDatasetSpec, get_spec, load_dataset
from repro.data.uncertainty import (
    inject_uncertainty,
    model_width_for_perturbation,
    perturb_points,
)
from repro.eval.crossval import iter_fold_splits
from repro.exceptions import ExperimentError

__all__ = [
    "AccuracyResult",
    "AccuracyExperiment",
    "NoiseModelResult",
    "NoiseModelExperiment",
    "EfficiencyResult",
    "EfficiencyExperiment",
    "SensitivityResult",
    "SensitivityExperiment",
]

#: Strategies compared by the efficiency experiments, in the paper's order.
_EFFICIENCY_STRATEGIES = ("UDT", "UDT-BP", "UDT-LP", "UDT-GP", "UDT-ES")


def _evaluate_pair(
    training: UncertainDataset,
    test: UncertainDataset,
    *,
    strategy: str,
    measure: str,
    max_depth: int | None,
) -> tuple[float, float]:
    """Accuracy of (AVG, UDT) trained on ``training`` and scored on ``test``."""
    avg = AveragingClassifier(measure=measure, max_depth=max_depth).fit(training)
    udt = UDTClassifier(strategy=strategy, measure=measure, max_depth=max_depth).fit(training)
    return avg.score(test), udt.score(test)


def _evaluate_uncertain_fold(
    fold: tuple[UncertainDataset, UncertainDataset],
    *,
    width: float,
    n_samples: int,
    error_model: str,
    strategy: str,
    measure: str,
    max_depth: int | None,
) -> tuple[float, float]:
    """Inject uncertainty into one fold pair and evaluate (AVG, UDT) on it.

    Module-level (rather than a closure) so fold evaluation can be shipped
    to worker processes.
    """
    fold_training, fold_test = fold
    uncertain_training = inject_uncertainty(
        fold_training, width_fraction=width, n_samples=n_samples, error_model=error_model
    )
    uncertain_test = inject_uncertainty(
        fold_test, width_fraction=width, n_samples=n_samples, error_model=error_model
    )
    return _evaluate_pair(
        uncertain_training, uncertain_test,
        strategy=strategy, measure=measure, max_depth=max_depth,
    )


def _noise_fold_score(
    fold: tuple[UncertainDataset, UncertainDataset],
    *,
    width: float,
    n_samples: int,
    strategy: str,
    measure: str,
    max_depth: int | None,
) -> float:
    """Fit and score one fold of the controlled-noise study (picklable)."""
    train_set, test_set = fold
    if width <= 0:
        model: AveragingClassifier | UDTClassifier = AveragingClassifier(
            measure=measure, max_depth=max_depth
        )
    else:
        model = UDTClassifier(strategy=strategy, measure=measure, max_depth=max_depth)
    uncertain_training = inject_uncertainty(
        train_set, width_fraction=width, n_samples=n_samples, error_model="gaussian"
    )
    uncertain_test = inject_uncertainty(
        test_set, width_fraction=width, n_samples=n_samples, error_model="gaussian"
    )
    model.fit(uncertain_training)
    return model.score(uncertain_test)


def _map_folds(
    worker: Callable,
    folds: list[tuple[UncertainDataset, UncertainDataset]],
    n_jobs: int,
) -> list:
    """Apply ``worker`` to every fold, in parallel processes when asked.

    Results keep fold order, so parallel and sequential runs are
    interchangeable.
    """
    if n_jobs < 1:
        raise ExperimentError(f"n_jobs must be at least 1, got {n_jobs!r}")
    if n_jobs == 1 or len(folds) <= 1:
        return [worker(fold) for fold in folds]
    with ProcessPoolExecutor(max_workers=min(n_jobs, len(folds))) as executor:
        return list(executor.map(worker, folds))


@dataclass(frozen=True)
class AccuracyResult:
    """One row of the Table 3 reproduction."""

    dataset: str
    error_model: str
    width_fraction: float
    avg_accuracy: float
    udt_accuracy: float

    @property
    def improvement(self) -> float:
        """Accuracy gain of UDT over AVG (positive = UDT wins)."""
        return self.udt_accuracy - self.avg_accuracy


class AccuracyExperiment:
    """Table 3: classification accuracy of AVG vs UDT.

    Parameters
    ----------
    dataset:
        Name of a Table 2 dataset (stand-in).
    scale:
        Tuple-count scale factor passed to the dataset loader.
    n_samples:
        Pdf sample count ``s`` (paper default 100).
    n_folds:
        Folds used for datasets without a published train/test split.
    strategy, measure, max_depth:
        Classifier configuration (defaults match the paper: entropy measure,
        unlimited depth, UDT-ES strategy since all strategies give the same
        tree).
    seed:
        Seed for data generation and fold assignment.
    n_jobs:
        Number of worker processes used to evaluate cross-validation folds
        concurrently (1 = sequential; results are identical either way).
    """

    def __init__(
        self,
        dataset: str,
        *,
        scale: float = 1.0,
        n_samples: int = 100,
        n_folds: int = 10,
        strategy: str = "UDT-ES",
        measure: str = "entropy",
        max_depth: int | None = None,
        seed: int = 0,
        n_jobs: int = 1,
    ) -> None:
        self.spec: UCIDatasetSpec = get_spec(dataset)
        self.scale = scale
        self.n_samples = n_samples
        self.n_folds = n_folds
        self.strategy = strategy
        self.measure = measure
        self.max_depth = max_depth
        self.seed = seed
        self.n_jobs = int(n_jobs)

    def run(
        self,
        width_fractions: Sequence[float] = (0.01, 0.05, 0.10, 0.20),
        error_models: Sequence[str] = ("gaussian",),
    ) -> list[AccuracyResult]:
        """Evaluate every (error model, width) combination."""
        training, test, spec = load_dataset(self.spec.name, scale=self.scale, seed=self.seed)
        results: list[AccuracyResult] = []
        if spec.repeated_measurements:
            # The JapaneseVowel stand-in is already uncertain (raw samples);
            # the error-model sweep does not apply.
            assert test is not None
            avg_accuracy, udt_accuracy = _evaluate_pair(
                training, test,
                strategy=self.strategy, measure=self.measure, max_depth=self.max_depth,
            )
            results.append(
                AccuracyResult(spec.name, "raw-samples", float("nan"), avg_accuracy, udt_accuracy)
            )
            return results

        for error_model in error_models:
            for width in width_fractions:
                results.append(self._run_single(training, test, error_model, width))
        return results

    def _run_single(
        self,
        training: UncertainDataset,
        test: UncertainDataset | None,
        error_model: str,
        width: float,
    ) -> AccuracyResult:
        rng = np.random.default_rng(self.seed)
        if test is not None:
            uncertain_training = inject_uncertainty(
                training, width_fraction=width, n_samples=self.n_samples, error_model=error_model
            )
            uncertain_test = inject_uncertainty(
                test, width_fraction=width, n_samples=self.n_samples, error_model=error_model
            )
            avg_accuracy, udt_accuracy = _evaluate_pair(
                uncertain_training, uncertain_test,
                strategy=self.strategy, measure=self.measure, max_depth=self.max_depth,
            )
            return AccuracyResult(self.spec.name, error_model, width, avg_accuracy, udt_accuracy)

        folds = list(iter_fold_splits(training, self.n_folds, rng))
        worker = partial(
            _evaluate_uncertain_fold,
            width=width, n_samples=self.n_samples, error_model=error_model,
            strategy=self.strategy, measure=self.measure, max_depth=self.max_depth,
        )
        pairs = _map_folds(worker, folds, self.n_jobs)
        avg_scores = [pair[0] for pair in pairs]
        udt_scores = [pair[1] for pair in pairs]
        return AccuracyResult(
            self.spec.name,
            error_model,
            width,
            float(np.mean(avg_scores)),
            float(np.mean(udt_scores)),
        )


@dataclass(frozen=True)
class NoiseModelResult:
    """One point of a Fig. 4 curve."""

    dataset: str
    perturbation_fraction: float
    width_fraction: float
    accuracy: float


class NoiseModelExperiment:
    """Fig. 4: controlled-noise study.

    Point data is perturbed with Gaussian noise of magnitude ``u`` and then
    modelled with pdfs of width ``w``; the accuracy of UDT is recorded for
    every ``(u, w)`` pair.  ``w = 0`` degenerates to AVG.  The Eq. 2 "model"
    curve is obtained with :meth:`model_curve`.
    """

    def __init__(
        self,
        dataset: str = "Segment",
        *,
        scale: float = 1.0,
        n_samples: int = 100,
        n_folds: int = 5,
        strategy: str = "UDT-ES",
        measure: str = "entropy",
        max_depth: int | None = None,
        seed: int = 0,
        n_jobs: int = 1,
    ) -> None:
        self.spec = get_spec(dataset)
        self.scale = scale
        self.n_samples = n_samples
        self.n_folds = n_folds
        self.strategy = strategy
        self.measure = measure
        self.max_depth = max_depth
        self.seed = seed
        self.n_jobs = int(n_jobs)
        if self.spec.repeated_measurements:
            raise ExperimentError(
                "the controlled-noise experiment requires a point-valued dataset"
            )

    def run(
        self,
        perturbation_fractions: Sequence[float] = (0.0, 0.02, 0.05, 0.10),
        width_fractions: Sequence[float] = (0.0, 0.02, 0.05, 0.10, 0.20),
    ) -> list[NoiseModelResult]:
        """Evaluate UDT accuracy for every ``(u, w)`` pair."""
        base, test, _ = load_dataset(self.spec.name, scale=self.scale, seed=self.seed)
        results: list[NoiseModelResult] = []
        for u in perturbation_fractions:
            rng = np.random.default_rng(self.seed + 1)
            perturbed = perturb_points(base, perturbation_fraction=u, rng=rng)
            perturbed_test = (
                perturb_points(test, perturbation_fraction=u, rng=rng) if test is not None else None
            )
            for w in width_fractions:
                accuracy = self._accuracy_for(perturbed, perturbed_test, w)
                results.append(NoiseModelResult(self.spec.name, u, w, accuracy))
        return results

    def model_curve(
        self,
        perturbation_fractions: Sequence[float],
        intrinsic_fraction: float = 0.0,
    ) -> list[NoiseModelResult]:
        """Accuracy at the Eq. 2 model width for every perturbation level."""
        base, test, _ = load_dataset(self.spec.name, scale=self.scale, seed=self.seed)
        results: list[NoiseModelResult] = []
        for u in perturbation_fractions:
            rng = np.random.default_rng(self.seed + 1)
            perturbed = perturb_points(base, perturbation_fraction=u, rng=rng)
            perturbed_test = (
                perturb_points(test, perturbation_fraction=u, rng=rng) if test is not None else None
            )
            w = model_width_for_perturbation(u, intrinsic_fraction)
            accuracy = self._accuracy_for(perturbed, perturbed_test, w)
            results.append(NoiseModelResult(self.spec.name, u, w, accuracy))
        return results

    def _accuracy_for(
        self,
        training: UncertainDataset,
        test: UncertainDataset | None,
        width: float,
    ) -> float:
        worker = partial(
            _noise_fold_score,
            width=width, n_samples=self.n_samples,
            strategy=self.strategy, measure=self.measure, max_depth=self.max_depth,
        )
        if test is not None:
            return worker((training, test))
        rng = np.random.default_rng(self.seed + 2)
        folds = list(iter_fold_splits(training, self.n_folds, rng))
        return float(np.mean(_map_folds(worker, folds, self.n_jobs)))


@dataclass(frozen=True)
class EfficiencyResult:
    """Per-algorithm measurements for Figs. 6 and 7."""

    dataset: str
    algorithm: str
    elapsed_seconds: float
    entropy_calculations: int
    candidate_split_points: int
    n_nodes: int
    accuracy_on_training: float = field(default=float("nan"))


class EfficiencyExperiment:
    """Figs. 6 and 7: construction cost of AVG, UDT and the pruned variants."""

    def __init__(
        self,
        dataset: str,
        *,
        scale: float = 1.0,
        n_samples: int = 100,
        width_fraction: float = 0.10,
        error_model: str = "gaussian",
        measure: str = "entropy",
        max_depth: int | None = None,
        seed: int = 0,
        n_jobs: int = 1,
    ) -> None:
        self.spec = get_spec(dataset)
        self.scale = scale
        self.n_samples = n_samples
        self.width_fraction = width_fraction
        self.error_model = error_model
        self.measure = measure
        self.max_depth = max_depth
        self.seed = seed
        self.n_jobs = int(n_jobs)

    def prepare_training_data(self) -> UncertainDataset:
        """Load the dataset stand-in and attach the configured uncertainty."""
        training, _, spec = load_dataset(self.spec.name, scale=self.scale, seed=self.seed)
        if spec.repeated_measurements:
            return training
        return inject_uncertainty(
            training,
            width_fraction=self.width_fraction,
            n_samples=self.n_samples,
            error_model=self.error_model,
        )

    def run(
        self,
        algorithms: Sequence[str] = ("AVG",) + _EFFICIENCY_STRATEGIES,
        training: UncertainDataset | None = None,
    ) -> list[EfficiencyResult]:
        """Build one tree per algorithm and record its cost."""
        if training is None:
            training = self.prepare_training_data()
        results: list[EfficiencyResult] = []
        for algorithm in algorithms:
            results.append(self.run_single(algorithm, training))
        return results

    def run_single(self, algorithm: str, training: UncertainDataset) -> EfficiencyResult:
        """Build one tree with the given algorithm (``"AVG"`` or a UDT strategy)."""
        if algorithm.upper() == "AVG":
            model: AveragingClassifier | UDTClassifier = AveragingClassifier(
                measure=self.measure, max_depth=self.max_depth, n_jobs=self.n_jobs,
            )
        else:
            model = UDTClassifier(
                strategy=algorithm, measure=self.measure, max_depth=self.max_depth,
                n_jobs=self.n_jobs,
            )
        with Timer() as timer:
            model.fit(training)
        stats = model.build_stats_
        tree = model.tree_
        assert stats is not None and tree is not None
        return EfficiencyResult(
            dataset=self.spec.name,
            algorithm=algorithm,
            elapsed_seconds=timer.elapsed,
            entropy_calculations=stats.total_entropy_like_calculations,
            candidate_split_points=stats.split_search.candidate_split_points,
            n_nodes=tree.n_nodes,
            accuracy_on_training=model.score(training),
        )


@dataclass(frozen=True)
class SensitivityResult:
    """One point of the Fig. 8 / Fig. 9 sensitivity curves."""

    dataset: str
    parameter: str
    value: float
    elapsed_seconds: float
    entropy_calculations: int


class SensitivityExperiment:
    """Figs. 8 and 9: UDT-ES cost as a function of ``s`` and ``w``."""

    def __init__(
        self,
        dataset: str,
        *,
        scale: float = 1.0,
        strategy: str = "UDT-ES",
        measure: str = "entropy",
        error_model: str = "gaussian",
        max_depth: int | None = None,
        seed: int = 0,
    ) -> None:
        self.spec = get_spec(dataset)
        self.scale = scale
        self.strategy = strategy
        self.measure = measure
        self.error_model = error_model
        self.max_depth = max_depth
        self.seed = seed
        if self.spec.repeated_measurements:
            raise ExperimentError(
                "sensitivity studies control s and w, which the raw-sample dataset does not allow"
            )

    def sweep_samples(
        self, sample_counts: Sequence[int] = (50, 100, 150, 200), width_fraction: float = 0.10
    ) -> list[SensitivityResult]:
        """Fig. 8: vary the number of sample points per pdf (``s``)."""
        return [
            self._run_point("s", float(s), n_samples=s, width_fraction=width_fraction)
            for s in sample_counts
        ]

    def sweep_widths(
        self, width_fractions: Sequence[float] = (0.01, 0.05, 0.10, 0.20), n_samples: int = 100
    ) -> list[SensitivityResult]:
        """Fig. 9: vary the pdf domain width (``w``)."""
        return [
            self._run_point("w", float(w), n_samples=n_samples, width_fraction=w)
            for w in width_fractions
        ]

    def _run_point(
        self, parameter: str, value: float, *, n_samples: int, width_fraction: float
    ) -> SensitivityResult:
        training, _, _ = load_dataset(self.spec.name, scale=self.scale, seed=self.seed)
        uncertain = inject_uncertainty(
            training,
            width_fraction=width_fraction,
            n_samples=n_samples,
            error_model=self.error_model,
        )
        model = UDTClassifier(
            strategy=self.strategy, measure=self.measure, max_depth=self.max_depth
        )
        with Timer() as timer:
            model.fit(uncertain)
        stats = model.build_stats_
        assert stats is not None
        return SensitivityResult(
            dataset=self.spec.name,
            parameter=parameter,
            value=value,
            elapsed_seconds=timer.elapsed,
            entropy_calculations=stats.total_entropy_like_calculations,
        )
