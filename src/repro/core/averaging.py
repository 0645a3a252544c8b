"""The Averaging baseline (AVG, Section 4.1).

AVG transforms the uncertain dataset into a point-valued one by replacing
every pdf with its expected value, then builds an ordinary C4.5-style tree.
Test tuples are reduced to their means in the same way, so classification is
a deterministic root-to-leaf walk.

The implementation reuses the exact same builder and tree machinery as UDT:
a point value is simply a degenerate (single-sample) pdf, for which the
fractional-tuple computations collapse to the classical algorithm.  This
guarantees that any accuracy difference between AVG and UDT comes from the
use of distribution information, not from implementation differences.

Like :class:`~repro.core.udt.UDTClassifier`, the class follows the
scikit-learn estimator protocol and accepts plain 2-D arrays besides
datasets (see :mod:`repro.core.estimator`).
"""

from __future__ import annotations

from repro.core.dataset import UncertainDataset, UncertainTuple
from repro.core.dispersion import DispersionMeasure
from repro.core.estimator import BaseTreeEstimator
from repro.core.pdf import SampledPdf
from repro.core.strategies import SplitFinder

__all__ = ["AveragingClassifier", "MeanReductionMixin"]


class MeanReductionMixin:
    """The defining transformation of AVG, as reusable template hooks.

    Collapses every pdf to a point mass at its mean (and every categorical
    distribution to its most likely value) before training and before
    classification.  Shared by :class:`AveragingClassifier` and the bagged
    :class:`~repro.ensemble.AveragingForestClassifier`.
    """

    def _prepare_training(self, dataset: UncertainDataset) -> UncertainDataset:
        """Collapse the training data to means before building the tree."""
        return dataset.to_point_dataset()

    def _prepare_eval(self, dataset: UncertainDataset) -> UncertainDataset:
        """Collapse test data to means, mirroring training."""
        return dataset.to_point_dataset()

    def _prepare_tuple(self, item: UncertainTuple) -> UncertainTuple:
        """Reduce an uncertain tuple to its mean representation."""
        from repro.core.categorical import CategoricalDistribution
        from repro.core.pdf import Pdf

        features = []
        for value in item.features:
            if isinstance(value, Pdf):
                features.append(SampledPdf.point(value.mean()))
            else:
                assert isinstance(value, CategoricalDistribution)
                features.append(CategoricalDistribution.certain(value.most_likely()))
        return UncertainTuple(features, label=item.label, weight=item.weight)


class AveragingClassifier(MeanReductionMixin, BaseTreeEstimator):
    """C4.5-style classifier built on pdf means (the paper's AVG baseline).

    Parameters mirror :class:`~repro.core.udt.UDTClassifier`; the default
    strategy is plain ``"UDT"`` because, on point data, every pdf has a
    single sample and exhaustive search already costs only ``m - 1``
    evaluations per attribute.
    """

    def __init__(
        self,
        strategy: str | SplitFinder = "UDT",
        measure: str | DispersionMeasure = "entropy",
        *,
        spec=None,
        max_depth: int | None = None,
        min_split_weight: float = 2.0,
        min_dispersion_gain: float = 1e-9,
        post_prune: bool = True,
        post_prune_confidence: float = 0.25,
        n_jobs: int = 1,
    ) -> None:
        self.strategy = strategy
        self.measure = measure
        self.spec = spec
        self.max_depth = max_depth
        self.min_split_weight = min_split_weight
        self.min_dispersion_gain = min_dispersion_gain
        self.post_prune = post_prune
        self.post_prune_confidence = post_prune_confidence
        self.n_jobs = n_jobs
        self.tree_ = None
        self.build_stats_ = None

    # ``predict_batch`` / ``predict_proba_batch`` come from
    # BaseTreeEstimator; MeanReductionMixin supplies the mean reduction.
