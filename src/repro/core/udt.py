"""High-level Distribution-based classifier (UDT, Section 4.2).

:class:`UDTClassifier` wraps the tree builder with a scikit-learn-compatible
``fit`` / ``predict`` / ``predict_proba`` / ``score`` interface that accepts
both :class:`~repro.core.dataset.UncertainDataset` objects and plain 2-D
arrays (converted through a declarative uncertainty ``spec``, see
:mod:`repro.api.spec`).  The split-finding strategy (UDT, UDT-BP, UDT-LP,
UDT-GP or UDT-ES) and the dispersion measure are configurable; all
strategies produce the same tree, so the choice only affects construction
cost.
"""

from __future__ import annotations

from repro.core.dispersion import DispersionMeasure
from repro.core.estimator import BaseTreeEstimator
from repro.core.strategies import SplitFinder, get_strategy

__all__ = ["UDTClassifier"]


class UDTClassifier(BaseTreeEstimator):
    """Decision-tree classifier for uncertain data (the paper's UDT).

    Parameters
    ----------
    strategy:
        Split-finding strategy name or instance (default ``"UDT-ES"``, the
        fastest safe-pruning variant).
    measure:
        Dispersion measure (default ``"entropy"``).
    spec:
        Declarative uncertainty spec applied when ``fit`` / ``predict``
        receive plain arrays instead of datasets (default: certain point
        values).  See :mod:`repro.api.spec` — e.g.
        ``spec=repro.api.gaussian(w=0.1, s=100)``.
    max_depth, min_split_weight, min_dispersion_gain, post_prune,
    post_prune_confidence, n_jobs:
        Forwarded to :class:`~repro.core.builder.TreeBuilder`.

    Attributes
    ----------
    tree_:
        The fitted :class:`~repro.core.tree.DecisionTree` (after ``fit``).
    build_stats_:
        The :class:`~repro.core.stats.BuildStats` collected while fitting.
    classes_:
        Array of class labels, aligned with ``predict_proba`` columns.
    n_features_in_:
        Number of feature attributes seen during ``fit``.
    feature_extents_:
        Per-attribute ``(min, max)`` training value ranges used to scale
        ``w``-relative specs at predict time (``None`` for categoricals).
    """

    def __init__(
        self,
        strategy: str | SplitFinder = "UDT-ES",
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

    @property
    def strategy_name(self) -> str:
        """Name of the configured split-finding strategy."""
        return get_strategy(self.strategy).name

    # ``predict_batch`` / ``predict_proba_batch`` (the pre-array batch
    # aliases) are inherited from BaseTreeEstimator and accept datasets and
    # arrays alike; ``predict`` / ``predict_proba`` on a dataset already
    # take the columnar batch path.
