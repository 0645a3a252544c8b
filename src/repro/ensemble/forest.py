"""Bagged forests of uncertain decision trees (soft-voting ensembles).

The paper's central result is that distribution-based splitting (UDT) beats
averaging on uncertain numerical data; bagging is the classical way to
amplify exactly that kind of high-variance tree learner.  This module grows
forests of the library's uncertain trees:

* :class:`UDTForestClassifier` — bootstrap-resampled
  :class:`~repro.core.udt.UDTClassifier` members (distribution-based
  splitting on the full pdfs);
* :class:`AveragingForestClassifier` — the same forest over the AVG
  baseline (every pdf collapsed to its mean before training and
  classification), so the paper's UDT-vs-AVG comparison extends to
  ensembles.

Design points:

* **determinism** — every random draw (bootstrap rows, feature subsets)
  comes from per-member generators seeded by
  ``SeedSequence(random_state, spawn_key=(member,))``, drawn in the parent
  process *before* any training is dispatched.  The same ``random_state``
  therefore always builds the same trees, and parallel training
  (``n_jobs > 1``, a :class:`~concurrent.futures.ProcessPoolExecutor` over
  members) is bit-identical to sequential training.
* **aligned votes** — member datasets are derived with
  :meth:`~repro.core.dataset.UncertainDataset.subset` /
  :meth:`~repro.core.dataset.UncertainDataset.select_attributes`, which
  preserve ``class_labels`` even when a bootstrap sample misses a class, so
  every member's probability columns line up and soft voting is a plain
  matrix mean.
* **vectorised soft voting** — batch prediction projects the (once-coerced)
  evaluation dataset per member and accumulates columnar
  ``classify_batch`` matrices in member order; the mean over members is the
  forest's ``predict_proba``.  Accumulation order is fixed, so repeated
  calls — and the serving stack on top — are bit-identical.
* **diversity knobs** — ``bootstrap`` (on by default), ``feature_subsample``
  (``None`` = all features, ``"sqrt"``, a fraction in ``(0, 1]`` or an
  integer count) and the usual tree knobs (``max_depth``, strategies, …).

Forests persist through :mod:`repro.api.persistence` as ``kind: "forest"``
archives (format version 2) and serve through :mod:`repro.serve` exactly
like single trees.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Hashable, Sequence

import numpy as np

from repro.core.averaging import MeanReductionMixin
from repro.core.builder import TreeBuilder
from repro.core.dataset import UncertainDataset, UncertainTuple
from repro.core.dispersion import DispersionMeasure
from repro.core.estimator import BaseTreeEstimator
from repro.core.strategies import SplitFinder
from repro.core.tree import DecisionTree
from repro.exceptions import DatasetError, TreeError

__all__ = [
    "BaseForestClassifier",
    "UDTForestClassifier",
    "AveragingForestClassifier",
]


def _fit_planned(
    dataset: UncertainDataset,
    rows: "np.ndarray | None",
    feature_indices: "list[int] | None",
    params: dict,
):
    """Build one member tree from its (rows, features) plan.

    The member's training dataset is derived here, next to the builder, so
    the parent ships only the small plan to worker processes — never a
    per-member copy of the data.
    """
    member = dataset if rows is None else dataset.subset(rows)
    if feature_indices is not None:
        member = member.select_attributes(feature_indices)
    return TreeBuilder(**params).build(member)


#: Training dataset of the current forest fit, set once per worker process
#: by :func:`_worker_init` (the parent never populates it).
_WORKER_DATASET: "UncertainDataset | None" = None


def _worker_init(dataset: UncertainDataset) -> None:
    global _WORKER_DATASET
    _WORKER_DATASET = dataset


def _fit_member(plan: tuple, *, params: dict):
    """Worker-side member fit: the base dataset arrived via the initializer.

    Each task carries only bootstrap row indices and the feature subset, so
    the IPC cost of a parallel fit is one dataset per *worker*, not one
    bootstrap copy per *member*.
    """
    rows, feature_indices = plan
    return _fit_planned(_WORKER_DATASET, rows, feature_indices, params)


class BaseForestClassifier(BaseTreeEstimator):
    """Shared machinery of the bagged uncertain-tree forests.

    Inherits the array/dataset coercion, spec handling and sklearn parameter
    protocol of :class:`~repro.core.estimator.BaseTreeEstimator`; the fitted
    state is a list of member trees (``trees_``) instead of a single
    ``tree_``.
    """

    trees_: "list[DecisionTree] | None"

    # -- parameter validation -------------------------------------------------

    def _validate_forest_params(self) -> None:
        if isinstance(self.n_estimators, bool) or not isinstance(
            self.n_estimators, (int, np.integer)
        ) or self.n_estimators < 1:
            raise TreeError(
                f"n_estimators must be a positive integer, got {self.n_estimators!r}"
            )
        if isinstance(self.random_state, bool) or not isinstance(
            self.random_state, (int, np.integer)
        ) or self.random_state < 0:
            raise TreeError(
                f"random_state must be a non-negative integer, got {self.random_state!r}"
            )
        if self.n_jobs < 1:
            raise TreeError(f"n_jobs must be at least 1, got {self.n_jobs!r}")
        if self.oob_score and not self.bootstrap:
            raise TreeError(
                "oob_score=True requires bootstrap=True: out-of-bag rows only "
                "exist when members train on bootstrap resamples"
            )
        self._subsample_count(8)  # validates feature_subsample's type/range

    def _subsample_count(self, n_features: int) -> "int | None":
        """Features per member for ``n_features`` columns (``None`` = all)."""
        value = self.feature_subsample
        if value is None:
            return None
        if value == "sqrt":
            count = max(1, int(round(math.sqrt(n_features))))
        elif isinstance(value, bool):
            raise TreeError(f"feature_subsample must not be a bool, got {value!r}")
        elif isinstance(value, (int, np.integer)):
            if value < 1:
                raise TreeError(
                    f"feature_subsample count must be at least 1, got {value!r}"
                )
            count = int(value)
        elif isinstance(value, float):
            if not 0.0 < value <= 1.0:
                raise TreeError(
                    f"feature_subsample fraction must be in (0, 1], got {value!r}"
                )
            count = max(1, int(round(value * n_features)))
        else:
            raise TreeError(
                f"feature_subsample must be None, 'sqrt', a fraction or an "
                f"integer count, got {value!r}"
            )
        return None if count >= n_features else count

    def _builder_params(self) -> dict:
        # Members always build sequentially: the forest parallelises across
        # trees, and nesting attribute-thread parallelism inside worker
        # processes would oversubscribe cores without changing any tree.
        return {
            "strategy": self.strategy,
            "measure": self.measure,
            "max_depth": self.max_depth,
            "min_split_weight": self.min_split_weight,
            "min_dispersion_gain": self.min_dispersion_gain,
            "post_prune": self.post_prune,
            "post_prune_confidence": self.post_prune_confidence,
            "n_jobs": 1,
        }

    # -- fitted-state hooks ---------------------------------------------------

    def _check_fitted(self) -> None:
        if not getattr(self, "trees_", None):
            raise TreeError("the forest has not been fitted yet; call fit() first")

    def _require_tree(self) -> DecisionTree:
        raise TreeError(
            "a forest has no single tree_; use trees_ (the fitted members)"
        )

    def _eval_schema(self) -> tuple:
        self._check_fitted()
        return self.attributes_, self._class_label_values

    # -- training -------------------------------------------------------------

    def _member_rng(self, member: int) -> np.random.Generator:
        """Deterministic per-member generator, independent of ``n_jobs``."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=int(self.random_state), spawn_key=(member,))
        )

    def _member_plan(
        self, dataset: UncertainDataset, member: int
    ) -> "tuple[np.ndarray | None, list[int] | None]":
        """``(bootstrap row indices, feature subset)`` of one member.

        Draw order within a member's generator is fixed (rows, then
        features), so adding or removing diversity knobs for one member can
        never shift another member's sample.  Only these small index
        arrays are shipped to worker processes; the member dataset itself
        is derived from them inside :func:`_fit_planned`.
        """
        rng = self._member_rng(member)
        rows = rng.integers(0, len(dataset), size=len(dataset)) if self.bootstrap else None
        count = self._subsample_count(dataset.n_attributes)
        feature_indices = None
        if count is not None:
            feature_indices = sorted(
                int(i) for i in rng.choice(dataset.n_attributes, size=count, replace=False)
            )
        return rows, feature_indices

    def fit(self, X, y: Sequence[Hashable] | None = None) -> "BaseForestClassifier":
        """Build ``n_estimators`` trees on bootstrap resamples of the data.

        ``X`` / ``y`` follow the :class:`BaseTreeEstimator` contract (an
        :class:`UncertainDataset` with labels inside, or a 2-D array plus
        ``y``, converted through ``spec``).  With ``n_jobs > 1`` members
        train in parallel worker processes; the resulting forest is
        bit-identical to a sequential fit.
        """
        self._validate_forest_params()
        dataset = self._prepare_training(self._coerce_training(X, y))
        if not len(dataset):
            raise DatasetError("cannot fit a forest on an empty dataset")
        plans = [self._member_plan(dataset, member) for member in range(self.n_estimators)]
        params = self._builder_params()
        if self.n_jobs == 1 or len(plans) == 1:
            results = [
                _fit_planned(dataset, rows, feature_indices, params)
                for rows, feature_indices in plans
            ]
        else:
            # The initializer ships the base dataset once per worker; each
            # task then carries only its plan (row/feature indices), so the
            # IPC cost never multiplies by n_estimators.
            with ProcessPoolExecutor(
                max_workers=min(self.n_jobs, len(plans)),
                initializer=_worker_init,
                initargs=(dataset,),
            ) as executor:
                results = list(
                    executor.map(partial(_fit_member, params=params), plans)
                )
        self.trees_ = [result.tree for result in results]
        self.tree_feature_indices_ = [plan[1] for plan in plans]
        self.tree_build_stats_ = [result.stats for result in results]
        self.build_stats_ = None
        self.attributes_ = dataset.attributes
        self._class_label_values = dataset.class_labels
        self.classes_ = np.asarray(dataset.class_labels)
        self.n_features_in_ = dataset.n_attributes
        if self.oob_score:
            self._compute_oob(dataset, plans)
        else:
            self.oob_score_ = None
            self.oob_member_scores_ = None
        self.stream_member_scores_ = None
        self._stream_reservoir = None
        self._refresh_epoch = 0
        self._stamp_fitted()
        return self

    def _compute_oob(self, dataset: UncertainDataset, plans: list) -> None:
        """Out-of-bag accuracy estimates from the members' bootstrap plans.

        Each member is scored on the rows its bootstrap sample missed
        (``oob_member_scores_``), and the forest-level ``oob_score_`` is the
        accuracy of the soft vote over, per row, exactly the members that
        did not train on it — the standard unbiased estimate of held-out
        accuracy, for free from the training data.
        """
        n_rows = len(dataset)
        n_classes = dataset.n_classes
        label_indices = np.asarray([dataset.label_index(label) for label in dataset.labels])
        votes = np.zeros((n_rows, n_classes))
        vote_counts = np.zeros(n_rows, dtype=np.int64)
        member_scores = np.full(len(plans), np.nan)
        for member, (rows, feature_indices) in enumerate(plans):
            oob_mask = np.ones(n_rows, dtype=bool)
            oob_mask[rows] = False
            oob_rows = np.flatnonzero(oob_mask)
            if not len(oob_rows):
                continue
            view = dataset.subset(oob_rows)
            if feature_indices is not None:
                view = view.select_attributes(feature_indices)
            probabilities = self.trees_[member].classify_batch(view)
            votes[oob_rows] += probabilities
            vote_counts[oob_rows] += 1
            member_scores[member] = float(
                np.mean(np.argmax(probabilities, axis=1) == label_indices[oob_rows])
            )
        covered = vote_counts > 0
        self.oob_member_scores_ = member_scores
        if covered.any():
            predicted = np.argmax(votes[covered], axis=1)
            self.oob_score_ = float(np.mean(predicted == label_indices[covered]))
        else:  # tiny datasets can leave every row in-bag for every member
            self.oob_score_ = float("nan")

    @property
    def n_trees_(self) -> int:
        """Number of fitted member trees."""
        self._check_fitted()
        return len(self.trees_)

    # -- streaming updates ------------------------------------------------------

    def partial_fit(
        self,
        X,
        y: Sequence[Hashable] | None = None,
        *,
        resplit_gain: float = 0.01,
        resplit_min_weight: float = 8.0,
        reservoir_size: int = 4096,
        score_decay: float = 0.9,
    ) -> "BaseForestClassifier":
        """Incrementally update every member tree with a batch of labelled rows.

        Because no member trained on a streamed row, the whole batch is
        out-of-bag for every member: each member is scored on it *before*
        the update and the accuracy folded into ``stream_member_scores_``
        with exponential decay ``score_decay`` — the running OOB estimate
        that :meth:`refresh_members` ranks members by.  The rows also enter
        the recent-window reservoir refresh retrains from, and then update
        each member tree through its feature subset (leaf mass + local
        re-splits, see :meth:`repro.core.tree.DecisionTree.partial_fit`).
        """
        self._check_fitted()
        if not 0.0 <= score_decay < 1.0:
            raise TreeError(f"score_decay must be in [0, 1), got {score_decay!r}")
        dataset = self._prepare_training(self._coerce_update(X, y))
        if not len(dataset):
            return self
        self._score_stream_batch(dataset, decay=score_decay)
        reservoir = getattr(self, "_stream_reservoir", None)
        if reservoir is None:
            from repro.stream.reservoir import StreamReservoir

            reservoir = StreamReservoir(int(reservoir_size))
            self._stream_reservoir = reservoir
        reservoir.extend(dataset.tuples)
        params = self._builder_params()
        reports = []
        for member, tree in enumerate(self.trees_):
            reports.append(
                tree.partial_fit(
                    self._member_view(dataset, member),
                    builder=TreeBuilder(**params),
                    resplit_gain=resplit_gain,
                    resplit_min_weight=resplit_min_weight,
                )
            )
        self.last_update_report_ = reports
        self._bump_update_generation()
        return self

    def _score_stream_batch(self, dataset: UncertainDataset, *, decay: float) -> None:
        """Fold per-member accuracy on a fresh batch into the running scores.

        The batch dataset carries its own label ordering, so labels are
        mapped through the *forest's* classes before comparing with each
        member's vote columns.
        """
        label_map = {label: i for i, label in enumerate(self._class_label_values)}
        try:
            label_indices = np.asarray([label_map[label] for label in dataset.labels])
        except KeyError as exc:
            raise TreeError(
                f"unknown class label {exc.args[0]!r}; streamed tuples must use "
                "labels seen at fit time"
            ) from exc
        scores = getattr(self, "stream_member_scores_", None)
        if scores is None:
            scores = np.full(len(self.trees_), np.nan)
        updated = scores.astype(float).copy()
        for member, (tree, view) in enumerate(self._member_views(dataset)):
            probabilities = tree.classify_batch(view)
            accuracy = float(
                np.mean(np.argmax(probabilities, axis=1) == label_indices)
            )
            if np.isnan(updated[member]):
                updated[member] = accuracy
            else:
                updated[member] = decay * updated[member] + (1.0 - decay) * accuracy
        self.stream_member_scores_ = updated

    def _worst_members(self, fraction: float) -> "list[int]":
        """The ``fraction`` worst-scoring member indices (lowest first)."""
        if not 0.0 < fraction <= 1.0:
            raise TreeError(f"fraction must be in (0, 1], got {fraction!r}")
        scores = getattr(self, "stream_member_scores_", None)
        if scores is None or np.all(np.isnan(scores)):
            scores = getattr(self, "oob_member_scores_", None)
        if scores is None or np.all(np.isnan(scores)):
            raise TreeError(
                "no member scores to rank by: fit with oob_score=True, stream "
                "batches through partial_fit first, or pass members= explicitly"
            )
        count = max(1, int(math.ceil(fraction * len(self.trees_))))
        # Unscored (nan) members sort last: a freshly refreshed member has no
        # evidence against it yet and must not be refreshed again immediately.
        order = np.argsort(np.where(np.isnan(scores), np.inf, scores), kind="stable")
        return [int(index) for index in order[:count]]

    def refresh_members(
        self,
        members=None,
        *,
        fraction: float = 0.25,
        window: "Sequence[UncertainTuple] | None" = None,
    ) -> "list[int]":
        """Retrain the worst-scoring members on the recent-window reservoir.

        ``members`` picks explicit member indices; by default the worst
        ``fraction`` of the forest by ``stream_member_scores_`` (falling
        back to the fit-time ``oob_member_scores_``) is chosen.  Each
        refreshed member draws a fresh deterministic bootstrap/feature plan
        — seeded by ``(random_state, member, refresh epoch)``, so refreshed
        forests are reproducible from the stream alone — and retrains on
        ``window`` (default: the reservoir filled by :meth:`partial_fit`).
        Returns the refreshed member indices.
        """
        self._check_fitted()
        if window is None:
            reservoir = getattr(self, "_stream_reservoir", None)
            window = reservoir.window() if reservoir is not None else []
        else:
            window = list(window)
        if not window:
            raise TreeError(
                "refresh_members needs recent tuples: stream batches through "
                "partial_fit first, or pass window= explicitly"
            )
        selected = (
            self._worst_members(fraction) if members is None
            else self._resolve_members(members)
        )
        if not selected:
            return []
        recent = UncertainDataset(
            self.attributes_, window, class_labels=self._class_label_values
        )
        params = self._builder_params()
        epoch = int(getattr(self, "_refresh_epoch", 0)) + 1
        self._refresh_epoch = epoch
        for member in selected:
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    entropy=int(self.random_state), spawn_key=(member, epoch)
                )
            )
            rows = rng.integers(0, len(recent), size=len(recent)) if self.bootstrap else None
            count = self._subsample_count(recent.n_attributes)
            feature_indices = None
            if count is not None:
                feature_indices = sorted(
                    int(i) for i in rng.choice(recent.n_attributes, size=count, replace=False)
                )
            result = _fit_planned(recent, rows, feature_indices, params)
            self.trees_[member] = result.tree
            self.tree_feature_indices_[member] = feature_indices
            self.tree_build_stats_[member] = result.stats
            scores = getattr(self, "stream_member_scores_", None)
            if scores is not None:
                scores[member] = np.nan  # fresh member: no evidence yet
        self._bump_update_generation()
        return list(selected)

    # -- soft voting ----------------------------------------------------------

    def _member_view(self, dataset: UncertainDataset, member: int) -> UncertainDataset:
        """The evaluation dataset projected onto one member's feature subset."""
        indices = self.tree_feature_indices_[member]
        return dataset if indices is None else dataset.select_attributes(indices)

    def _member_views(self, dataset: UncertainDataset):
        """Yield ``(tree, projected dataset)`` pairs in fixed member order."""
        for member, tree in enumerate(self.trees_):
            yield tree, self._member_view(dataset, member)

    def _resolve_members(self, members) -> "list[int]":
        """Validated member indices (``None`` = every member, in order)."""
        n_members = len(self.trees_)
        if members is None:
            return list(range(n_members))
        resolved = []
        for member in members:
            if isinstance(member, bool) or not isinstance(member, (int, np.integer)):
                raise TreeError(f"member indices must be integers, got {member!r}")
            index = int(member)
            if not 0 <= index < n_members:
                raise TreeError(
                    f"member index {index} out of range for a forest of "
                    f"{n_members} trees"
                )
            resolved.append(index)
        return resolved

    def member_votes(self, X, members=None) -> np.ndarray:
        """Per-member vote matrices, stacked as ``(n_members, n_rows, n_classes)``.

        Each member's matrix is exactly the ``classify_batch`` contribution
        it adds during soft voting, so accumulating the stack in member
        order and dividing by the *full* member count reproduces
        ``predict_proba`` bit-for-bit (see
        :func:`repro.ensemble.sharding.reduce_votes`).  ``members``
        restricts the computation to a subset of member indices — the
        router's forest fan-out asks each replica for only the shard it
        owns.
        """
        self._check_fitted()
        selected = self._resolve_members(members)
        dataset = self._prepare_eval(self.as_dataset(X))
        n_classes = len(self._class_label_values)
        if not selected:
            return np.zeros((0, len(dataset), n_classes))
        if not len(dataset):
            return np.zeros((len(selected), 0, n_classes))
        return np.stack(
            [
                self.trees_[member].classify_batch(self._member_view(dataset, member))
                for member in selected
            ]
        )

    def _classify_dataset(self, dataset: UncertainDataset) -> np.ndarray:
        """Mean of the members' columnar ``classify_batch`` matrices.

        Accumulated in member order with one division at the end, so the
        result is a pure function of the fitted trees — every call site
        (offline, serving engine, worker pool) gets the same bits.
        """
        self._check_fitted()
        if not len(dataset):
            return np.zeros((0, len(self.classes_)))
        total: "np.ndarray | None" = None
        for tree, view in self._member_views(dataset):
            votes = tree.classify_batch(view)
            total = votes if total is None else total + votes
        return total / len(self.trees_)

    def _classify_tuple(self, item: UncertainTuple) -> np.ndarray:
        self._check_fitted()
        prepared = self._prepare_tuple(item)
        total: "np.ndarray | None" = None
        for tree, indices in zip(self.trees_, self.tree_feature_indices_):
            member_item = prepared
            if indices is not None:
                member_item = UncertainTuple(
                    [prepared.features[i] for i in indices],
                    label=prepared.label,
                    weight=prepared.weight,
                )
            vote = tree.classify(member_item)
            total = vote if total is None else total + vote
        return total / len(self.trees_)

    def _labels_for(self, probabilities: np.ndarray) -> list:
        labels = self._class_label_values
        return [labels[index] for index in np.argmax(probabilities, axis=1)]

    # -- the estimator API ----------------------------------------------------

    def predict_proba(self, X) -> np.ndarray:
        """Soft-voted class probabilities (mean of the member trees' votes)."""
        if isinstance(X, UncertainTuple):
            return self._classify_tuple(X)
        return self._classify_dataset(self._prepare_eval(self.as_dataset(X)))

    def predict(self, X):
        """Predicted labels: argmax of the soft vote over ``classes_``."""
        if isinstance(X, UncertainTuple):
            probabilities = self._classify_tuple(X)
            return self._class_label_values[int(np.argmax(probabilities))]
        probabilities = self._classify_dataset(self._prepare_eval(self.as_dataset(X)))
        return np.asarray(self._labels_for(probabilities))

    def predict_batch(self, X) -> list:
        """Predicted labels as a plain list (the pre-array batch alias)."""
        return self._labels_for(self.predict_proba_batch(X))

    def predict_proba_batch(self, X) -> np.ndarray:
        """Class-probability matrix for a whole dataset or array."""
        return self._classify_dataset(self._prepare_eval(self.as_dataset(X)))


class UDTForestClassifier(BaseForestClassifier):
    """Bagged forest of distribution-based uncertain trees (UDT members).

    Parameters
    ----------
    strategy, measure, spec, max_depth, min_split_weight,
    min_dispersion_gain, post_prune, post_prune_confidence:
        Per-member tree parameters, as on
        :class:`~repro.core.udt.UDTClassifier`.
    n_estimators:
        Number of member trees.
    random_state:
        Seed of the per-member ``SeedSequence`` draws; the same value always
        builds the same forest, regardless of ``n_jobs``.
    bootstrap:
        Resample each member's training set with replacement (on by
        default).  With ``bootstrap=False`` diversity comes only from
        ``feature_subsample``.
    feature_subsample:
        Features seen by each member: ``None`` (all), ``"sqrt"``, a fraction
        in ``(0, 1]`` or an integer count.
    n_jobs:
        Worker processes for member training (1 = sequential; results are
        identical either way).
    oob_score:
        Compute out-of-bag accuracy estimates during :meth:`fit` (requires
        ``bootstrap=True``): the forest-level ``oob_score_`` and per-member
        ``oob_member_scores_``.

    Attributes
    ----------
    trees_:
        The fitted member :class:`~repro.core.tree.DecisionTree` objects.
    tree_feature_indices_:
        Per-member sorted feature-column subsets (``None`` = all features).
    oob_score_, oob_member_scores_:
        Out-of-bag accuracy of the forest / of each member on the rows its
        bootstrap missed (``None`` unless fitted with ``oob_score=True``).
    stream_member_scores_:
        Decayed per-member accuracy on streamed :meth:`partial_fit` batches
        (``None`` until the first batch); ranks members for
        :meth:`refresh_members`.
    trained_at_, update_generation_:
        Model lineage: last (re)training timestamp and the number of
        incremental updates applied since the full fit.
    classes_, n_features_in_, feature_extents_:
        As on the single-tree estimators.
    """

    def __init__(
        self,
        strategy: "str | SplitFinder" = "UDT-ES",
        measure: "str | DispersionMeasure" = "entropy",
        *,
        n_estimators: int = 11,
        spec=None,
        max_depth: "int | None" = None,
        min_split_weight: float = 2.0,
        min_dispersion_gain: float = 1e-9,
        post_prune: bool = True,
        post_prune_confidence: float = 0.25,
        n_jobs: int = 1,
        random_state: int = 0,
        bootstrap: bool = True,
        feature_subsample=None,
        oob_score: bool = False,
    ) -> None:
        self.strategy = strategy
        self.measure = measure
        self.n_estimators = n_estimators
        self.spec = spec
        self.max_depth = max_depth
        self.min_split_weight = min_split_weight
        self.min_dispersion_gain = min_dispersion_gain
        self.post_prune = post_prune
        self.post_prune_confidence = post_prune_confidence
        self.n_jobs = n_jobs
        self.random_state = random_state
        self.bootstrap = bootstrap
        self.feature_subsample = feature_subsample
        self.oob_score = oob_score
        self.trees_ = None
        self.tree_ = None
        self.build_stats_ = None


class AveragingForestClassifier(MeanReductionMixin, BaseForestClassifier):
    """Bagged forest over the AVG baseline (pdfs collapsed to their means).

    The ensemble counterpart of
    :class:`~repro.core.averaging.AveragingClassifier`: identical bagging
    machinery, but every member trains and classifies on point data, so any
    accuracy gap to :class:`UDTForestClassifier` measures the value of
    distribution information at the ensemble level.
    """

    def __init__(
        self,
        strategy: "str | SplitFinder" = "UDT",
        measure: "str | DispersionMeasure" = "entropy",
        *,
        n_estimators: int = 11,
        spec=None,
        max_depth: "int | None" = None,
        min_split_weight: float = 2.0,
        min_dispersion_gain: float = 1e-9,
        post_prune: bool = True,
        post_prune_confidence: float = 0.25,
        n_jobs: int = 1,
        random_state: int = 0,
        bootstrap: bool = True,
        feature_subsample=None,
        oob_score: bool = False,
    ) -> None:
        self.strategy = strategy
        self.measure = measure
        self.n_estimators = n_estimators
        self.spec = spec
        self.max_depth = max_depth
        self.min_split_weight = min_split_weight
        self.min_dispersion_gain = min_dispersion_gain
        self.post_prune = post_prune
        self.post_prune_confidence = post_prune_confidence
        self.n_jobs = n_jobs
        self.random_state = random_state
        self.bootstrap = bootstrap
        self.feature_subsample = feature_subsample
        self.oob_score = oob_score
        self.trees_ = None
        self.tree_ = None
        self.build_stats_ = None
