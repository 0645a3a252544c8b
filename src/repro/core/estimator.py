"""Shared sklearn-protocol machinery for the high-level classifiers.

:class:`BaseTreeEstimator` gives :class:`~repro.core.udt.UDTClassifier` and
:class:`~repro.core.averaging.AveragingClassifier` the scikit-learn estimator
contract by duck typing — no scikit-learn import is required anywhere:

* constructor parameters are stored verbatim under their own names, and
  ``get_params`` / ``set_params`` are derived from the ``__init__``
  signature, so :func:`sklearn.base.clone`, ``cross_val_score`` and
  ``GridSearchCV`` (including nested grids like ``spec__w``) work out of the
  box;
* ``fit`` / ``predict`` / ``predict_proba`` / ``score`` accept either the
  library's :class:`~repro.core.dataset.UncertainDataset` objects or plain
  2-D arrays; arrays are converted through the estimator's declarative
  ``spec`` (see :mod:`repro.api.spec`), with pdf widths scaled by the
  *training* value ranges so test-time transforms match training, and
  ``as_dataset`` returns the dataset the predict methods read for an input;
* the fitted state follows sklearn naming: ``classes_``,
  ``n_features_in_``, ``feature_extents_``, ``tree_``, ``build_stats_``.

Return-type contract (uniform across both classifiers):

=====================================  =================================
input to ``predict`` / ``predict_proba``   return type
=====================================  =================================
single ``UncertainTuple``              label / ``(n_classes,)`` vector
``UncertainDataset``                   ``(n,)`` label array / ``(n, n_classes)``
2-D array-like                         ``(n,)`` label array / ``(n, n_classes)``
=====================================  =================================
"""

from __future__ import annotations

import inspect
from datetime import datetime, timezone
from typing import Hashable, Sequence

import numpy as np

from repro.core.builder import TreeBuilder
from repro.core.dataset import UncertainDataset, UncertainTuple
from repro.core.params import ParamsMixin
from repro.core.stats import BuildStats
from repro.core.tree import DecisionTree
from repro.exceptions import DatasetError, TreeError

__all__ = ["BaseTreeEstimator", "clone_estimator"]


def _utc_timestamp() -> str:
    """Current UTC time as a compact ISO-8601 string (model lineage stamps)."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds").replace("+00:00", "Z")


def _input_length(X) -> int | None:
    """Row count of an array-like, or ``None`` when it cannot be sized."""
    shape = getattr(X, "shape", None)
    if shape is not None and len(shape) >= 1:
        return int(shape[0])
    try:
        return len(X)
    except TypeError:
        return None


class BaseTreeEstimator(ParamsMixin):
    """sklearn-compatible base class of the uncertain-tree classifiers.

    The parameter protocol (``get_params`` / ``set_params`` derived from the
    ``__init__`` signature, unknown names raising :class:`ValueError` as
    sklearn does) comes from :class:`~repro.core.params.ParamsMixin`.
    """

    #: Duck-typed marker read by older scikit-learn versions (``is_classifier``).
    _estimator_type = "classifier"

    tree_: DecisionTree | None
    build_stats_: BuildStats | None

    def __sklearn_tags__(self):
        """Estimator tags for scikit-learn >= 1.6 (lazy import, optional)."""
        from sklearn.utils import ClassifierTags, Tags, TargetTags  # noqa: PLC0415

        return Tags(
            estimator_type="classifier",
            target_tags=TargetTags(required=True),
            classifier_tags=ClassifierTags(),
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params(deep=False).items()))
        return f"{type(self).__name__}({inner})"

    # -- template hooks (overridden by AveragingClassifier) -----------------

    def _prepare_training(self, dataset: UncertainDataset) -> UncertainDataset:
        """Transform the training dataset before tree construction."""
        return dataset

    def _prepare_eval(self, dataset: UncertainDataset) -> UncertainDataset:
        """Transform a test dataset before classification."""
        return dataset

    def _prepare_tuple(self, item: UncertainTuple) -> UncertainTuple:
        """Transform a single test tuple before classification."""
        return item

    # -- data coercion -------------------------------------------------------

    def _make_builder(self) -> TreeBuilder:
        return TreeBuilder(
            strategy=self.strategy,
            measure=self.measure,
            max_depth=self.max_depth,
            min_split_weight=self.min_split_weight,
            min_dispersion_gain=self.min_dispersion_gain,
            post_prune=self.post_prune,
            post_prune_confidence=self.post_prune_confidence,
            n_jobs=self.n_jobs,
        )

    @staticmethod
    def _column_names(X) -> list[str] | None:
        """Column names of a DataFrame-style ``X`` (duck-typed), else ``None``.

        Name-keyed mapping specs (``spec={"mass": gaussian(...)}``) resolve
        against these; plain arrays only support index-keyed specs.
        """
        columns = getattr(X, "columns", None)
        if columns is None:
            return None
        return [str(name) for name in columns]

    def _coerce_training(self, X, y) -> UncertainDataset:
        from repro.api.spec import build_dataset, dataset_extents

        if isinstance(X, UncertainDataset):
            if y is not None:
                raise DatasetError(
                    "pass labels inside the UncertainDataset tuples, not as y"
                )
            self.feature_extents_ = dataset_extents(X)
            self.feature_names_in_ = [attribute.name for attribute in X.attributes]
            return X
        if isinstance(X, UncertainTuple):
            raise DatasetError("fit() needs a dataset or a 2-D array, not a single tuple")
        if y is None:
            raise DatasetError("fit(X, y) on arrays requires class labels y")
        from repro.api.spec import compute_extents

        names = self._column_names(X)
        # Record the raw-value extents build_dataset scales the pdfs by (not
        # extents recomputed from the discretised pdfs), so predict-time
        # array conversion is bit-identical to the training conversion.
        extents = compute_extents(X, spec=self.spec, attribute_names=names)
        dataset = build_dataset(
            X, y, spec=self.spec, attribute_names=names, extents=extents
        )
        self.feature_extents_ = extents
        self.feature_names_in_ = [attribute.name for attribute in dataset.attributes]
        return dataset

    def _normalise_eval_rows(self, X):
        """Make array-like predict input 2-D: 1-D input becomes one row.

        A 1-D array (or flat sequence of scalars) whose length matches
        ``n_features_in_`` is interpreted as a single sample; the fitted
        feature count disambiguates it from a column of single-feature rows.
        """
        n_features = getattr(self, "n_features_in_", None)
        if n_features is None:
            return X
        values = X
        if not isinstance(values, np.ndarray):
            try:
                candidate = np.asarray(values)
            except Exception:
                return X
            if candidate.dtype == object:
                return X
            values = candidate
        if values.ndim != 1 or values.size == 0:
            return X
        if values.size == n_features:
            return values.reshape(1, -1)
        if n_features == 1:
            return values.reshape(-1, 1)
        raise DatasetError(
            f"1-D input of length {values.size} does not match the "
            f"{n_features} features seen during fit; pass a 2-D array"
        )

    def as_dataset(self, X) -> UncertainDataset:
        """``X`` as the uncertain dataset the predict methods read.

        Rows are materialised as pdfs through ``spec``, with the extents and
        names recorded at fit, into a store-backed dataset; a dataset comes
        back as it is.  The predict methods give the same bits for the result
        as for ``X``, so rows predicted more than once are materialised once.
        Any test-time preparation (AVG's reduction of every pdf to its mean)
        stays in the predict methods.
        """
        from repro.api.spec import build_dataset

        if isinstance(X, UncertainDataset):
            return X
        X = self._normalise_eval_rows(X)
        if _input_length(X) == 0:
            # Empty batches short-circuit: build_dataset cannot infer a
            # schema from zero rows, but a fitted estimator knows its own.
            attributes, class_labels = self._eval_schema()
            return UncertainDataset(attributes, [], class_labels=class_labels)
        # Test-time arrays reuse the names recorded at fit, so name-keyed
        # specs keep resolving even when predict() receives a bare ndarray.
        names = self._column_names(X) or getattr(self, "feature_names_in_", None)
        extents = getattr(self, "feature_extents_", None)
        return build_dataset(X, None, spec=self.spec, extents=extents, attribute_names=names)

    def _coerce_update(self, X, y) -> UncertainDataset:
        """Coerce a ``partial_fit`` batch: labelled rows under the *fitted* schema.

        Unlike :meth:`_coerce_training` this never recomputes extents — the
        streamed rows are converted with the pdf widths recorded at fit, so
        a drifting stream cannot silently rescale the uncertainty model.
        """
        from repro.api.spec import build_dataset

        if isinstance(X, UncertainDataset):
            if y is not None:
                raise DatasetError(
                    "pass labels inside the UncertainDataset tuples, not as y"
                )
            return X
        if isinstance(X, UncertainTuple):
            raise DatasetError(
                "partial_fit() needs a dataset or a 2-D array, not a single tuple"
            )
        if y is None:
            raise DatasetError("partial_fit(X, y) on arrays requires class labels y")
        X = self._normalise_eval_rows(X)
        names = self._column_names(X) or getattr(self, "feature_names_in_", None)
        extents = getattr(self, "feature_extents_", None)
        return build_dataset(X, y, spec=self.spec, extents=extents, attribute_names=names)

    def _stamp_fitted(self) -> None:
        """Record lineage at fit time: trained_at_ / update_generation_."""
        self.trained_at_ = _utc_timestamp()
        self.update_generation_ = 0

    def _bump_update_generation(self) -> None:
        """Record lineage after an incremental update."""
        self.update_generation_ = int(getattr(self, "update_generation_", 0) or 0) + 1
        self.trained_at_ = _utc_timestamp()

    def _require_tree(self) -> DecisionTree:
        if self.tree_ is None:
            raise TreeError("the classifier has not been fitted yet; call fit() first")
        return self.tree_

    def _check_fitted(self) -> None:
        """Raise :class:`TreeError` when the estimator has not been fitted.

        Overridden by ensemble estimators, whose fitted state is a list of
        trees rather than a single ``tree_``.
        """
        self._require_tree()

    def _eval_schema(self) -> tuple:
        """``(attributes, class_labels)`` a 0-row eval dataset must carry.

        The default reads them off the fitted tree; ensembles override this
        with the full training schema (a feature-subsampled member tree only
        knows its own column subset).
        """
        tree = self._require_tree()
        return tree.attributes, tree.class_labels

    # -- the estimator API ---------------------------------------------------

    def fit(self, X, y: Sequence[Hashable] | None = None) -> "BaseTreeEstimator":
        """Build the decision tree.

        ``X`` is either an :class:`UncertainDataset` (labels inside, ``y``
        must be omitted) or a 2-D array-like converted through ``spec``
        (``y`` required).
        """
        dataset = self._prepare_training(self._coerce_training(X, y))
        result = self._make_builder().build(dataset)
        self.tree_ = result.tree
        self.build_stats_ = result.stats
        self.classes_ = np.asarray(dataset.class_labels)
        self.n_features_in_ = dataset.n_attributes
        self._stamp_fitted()
        return self

    def partial_fit(
        self,
        X,
        y: Sequence[Hashable] | None = None,
        *,
        resplit_gain: float = 0.01,
        resplit_min_weight: float = 8.0,
    ) -> "BaseTreeEstimator":
        """Incrementally update the fitted tree with a batch of labelled rows.

        ``X`` / ``y`` follow the :meth:`fit` contract, but are converted
        with the feature extents recorded at fit and must only use class
        labels seen then.  New tuples are routed down the tree, leaf
        class-mass statistics are updated in place, and leaves whose
        accumulated stream crosses the re-split trigger are locally rebuilt
        (see :class:`repro.stream.updates.TreeUpdater`).  Each call bumps
        ``update_generation_`` and restamps ``trained_at_``; the routing
        report lands in ``last_update_report_``.

        The estimator must already be fitted — the tree's schema (splits,
        classes, extents) is what the stream updates.
        """
        self._check_fitted()
        tree = self._require_tree()
        dataset = self._prepare_training(self._coerce_update(X, y))
        if not len(dataset):
            return self
        self.last_update_report_ = tree.partial_fit(
            dataset,
            builder=self._make_builder(),
            resplit_gain=resplit_gain,
            resplit_min_weight=resplit_min_weight,
        )
        self._bump_update_generation()
        return self

    def predict(self, X):
        """Predicted labels: a single label for one tuple, else ``(n,)`` array."""
        tree = self._require_tree()
        if isinstance(X, UncertainTuple):
            return tree.predict(self._prepare_tuple(X))
        dataset = self._prepare_eval(self.as_dataset(X))
        return np.asarray(tree.predict_dataset(dataset))

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities: ``(n_classes,)`` for one tuple, else ``(n, n_classes)``."""
        tree = self._require_tree()
        if isinstance(X, UncertainTuple):
            return tree.classify(self._prepare_tuple(X))
        dataset = self._prepare_eval(self.as_dataset(X))
        return tree.classify_dataset(dataset)

    def predict_batch(self, X) -> list:
        """Predicted labels for a whole dataset or array (columnar batch path).

        Kept from the pre-array API (it predates ``predict`` handling whole
        datasets); returns a plain list of labels.  Arrays are coerced
        through the estimator's ``spec`` exactly like :meth:`predict`.
        """
        tree = self._require_tree()
        return tree.predict_dataset(self._prepare_eval(self.as_dataset(X)))

    def predict_proba_batch(self, X) -> np.ndarray:
        """Class-probability matrix for a whole dataset or array."""
        tree = self._require_tree()
        return tree.classify_batch(self._prepare_eval(self.as_dataset(X)))

    def score(self, X, y: Sequence[Hashable] | None = None) -> float:
        """Accuracy against ``y`` (arrays) or the dataset's own labels."""
        self._check_fitted()
        if isinstance(X, UncertainTuple):
            raise DatasetError("score() needs a dataset or arrays, not a single tuple")
        if isinstance(X, UncertainDataset):
            labels = [item.label for item in X] if y is None else list(y)
        else:
            if y is None:
                raise DatasetError("score(X, y) on arrays requires class labels y")
            labels = list(y)
        dataset = self.as_dataset(X)
        if not len(dataset):
            raise TreeError("cannot compute accuracy on an empty dataset")
        if len(labels) != len(dataset):
            raise DatasetError(f"y has {len(labels)} labels but X has {len(dataset)} rows")
        predictions = self.predict(dataset)
        correct = sum(1 for predicted, true in zip(predictions, labels) if predicted == true)
        return correct / len(dataset)

    # -- persistence ---------------------------------------------------------

    def save(self, path, *, format_version: int | None = None) -> None:
        """Serialise the fitted estimator (see :mod:`repro.api.persistence`).

        ``format_version`` selects the archive layout; the default (current
        version) stores distributions in a page-aligned, mmap-able block,
        while ``format_version=2`` emits archives loadable by older
        deployments.
        """
        from repro.api.persistence import save_model

        save_model(self, path, format_version=format_version)


def clone_estimator(estimator):
    """Unfitted copy of an estimator, sklearn ``clone``-style (duck-typed)."""
    params = estimator.get_params(deep=False)
    cloned = {}
    for name, value in params.items():
        if hasattr(value, "get_params") and not inspect.isclass(value):
            value = type(value)(**value.get_params())
        cloned[name] = value
    return type(estimator)(**cloned)
