"""Top-down construction of decision trees over uncertain data (Section 4).

:class:`TreeBuilder` implements the greedy framework shared by the Averaging
and Distribution-based approaches: starting from the full training set, each
node either becomes a leaf (pre-pruning / stopping rules) or receives the
attribute and split point chosen by a pluggable *split-finding strategy*
(:mod:`repro.core.strategies`), after which the tuples are partitioned —
fractionally, when a pdf straddles the split point — and the children are
built recursively.  Optional C4.5-style pessimistic post-pruning is applied
at the end (:mod:`repro.core.postprune`).  Construction runs on the training
set's flat-array :class:`~repro.core.columnar.ColumnarPdfStore`, one
:class:`~repro.core.columnar.ColumnarNodeView` per node.

The builder is deliberately agnostic of *how* the best split is found; the
UDT / UDT-BP / UDT-LP / UDT-GP / UDT-ES strategies all plug in here and, by
the safe-pruning theorems, produce identical trees while doing different
amounts of work.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro.core.columnar import ColumnarNodeView, ColumnarPdfStore
from repro.core.dataset import UncertainDataset
from repro.core.dispersion import DispersionMeasure, get_measure
from repro.core.postprune import pessimistic_prune
from repro.core.splits import CandidateSplit
from repro.core.stats import BuildStats, SplitSearchStats, Timer
from repro.core.strategies import SplitFinder, get_strategy
from repro.core.tree import DecisionTree, InternalNode, LeafNode, TreeNode
from repro.exceptions import DatasetError, TreeError

__all__ = ["TreeBuilder", "BuildResult"]

#: Weighted counts below this value are treated as zero mass.
_EPS = 1e-9

#: Minimum average column size (pdf samples per numerical attribute) before
#: ``n_jobs > 1`` switches context construction to the thread pool.  Below
#: this, numpy calls are too short to release the GIL for long, and the
#: fused sequential pass (which also feeds the root-context memo and the
#: parent-to-child sorted-order inheritance) is measurably faster than
#: threading — so small and medium datasets ignore ``n_jobs`` here and only
#: keep the fold-level process parallelism.
_THREAD_MIN_SAMPLES_PER_ATTRIBUTE = 65536


@dataclass
class BuildResult:
    """A built tree together with the statistics collected while building it."""

    tree: DecisionTree
    stats: BuildStats = field(default_factory=BuildStats)


class TreeBuilder:
    """Recursive top-down builder for uncertain decision trees.

    Parameters
    ----------
    strategy:
        Split-finding strategy (an instance or one of the names in
        :data:`~repro.core.strategies.STRATEGY_NAMES`).  Defaults to the
        most heavily pruned variant, ``"UDT-ES"``, since all strategies
        produce the same tree.
    measure:
        Dispersion measure (``"entropy"``, ``"gini"`` or ``"gain_ratio"``,
        or an instance).  Entropy is the paper's default.
    max_depth:
        Maximum tree depth (``None`` for unlimited).
    min_split_weight:
        Minimum total fractional weight a node must hold to be split
        further (pre-pruning).  The paper's C4.5 heritage uses 2.
    min_dispersion_gain:
        Minimum reduction of dispersion a split must achieve; smaller gains
        turn the node into a leaf (pre-pruning).
    post_prune:
        Whether to apply pessimistic post-pruning after construction.
    post_prune_confidence:
        Confidence factor of the pessimistic error estimate (C4.5 default
        0.25).
    n_jobs:
        Number of worker threads used to build per-attribute split contexts
        concurrently.  ``1`` (default) is sequential.  Threading only
        engages for very large stores (see
        ``_THREAD_MIN_SAMPLES_PER_ATTRIBUTE``); below that size the fused
        sequential pass is faster and is used regardless of ``n_jobs``.
    """

    def __init__(
        self,
        strategy: str | SplitFinder = "UDT-ES",
        measure: str | DispersionMeasure = "entropy",
        *,
        max_depth: int | None = None,
        min_split_weight: float = 2.0,
        min_dispersion_gain: float = 1e-9,
        post_prune: bool = True,
        post_prune_confidence: float = 0.25,
        n_jobs: int = 1,
    ) -> None:
        self.strategy = get_strategy(strategy)
        self.measure = get_measure(measure)
        if max_depth is not None and max_depth < 0:
            raise TreeError(f"max_depth must be non-negative, got {max_depth!r}")
        if n_jobs < 1:
            raise TreeError(f"n_jobs must be at least 1, got {n_jobs!r}")
        self.max_depth = max_depth
        self.min_split_weight = float(min_split_weight)
        self.min_dispersion_gain = float(min_dispersion_gain)
        self.post_prune = post_prune
        self.post_prune_confidence = float(post_prune_confidence)
        self.n_jobs = int(n_jobs)

    # -- public API ------------------------------------------------------------

    def build(self, dataset: UncertainDataset) -> BuildResult:
        """Build a decision tree from the given training dataset."""
        if not len(dataset):
            raise DatasetError("cannot build a decision tree from an empty dataset")
        if dataset.n_classes == 0:
            raise DatasetError("the training dataset has no class labels")
        stats = BuildStats()
        with Timer() as timer:
            store = ColumnarPdfStore.from_dataset(dataset, require_labels=True)
            n_attributes = len(store.numerical_indices)
            executor: ThreadPoolExecutor | None = None
            if (
                self.n_jobs > 1
                and n_attributes > 1
                and store.n_samples_total >= n_attributes * _THREAD_MIN_SAMPLES_PER_ATTRIBUTE
            ):
                executor = ThreadPoolExecutor(max_workers=self.n_jobs)
            try:
                root = self._build_node(
                    store,
                    store.root_view(),
                    dataset,
                    depth=0,
                    used_categorical=frozenset(),
                    stats=stats,
                    executor=executor,
                )
            finally:
                if executor is not None:
                    executor.shutdown()
            if self.post_prune:
                root, n_collapsed = pessimistic_prune(
                    root, confidence=self.post_prune_confidence
                )
                stats.record_post_prune(n_collapsed)
        stats.elapsed_seconds = timer.elapsed
        tree = DecisionTree(root, dataset.attributes, dataset.class_labels)
        return BuildResult(tree=tree, stats=stats)

    def root_split_gain(self, dataset: UncertainDataset) -> float:
        """Dispersion gain the best root split of ``dataset`` would achieve.

        The streaming updater (:mod:`repro.stream.updates`) uses this as its
        re-split trigger.  The gain is computed exactly like :meth:`build`
        computes it for the root node — same stopping rules, same candidate
        enumeration — so a return value of at least ``min_dispersion_gain``
        means a fresh build of ``dataset`` would actually split its root.
        Returns 0.0 when a stopping rule fires or no candidate split is
        valid.
        """
        tuples = dataset.tuples
        if not tuples:
            return 0.0
        # The stopping rules need only the buffer's class weights, and most
        # checks stop there, so they run before the store is built.
        class_weights = np.zeros(dataset.n_classes)
        for item in tuples:
            class_weights[dataset.label_index(item.label)] += item.weight
        total_weight = float(class_weights.sum())
        homogeneous = int(np.count_nonzero(class_weights > _EPS)) <= 1
        depth_exhausted = self.max_depth is not None and self.max_depth <= 0
        if homogeneous or depth_exhausted or total_weight < self.min_split_weight:
            return 0.0
        # The store memoises its root contexts, so a build of the same dataset
        # that follows a triggered re-split reuses them.
        store = ColumnarPdfStore.from_dataset(dataset, require_labels=True)
        best = self._find_best_split(
            store, store.root_view(), dataset, frozenset(), SplitSearchStats(), None
        )
        if best is None:
            return 0.0
        return max(0.0, float(self.measure.node_dispersion(class_weights) - best.dispersion))

    # -- node construction --------------------------------------------------------

    def _make_leaf(
        self, class_weights: np.ndarray, stats: BuildStats
    ) -> LeafNode:
        stats.record_leaf()
        total = float(class_weights.sum())
        if total <= 0:
            distribution = np.full(class_weights.size, 1.0 / class_weights.size)
        else:
            distribution = class_weights / total
        return LeafNode(distribution, training_weight=total)

    def _build_node(
        self,
        store: ColumnarPdfStore,
        view: ColumnarNodeView,
        dataset: UncertainDataset,
        *,
        depth: int,
        used_categorical: frozenset[int],
        stats: BuildStats,
        executor: ThreadPoolExecutor | None,
    ) -> TreeNode:
        class_weights = store.class_weights(view)
        total_weight = float(class_weights.sum())

        # Pre-pruning / stopping rules.
        homogeneous = int(np.count_nonzero(class_weights > _EPS)) <= 1
        depth_reached = self.max_depth is not None and depth >= self.max_depth
        too_small = total_weight < self.min_split_weight
        if homogeneous or depth_reached or too_small:
            return self._make_leaf(class_weights, stats)

        node_stats = SplitSearchStats()
        best = self._find_best_split(
            store, view, dataset, used_categorical, node_stats, executor
        )
        node_dispersion = self.measure.node_dispersion(class_weights)
        if best is None or node_dispersion - best.dispersion < self.min_dispersion_gain:
            return self._make_leaf(class_weights, stats)

        stats.record_node(node_stats)
        if best.categorical:
            return self._split_categorical(
                store, view, dataset, best, class_weights,
                depth=depth, used_categorical=used_categorical, stats=stats, executor=executor,
            )
        return self._split_numerical(
            store, view, dataset, best, class_weights,
            depth=depth, used_categorical=used_categorical, stats=stats, executor=executor,
        )

    def _find_best_split(
        self,
        store: ColumnarPdfStore,
        view: ColumnarNodeView,
        dataset: UncertainDataset,
        used_categorical: frozenset[int],
        node_stats: SplitSearchStats,
        executor: ThreadPoolExecutor | None,
    ) -> CandidateSplit | None:
        """The lower-dispersion valid split of the numerical and categorical searches."""
        best: CandidateSplit | None = None
        for candidate in (
            self._find_numerical_split(store, view, dataset, node_stats, executor),
            self._find_categorical_split(store, view, used_categorical, node_stats),
        ):
            if candidate is None or not candidate.is_valid:
                continue
            if best is None or candidate.dispersion < best.dispersion:
                best = candidate
        return best

    # -- numerical splits ------------------------------------------------------------

    def _find_numerical_split(
        self,
        store: ColumnarPdfStore,
        view: ColumnarNodeView,
        dataset: UncertainDataset,
        node_stats: SplitSearchStats,
        executor: ThreadPoolExecutor | None,
    ) -> CandidateSplit | None:
        if not store.numerical_indices:
            return None
        if executor is not None:
            contexts = list(
                executor.map(
                    lambda attr: store.build_context(view, attr, dataset.class_labels),
                    store.numerical_indices,
                )
            )
        else:
            # The fused pass produces bit-identical contexts to the
            # per-attribute calls above; the executor path trades its extra
            # numpy dispatch overhead for attribute-level thread parallelism.
            contexts = store.build_contexts(view, dataset.class_labels)
        return self.strategy.find_best_split(contexts, self.measure, node_stats)

    def _split_numerical(
        self,
        store: ColumnarPdfStore,
        view: ColumnarNodeView,
        dataset: UncertainDataset,
        split: CandidateSplit,
        class_weights: np.ndarray,
        *,
        depth: int,
        used_categorical: frozenset[int],
        stats: BuildStats,
        executor: ThreadPoolExecutor | None,
    ) -> TreeNode:
        assert split.attribute_index is not None and split.split_point is not None
        left_view, right_view = store.split_numerical(
            view, split.attribute_index, split.split_point, weight_eps=_EPS
        )
        if left_view is None or right_view is None:
            # The chosen split does not actually discern the tuples (can only
            # happen through floating point degeneracies); fall back to a leaf.
            return self._make_leaf(class_weights, stats)
        left_child = self._build_node(
            store, left_view, dataset,
            depth=depth + 1, used_categorical=used_categorical, stats=stats, executor=executor,
        )
        right_child = self._build_node(
            store, right_view, dataset,
            depth=depth + 1, used_categorical=used_categorical, stats=stats, executor=executor,
        )
        total = float(class_weights.sum())
        return InternalNode(
            split.attribute_index,
            split_point=split.split_point,
            left=left_child,
            right=right_child,
            training_weight=total,
            training_distribution=class_weights / total if total > 0 else None,
        )

    # -- categorical splits -------------------------------------------------------------

    def _find_categorical_split(
        self,
        store: ColumnarPdfStore,
        view: ColumnarNodeView,
        used_categorical: frozenset[int],
        node_stats: SplitSearchStats,
    ) -> CandidateSplit | None:
        """Best multiway split over the unused categorical attributes."""
        best: CandidateSplit | None = None
        for index in store.categorical_indices:
            if index in used_categorical:
                continue
            non_empty = [
                counts for counts in store.category_counts(view, index) if counts.sum() > _EPS
            ]
            if len(non_empty) < 2:
                continue
            node_stats.entropy_evaluations += 1
            total_counts = np.sum(non_empty, axis=0)
            grand_total = float(total_counts.sum())
            dispersion = 0.0
            for counts in non_empty:
                dispersion += (
                    counts.sum() / grand_total
                ) * self.measure.node_dispersion(counts)
            candidate = CandidateSplit(
                attribute_index=index,
                split_point=None,
                dispersion=float(dispersion),
                categorical=True,
            )
            if best is None or candidate.dispersion < best.dispersion:
                best = candidate
        return best

    def _split_categorical(
        self,
        store: ColumnarPdfStore,
        view: ColumnarNodeView,
        dataset: UncertainDataset,
        split: CandidateSplit,
        class_weights: np.ndarray,
        *,
        depth: int,
        used_categorical: frozenset[int],
        stats: BuildStats,
        executor: ThreadPoolExecutor | None,
    ) -> TreeNode:
        assert split.attribute_index is not None
        attribute_index = split.attribute_index
        children = store.split_categorical(view, attribute_index, weight_eps=_EPS)
        if len(children) < 2:
            return self._make_leaf(class_weights, stats)
        new_used = used_categorical | {attribute_index}
        branches: dict[Hashable, TreeNode] = {
            category: self._build_node(
                store, child_view, dataset,
                depth=depth + 1, used_categorical=new_used, stats=stats, executor=executor,
            )
            for category, child_view in children.items()
        }
        total = float(class_weights.sum())
        fallback = class_weights / total if total > 0 else None
        return InternalNode(
            attribute_index,
            branches=branches,
            fallback=fallback,
            training_weight=total,
            training_distribution=fallback,
        )
