"""Per-tuple reference tree builder: the equivalence oracle of the columnar store.

:class:`~repro.core.builder.TreeBuilder` builds every tree on the flat-array
:class:`~repro.core.columnar.ColumnarPdfStore`, categorical attributes
included.  :class:`TupleReferenceBuilder` is the same greedy recursion
written directly over the per-tuple object model: per-tuple split contexts
(``tuple_contexts.build_contexts``), categorical buckets summed one tuple
and one category at a time, and fractional tuples cut with
:meth:`~repro.core.pdf.SampledPdf.split_at` /
:meth:`~repro.core.dataset.UncertainTuple.with_feature` (Section 3.2).  It
shares only the configuration, the split strategies and the leaf
construction with the production builder, so the property tests that
compare the two keep their teeth.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.core.builder import _EPS, BuildResult, TreeBuilder
from repro.core.categorical import CategoricalDistribution
from repro.core.dataset import UncertainDataset, UncertainTuple
from repro.core.postprune import pessimistic_prune
from repro.core.splits import CandidateSplit
from repro.core.stats import BuildStats, SplitSearchStats, Timer
from repro.core.tree import DecisionTree, InternalNode, TreeNode
from repro.exceptions import DatasetError

from tuple_contexts import build_contexts

__all__ = ["TupleReferenceBuilder"]


class TupleReferenceBuilder(TreeBuilder):
    """A :class:`TreeBuilder` whose :meth:`build` walks the per-tuple objects."""

    def build(self, dataset: UncertainDataset) -> BuildResult:
        if not len(dataset):
            raise DatasetError("cannot build a decision tree from an empty dataset")
        if dataset.n_classes == 0:
            raise DatasetError("the training dataset has no class labels")
        stats = BuildStats()
        with Timer() as timer:
            root = self._grow(
                dataset.tuples, dataset, depth=0, used_categorical=frozenset(), stats=stats
            )
            if self.post_prune:
                root, n_collapsed = pessimistic_prune(
                    root, confidence=self.post_prune_confidence
                )
                stats.record_post_prune(n_collapsed)
        stats.elapsed_seconds = timer.elapsed
        tree = DecisionTree(root, dataset.attributes, dataset.class_labels)
        return BuildResult(tree=tree, stats=stats)

    @staticmethod
    def _tuple_class_weights(
        tuples: Sequence[UncertainTuple], dataset: UncertainDataset
    ) -> np.ndarray:
        counts = np.zeros(dataset.n_classes)
        for item in tuples:
            counts[dataset.label_index(item.label)] += item.weight
        return counts

    def _grow(
        self,
        tuples: Sequence[UncertainTuple],
        dataset: UncertainDataset,
        *,
        depth: int,
        used_categorical: frozenset[int],
        stats: BuildStats,
    ) -> TreeNode:
        class_weights = self._tuple_class_weights(tuples, dataset)
        total_weight = float(class_weights.sum())
        homogeneous = int(np.count_nonzero(class_weights > _EPS)) <= 1
        depth_reached = self.max_depth is not None and depth >= self.max_depth
        if homogeneous or depth_reached or total_weight < self.min_split_weight:
            return self._make_leaf(class_weights, stats)

        node_stats = SplitSearchStats()
        numerical = [
            index for index, attribute in enumerate(dataset.attributes) if attribute.is_numerical
        ]
        best_numerical = (
            self.strategy.find_best_split(
                build_contexts(tuples, numerical, dataset.class_labels), self.measure, node_stats
            )
            if numerical
            else None
        )
        best_categorical = self._tuple_categorical_split(
            tuples, dataset, used_categorical, node_stats
        )
        best: CandidateSplit | None = None
        for candidate in (best_numerical, best_categorical):
            if candidate is None or not candidate.is_valid:
                continue
            if best is None or candidate.dispersion < best.dispersion:
                best = candidate
        node_dispersion = self.measure.node_dispersion(class_weights)
        if best is None or node_dispersion - best.dispersion < self.min_dispersion_gain:
            return self._make_leaf(class_weights, stats)

        stats.record_node(node_stats)
        if best.categorical:
            return self._grow_categorical(
                tuples, dataset, best, class_weights,
                depth=depth, used_categorical=used_categorical, stats=stats,
            )
        return self._grow_numerical(
            tuples, dataset, best, class_weights,
            depth=depth, used_categorical=used_categorical, stats=stats,
        )

    def _tuple_categorical_split(
        self,
        tuples: Sequence[UncertainTuple],
        dataset: UncertainDataset,
        used_categorical: frozenset[int],
        node_stats: SplitSearchStats,
    ) -> CandidateSplit | None:
        weighted_items = [(item, item.weight) for item in tuples]
        best: CandidateSplit | None = None
        for index, attribute in enumerate(dataset.attributes):
            if not attribute.is_categorical or index in used_categorical:
                continue
            buckets = self._categorical_buckets(dataset, index, weighted_items)
            non_empty = [counts for counts in buckets.values() if counts.sum() > _EPS]
            if len(non_empty) < 2:
                continue
            node_stats.entropy_evaluations += 1
            grand_total = float(np.sum(non_empty, axis=0).sum())
            dispersion = 0.0
            for counts in non_empty:
                dispersion += (counts.sum() / grand_total) * self.measure.node_dispersion(counts)
            if best is None or dispersion < best.dispersion:
                best = CandidateSplit(
                    attribute_index=index,
                    split_point=None,
                    dispersion=float(dispersion),
                    categorical=True,
                )
        return best

    @staticmethod
    def _categorical_buckets(
        dataset: UncertainDataset,
        attribute_index: int,
        weighted_items: "list[tuple[UncertainTuple, float]]",
    ) -> dict[Hashable, np.ndarray]:
        """Per-category weighted class counts for a categorical attribute."""
        attribute = dataset.attributes[attribute_index]
        buckets = {value: np.zeros(dataset.n_classes) for value in attribute.domain}
        for item, weight in weighted_items:
            distribution = item.categorical(attribute_index)
            label_index = dataset.label_index(item.label)
            for category, probability in distribution.items():
                if category not in buckets:
                    buckets[category] = np.zeros(dataset.n_classes)
                buckets[category][label_index] += weight * probability
        return buckets

    def _grow_numerical(
        self,
        tuples: Sequence[UncertainTuple],
        dataset: UncertainDataset,
        split: CandidateSplit,
        class_weights: np.ndarray,
        *,
        depth: int,
        used_categorical: frozenset[int],
        stats: BuildStats,
    ) -> TreeNode:
        attribute_index = split.attribute_index
        split_point = split.split_point
        left_tuples: list[UncertainTuple] = []
        right_tuples: list[UncertainTuple] = []
        for item in tuples:
            p_left, left_pdf, right_pdf = item.pdf(attribute_index).split_at(split_point)
            if left_pdf is not None and p_left * item.weight > _EPS:
                left_tuples.append(
                    item.with_feature(attribute_index, left_pdf, item.weight * p_left)
                )
            if right_pdf is not None and (1.0 - p_left) * item.weight > _EPS:
                right_tuples.append(
                    item.with_feature(attribute_index, right_pdf, item.weight * (1.0 - p_left))
                )
        if not left_tuples or not right_tuples:
            return self._make_leaf(class_weights, stats)
        children = [
            self._grow(
                side, dataset, depth=depth + 1, used_categorical=used_categorical, stats=stats
            )
            for side in (left_tuples, right_tuples)
        ]
        total = float(class_weights.sum())
        return InternalNode(
            attribute_index,
            split_point=split_point,
            left=children[0],
            right=children[1],
            training_weight=total,
            training_distribution=class_weights / total if total > 0 else None,
        )

    def _grow_categorical(
        self,
        tuples: Sequence[UncertainTuple],
        dataset: UncertainDataset,
        split: CandidateSplit,
        class_weights: np.ndarray,
        *,
        depth: int,
        used_categorical: frozenset[int],
        stats: BuildStats,
    ) -> TreeNode:
        attribute_index = split.attribute_index
        partitions: dict[Hashable, list[UncertainTuple]] = {}
        for item in tuples:
            for category, probability in item.categorical(attribute_index).items():
                weight = item.weight * probability
                if weight <= _EPS:
                    continue
                partitions.setdefault(category, []).append(
                    item.with_feature(
                        attribute_index, CategoricalDistribution.certain(category), weight
                    )
                )
        if len(partitions) < 2:
            return self._make_leaf(class_weights, stats)
        new_used = used_categorical | {attribute_index}
        branches = {
            category: self._grow(
                child_tuples, dataset, depth=depth + 1, used_categorical=new_used, stats=stats
            )
            for category, child_tuples in partitions.items()
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
