"""Incremental updates of a trained decision tree (``partial_fit``).

The paper's leaf statistics are weighted class-mass sums, which makes a
trained tree naturally incrementable: a new uncertain tuple is routed down
the tree with exactly the *training* partition semantics of
:class:`~repro.core.builder.TreeBuilder` (fractional tuples with truncated,
renormalised pdfs at numerical tests, per-category fractions at categorical
tests), and every leaf it reaches adds the arriving mass to its class
distribution in place.

Each leaf additionally buffers the fractional tuples that reached it since
the leaf was created (its *accumulated tuples*).  When the buffered mass
crosses ``resplit_min_weight`` and the best split of the buffer would gain
at least ``resplit_gain`` dispersion, the leaf is *locally re-split*: a
fresh subtree is built from the buffer with the same
:class:`~repro.core.builder.TreeBuilder` configuration (depth budget reduced
by the leaf's depth) and swapped into the parent — bit-identical, by
construction, to building that subtree from scratch on the accumulated
tuples.  The rest of the tree is untouched, so an update costs a routing
pass plus at most a few leaf-sized rebuilds instead of a full retrain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.core.builder import _EPS, TreeBuilder
from repro.core.categorical import CategoricalDistribution
from repro.core.dataset import UncertainDataset, UncertainTuple
from repro.core.pdf import Pdf
from repro.core.tree import DecisionTree, InternalNode, LeafNode, TreeNode
from repro.exceptions import TreeError

__all__ = ["TreeUpdater", "UpdateReport"]


@dataclass
class UpdateReport:
    """What one :meth:`TreeUpdater.update` batch did to the tree."""

    #: Number of input tuples routed.
    n_tuples: int = 0
    #: Total fractional weight absorbed by leaves.
    routed_weight: float = 0.0
    #: Probability mass dropped at categorical tests with no matching branch.
    dropped_weight: float = 0.0
    #: Number of distinct leaves that received mass.
    touched_leaves: int = 0
    #: Number of leaves replaced by freshly built subtrees.
    n_resplits: int = 0

    def merge(self, other: "UpdateReport") -> "UpdateReport":
        """Accumulate another report into this one (e.g. across forest members)."""
        self.n_tuples += other.n_tuples
        self.routed_weight += other.routed_weight
        self.dropped_weight += other.dropped_weight
        self.touched_leaves += other.touched_leaves
        self.n_resplits += other.n_resplits
        return self


@dataclass
class _LeafState:
    """Accumulated streaming state of one live leaf.

    Holds a strong reference to the leaf (so ``id(leaf)`` keys stay unique
    for as long as the state lives) plus the leaf's position in the tree —
    needed to swap a re-split subtree into place — and the buffered
    fractional tuples routed here since the leaf was created.
    """

    leaf: LeafNode
    parent: InternalNode | None
    slot: Hashable
    depth: int
    buffer: list[UncertainTuple] = field(default_factory=list)
    buffer_weight: float = 0.0


class TreeUpdater:
    """Routes new uncertain tuples into a trained tree and re-splits leaves.

    Parameters
    ----------
    tree:
        The fitted :class:`~repro.core.tree.DecisionTree` to update.
    builder:
        The :class:`~repro.core.builder.TreeBuilder` configuration used for
        local re-splits (and the trigger's gain computation).  Pass the
        builder the tree was built with so re-split subtrees follow the same
        stopping/pruning rules; defaults to a builder with default
        parameters.
    resplit_gain:
        Minimum dispersion gain the best split of a leaf's accumulated
        tuples must achieve before the leaf is re-split.
    resplit_min_weight:
        Minimum accumulated fractional weight a leaf must buffer before the
        re-split trigger is evaluated at all.
    """

    def __init__(
        self,
        tree: DecisionTree,
        builder: TreeBuilder | None = None,
        *,
        resplit_gain: float = 0.01,
        resplit_min_weight: float = 8.0,
    ) -> None:
        if resplit_gain <= 0.0:
            raise TreeError(f"resplit_gain must be positive, got {resplit_gain!r}")
        if resplit_min_weight <= 0.0:
            raise TreeError(
                f"resplit_min_weight must be positive, got {resplit_min_weight!r}"
            )
        self.tree = tree
        self.builder = builder if builder is not None else TreeBuilder()
        self.resplit_gain = float(resplit_gain)
        self.resplit_min_weight = float(resplit_min_weight)
        self._label_index = {label: i for i, label in enumerate(tree.class_labels)}
        self._states: dict[int, _LeafState] = {}
        self._touched: set[int] = set()

    # -- public API ------------------------------------------------------------

    def update(
        self, data: UncertainDataset | Sequence[UncertainTuple] | Iterable[UncertainTuple]
    ) -> UpdateReport:
        """Route a batch of labelled tuples into the tree, re-splitting as needed.

        Every tuple must carry a label drawn from the tree's
        ``class_labels`` and the tree's feature schema.  Leaf distributions
        are updated in place; leaves whose accumulated buffer crosses the
        re-split trigger are replaced by freshly built subtrees before the
        call returns.
        """
        if isinstance(data, UncertainDataset):
            if data.n_attributes != len(self.tree.attributes):
                raise TreeError(
                    f"dataset has {data.n_attributes} attributes, "
                    f"tree expects {len(self.tree.attributes)}"
                )
            items: Sequence[UncertainTuple] = data.tuples
        else:
            items = list(data)
        report = UpdateReport(n_tuples=len(items))
        self._touched.clear()
        for item in items:
            if item.label is None:
                raise TreeError("partial_fit tuples must carry class labels")
            if item.label not in self._label_index:
                raise TreeError(
                    f"unknown class label {item.label!r}; streamed tuples must use "
                    "labels seen at fit time"
                )
            if len(item.features) != len(self.tree.attributes):
                raise TreeError(
                    f"tuple has {len(item.features)} features, "
                    f"tree expects {len(self.tree.attributes)}"
                )
            self._route(self.tree.root, item, None, None, 0, report)
        report.touched_leaves = len(self._touched)
        for leaf_id in sorted(self._touched):
            state = self._states.get(leaf_id)
            if state is not None and self._maybe_resplit(state):
                report.n_resplits += 1
        return report

    def subtree_builder(self, depth: int) -> TreeBuilder:
        """The builder a re-split at ``depth`` uses for its fresh subtree.

        Identical to the updater's builder except that ``max_depth`` (when
        set) is reduced by the leaf's depth, so the re-grown subtree respects
        the whole-tree depth budget.
        """
        remaining = self.builder.max_depth
        if remaining is not None:
            remaining = max(0, remaining - depth)
        return TreeBuilder(
            strategy=self.builder.strategy,
            measure=self.builder.measure,
            max_depth=remaining,
            min_split_weight=self.builder.min_split_weight,
            min_dispersion_gain=self.builder.min_dispersion_gain,
            post_prune=self.builder.post_prune,
            post_prune_confidence=self.builder.post_prune_confidence,
            n_jobs=1,
        )

    # -- routing ---------------------------------------------------------------

    def _route(
        self,
        node: TreeNode,
        item: UncertainTuple,
        parent: InternalNode | None,
        slot: Hashable,
        depth: int,
        report: UpdateReport,
    ) -> None:
        if isinstance(node, LeafNode):
            self._absorb(node, item, parent, slot, depth, report)
            return
        assert isinstance(node, InternalNode)
        value = item.features[node.attribute_index]
        if node.is_numerical_test:
            if not isinstance(value, Pdf):
                raise TreeError(
                    f"attribute {node.attribute_index} is tested numerically but the "
                    "tuple provides a categorical value"
                )
            split_point = node.split_point
            assert split_point is not None
            assert node.left is not None and node.right is not None
            # Training partition semantics (ColumnarPdfStore.split_numerical
            # with the builder's weight_eps): the fractional tuple's weight
            # is scaled by the branch probability and dust below _EPS is
            # dropped on both sides.
            p_left, left_pdf, right_pdf = value.split_at(split_point)
            if left_pdf is not None and p_left * item.weight > _EPS:
                self._route(
                    node.left,
                    item.with_feature(node.attribute_index, left_pdf, item.weight * p_left),
                    node, "left", depth + 1, report,
                )
            if right_pdf is not None and (1.0 - p_left) * item.weight > _EPS:
                self._route(
                    node.right,
                    item.with_feature(
                        node.attribute_index, right_pdf, item.weight * (1.0 - p_left)
                    ),
                    node, "right", depth + 1, report,
                )
            return
        if not isinstance(value, CategoricalDistribution):
            raise TreeError(
                f"attribute {node.attribute_index} is tested categorically but the "
                "tuple provides a numerical value"
            )
        for category, probability in value.items():
            weight = item.weight * probability
            if weight <= _EPS:
                continue
            child = node.branches.get(category)
            if child is None:
                # A category never seen when this node was built has no
                # branch to train; its mass is dropped (and reported), just
                # as a fresh build would have created a branch we cannot
                # retrofit without re-splitting the whole node.
                report.dropped_weight += weight
                continue
            self._route(
                child,
                item.with_feature(
                    node.attribute_index, CategoricalDistribution.certain(category), weight
                ),
                node, category, depth + 1, report,
            )

    def _absorb(
        self,
        leaf: LeafNode,
        item: UncertainTuple,
        parent: InternalNode | None,
        slot: Hashable,
        depth: int,
        report: UpdateReport,
    ) -> None:
        state = self._states.get(id(leaf))
        if state is None:
            state = _LeafState(leaf, parent, slot, depth)
            self._states[id(leaf)] = state
        state.buffer.append(item)
        state.buffer_weight += item.weight
        # Leaf class-mass statistics, updated in place.  The arithmetic
        # allocates fresh arrays and assigns them: a loaded model's leaf may
        # hold a read-only row view into the shared mmap matrix, which must
        # never be mutated.
        mass = leaf.distribution * max(0.0, leaf.training_weight)
        mass[self._label_index[item.label]] += item.weight
        total = float(mass.sum())
        leaf.distribution = mass / total
        leaf.training_weight = total
        report.routed_weight += item.weight
        self._touched.add(id(leaf))

    # -- local re-splits -------------------------------------------------------

    def _maybe_resplit(self, state: _LeafState) -> bool:
        if state.buffer_weight < self.resplit_min_weight:
            return False
        builder = self.subtree_builder(state.depth)
        local = UncertainDataset(
            self.tree.attributes, state.buffer, class_labels=self.tree.class_labels
        )
        if builder.root_split_gain(local) < self.resplit_gain:
            return False
        new_root = builder.build(local).tree.root
        self._swap(state, new_root)
        # The replaced leaf's state is retired; leaves of the new subtree
        # register lazily as future tuples reach them (their buffers start
        # empty — the buffered tuples are now the subtree's training set).
        del self._states[id(state.leaf)]
        return True

    def _swap(self, state: _LeafState, new_root: TreeNode) -> None:
        parent = state.parent
        if parent is None:
            self.tree.root = new_root
        elif parent.is_numerical_test:
            if state.slot == "left":
                parent.left = new_root
            else:
                parent.right = new_root
        else:
            parent.branches[state.slot] = new_root
