"""Decision-tree model and probabilistic classification of uncertain tuples.

A tree consists of internal nodes carrying a crisp test — ``A_j <= z`` for a
numerical attribute, or a multiway "which category?" test for a categorical
attribute — and leaf nodes carrying a probability distribution over the class
labels (Section 3.1).

Classifying an uncertain test tuple (Section 3.2, Fig. 1) propagates
probability mass down the tree: at a numerical node the tuple is split into
left/right fractional tuples weighted by the probability that its pdf falls
on each side of the split point, and at a leaf the arriving weight is
multiplied into the leaf's class distribution.  The per-class sums over all
leaves form the classification result; the predicted label is the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator, Sequence

import numpy as np

from repro.core.categorical import CategoricalDistribution
from repro.core.dataset import Attribute, UncertainDataset, UncertainTuple
from repro.core.pdf import Pdf
from repro.exceptions import TreeError

__all__ = ["TreeNode", "LeafNode", "InternalNode", "DecisionTree", "Rule"]


class TreeNode:
    """Base class of tree nodes."""

    __slots__ = ()

    @property
    def is_leaf(self) -> bool:
        raise NotImplementedError

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted at this node (inclusive)."""
        raise NotImplementedError

    def depth(self) -> int:
        """Height of the subtree rooted at this node (a leaf has depth 0)."""
        raise NotImplementedError


class LeafNode(TreeNode):
    """A leaf carrying a class-probability distribution.

    Parameters
    ----------
    distribution:
        Per-class probabilities aligned with the tree's ``class_labels``.
    training_weight:
        Total (fractional) weight of the training tuples that reached the
        leaf; used by post-pruning to compute error estimates.
    """

    __slots__ = ("distribution", "training_weight")

    def __init__(self, distribution: np.ndarray, training_weight: float = 0.0) -> None:
        dist = np.asarray(distribution, dtype=float)
        if dist.ndim != 1 or dist.size == 0:
            raise TreeError("a leaf distribution must be a non-empty 1-D array")
        if np.any(dist < -1e-12):
            raise TreeError("leaf probabilities must be non-negative")
        total = float(dist.sum())
        self.distribution = dist / total if total > 0 else np.full(dist.size, 1.0 / dist.size)
        self.training_weight = float(training_weight)

    @classmethod
    def restored(cls, distribution: np.ndarray, training_weight: float = 0.0) -> "LeafNode":
        """Leaf adopting an already-validated distribution verbatim.

        The persistence layer uses this for archive rows it has vectorised
        checks for (normalised, non-negative): the array — typically a
        read-only row view into the model's shared mmap/shared-memory
        matrix — is stored as-is, without the constructor's renormalising
        copy, so every leaf of a loaded model aliases the one matrix.
        """
        leaf = cls.__new__(cls)
        leaf.distribution = distribution
        leaf.training_weight = training_weight
        return leaf

    @property
    def is_leaf(self) -> bool:
        return True

    def subtree_size(self) -> int:
        return 1

    def depth(self) -> int:
        return 0

    def majority_index(self) -> int:
        """Index of the most probable class."""
        return int(np.argmax(self.distribution))


class InternalNode(TreeNode):
    """An internal node carrying a crisp test.

    For a numerical attribute the test is ``value <= split_point`` with two
    children, ``left`` and ``right``.  For a categorical attribute the node
    has one child per category seen during training (``branches``) and a
    ``fallback`` class distribution used for probability mass on categories
    with no branch.
    """

    __slots__ = (
        "attribute_index",
        "split_point",
        "left",
        "right",
        "branches",
        "fallback",
        "training_weight",
        "training_distribution",
    )

    def __init__(
        self,
        attribute_index: int,
        *,
        split_point: float | None = None,
        left: TreeNode | None = None,
        right: TreeNode | None = None,
        branches: dict[Hashable, TreeNode] | None = None,
        fallback: np.ndarray | None = None,
        training_weight: float = 0.0,
        training_distribution: np.ndarray | None = None,
    ) -> None:
        self.attribute_index = attribute_index
        self.split_point = split_point
        self.left = left
        self.right = right
        self.branches = branches or {}
        # Arrays end to end: coercing here lets every consumer (recursive
        # and columnar classification, persistence) rely on ndarray
        # semantics, while restored nodes pass row views of the shared
        # matrix through np.asarray unchanged (no copy).
        self.fallback = np.asarray(fallback, dtype=float) if fallback is not None else None
        self.training_weight = float(training_weight)
        self.training_distribution = training_distribution
        if self.is_numerical_test:
            if left is None or right is None:
                raise TreeError("a numerical internal node needs both children")
        elif not self.branches:
            raise TreeError("a categorical internal node needs at least one branch")

    @property
    def is_leaf(self) -> bool:
        return False

    @property
    def is_numerical_test(self) -> bool:
        return self.split_point is not None

    def children(self) -> Iterator[TreeNode]:
        """Iterate over all child nodes."""
        if self.is_numerical_test:
            assert self.left is not None and self.right is not None
            yield self.left
            yield self.right
        else:
            yield from self.branches.values()

    def subtree_size(self) -> int:
        return 1 + sum(child.subtree_size() for child in self.children())

    def depth(self) -> int:
        return 1 + max(child.depth() for child in self.children())


@dataclass(frozen=True)
class Rule:
    """A single classification rule extracted from a root-to-leaf path.

    ``conditions`` is a tuple of human-readable strings (one per internal
    node on the path); ``label`` is the majority class of the leaf and
    ``confidence`` its probability at the leaf.
    """

    conditions: tuple[str, ...]
    label: Hashable
    confidence: float

    def __str__(self) -> str:
        premise = " AND ".join(self.conditions) if self.conditions else "TRUE"
        return f"IF {premise} THEN class = {self.label!r} (confidence {self.confidence:.2f})"


class DecisionTree:
    """A trained decision tree over uncertain data.

    Instances are produced by :class:`~repro.core.builder.TreeBuilder` (or
    the high-level classifiers in :mod:`repro.core.udt` and
    :mod:`repro.core.averaging`); they can classify both uncertain and
    point-valued tuples.
    """

    def __init__(
        self,
        root: TreeNode,
        attributes: Sequence[Attribute],
        class_labels: Sequence[Hashable],
    ) -> None:
        if not class_labels:
            raise TreeError("a decision tree needs at least one class label")
        self.root = root
        self.attributes = tuple(attributes)
        self.class_labels = tuple(class_labels)

    # -- structure -----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Total number of nodes."""
        return self.root.subtree_size()

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return sum(1 for node in self.iter_nodes() if node.is_leaf)

    @property
    def depth(self) -> int:
        """Height of the tree (a single-leaf tree has depth 0)."""
        return self.root.depth()

    def iter_nodes(self) -> Iterator[TreeNode]:
        """Depth-first iteration over all nodes."""
        stack: list[TreeNode] = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, InternalNode):
                stack.extend(node.children())

    # -- classification --------------------------------------------------------

    def classify(self, item: UncertainTuple) -> np.ndarray:
        """Class-probability distribution for one (possibly uncertain) tuple.

        Implements the recursive ``phi_n(c, t, w)`` computation of
        Section 3.2: probability mass is propagated down both branches of a
        numerical test in proportion to the pdf mass on each side of the
        split point, and summed over the leaves.
        """
        if len(item.features) != len(self.attributes):
            raise TreeError(
                f"tuple has {len(item.features)} features, tree expects {len(self.attributes)}"
            )
        result = np.zeros(len(self.class_labels))
        self._accumulate(self.root, item, 1.0, result)
        total = result.sum()
        if total > 0:
            result /= total
        return result

    def _accumulate(
        self, node: TreeNode, item: UncertainTuple, weight: float, result: np.ndarray
    ) -> None:
        if weight <= 0.0:
            return
        if isinstance(node, LeafNode):
            result += weight * node.distribution
            return
        assert isinstance(node, InternalNode)
        value = item.features[node.attribute_index]
        if node.is_numerical_test:
            if not isinstance(value, Pdf):
                raise TreeError(
                    f"attribute {node.attribute_index} is tested numerically but the tuple "
                    "provides a categorical value"
                )
            split_point = node.split_point
            assert split_point is not None and node.left is not None and node.right is not None
            p_left, left_pdf, right_pdf = value.split_at(split_point)
            if left_pdf is not None and p_left > 0.0:
                left_item = item.with_feature(node.attribute_index, left_pdf, item.weight)
                self._accumulate(node.left, left_item, weight * p_left, result)
            if right_pdf is not None and p_left < 1.0:
                right_item = item.with_feature(node.attribute_index, right_pdf, item.weight)
                self._accumulate(node.right, right_item, weight * (1.0 - p_left), result)
            return
        # Categorical multiway test.
        if not isinstance(value, CategoricalDistribution):
            raise TreeError(
                f"attribute {node.attribute_index} is tested categorically but the tuple "
                "provides a numerical value"
            )
        unmatched = 0.0
        for category, probability in value.items():
            child = node.branches.get(category)
            if child is None:
                unmatched += probability
                continue
            child_item = item.with_feature(
                node.attribute_index, CategoricalDistribution.certain(category), item.weight
            )
            self._accumulate(child, child_item, weight * probability, result)
        if unmatched > 0.0:
            fallback = node.fallback
            if fallback is None:
                fallback = np.full(len(self.class_labels), 1.0 / len(self.class_labels))
            result += weight * unmatched * fallback

    def predict(self, item: UncertainTuple) -> Hashable:
        """Single most probable class label for one tuple."""
        distribution = self.classify(item)
        return self.class_labels[int(np.argmax(distribution))]

    def classify_batch(self, dataset: UncertainDataset) -> np.ndarray:
        """Class-probability matrix for a whole dataset, computed columnar.

        Equivalent to stacking :meth:`classify` over every tuple, but all
        tuples descend the tree together: each internal node splits the
        entire surviving population with one vectorised operation on the
        dataset's :class:`~repro.core.columnar.ColumnarPdfStore`, instead of
        allocating truncated pdf objects tuple by tuple.
        """
        from repro.core.columnar import ColumnarPdfStore

        n_classes = len(self.class_labels)
        if not len(dataset):
            return np.zeros((0, n_classes))
        if len(dataset.attributes) != len(self.attributes):
            raise TreeError(
                f"dataset has {len(dataset.attributes)} attributes, "
                f"tree expects {len(self.attributes)}"
            )
        store = ColumnarPdfStore.from_dataset(dataset)
        result = np.zeros((len(dataset), n_classes))
        uniform = np.full(n_classes, 1.0 / n_classes)
        # Each stack entry is a (tree node, population view) pair; tuple
        # weights in the view are the probability mass that reached the node.
        stack: list[tuple[TreeNode, object]] = [(self.root, store.root_view(unit_weights=True))]
        while stack:
            node, view = stack.pop()
            if view is None or view.n_tuples == 0:
                continue
            if isinstance(node, LeafNode):
                result[view.tuple_ids] += view.weights[:, None] * node.distribution
                continue
            assert isinstance(node, InternalNode)
            if node.is_numerical_test:
                if node.attribute_index not in store.numerical_indices:
                    raise TreeError(
                        f"attribute {node.attribute_index} is tested numerically but the "
                        "dataset provides a categorical value"
                    )
                assert node.split_point is not None
                assert node.left is not None and node.right is not None
                left_view, right_view = store.split_numerical(
                    view, node.attribute_index, node.split_point
                )
                stack.append((node.left, left_view))
                stack.append((node.right, right_view))
                continue
            # Categorical multiway test: route each tuple's probability mass
            # to the branches matching the dataset's categories by value, and
            # unmatched mass to the fallback.
            if node.attribute_index not in store.categorical_indices:
                raise TreeError(
                    f"attribute {node.attribute_index} is tested categorically but the "
                    "dataset provides a numerical value"
                )
            categories, probabilities = store.category_probabilities(view, node.attribute_index)
            unmatched = np.zeros(view.n_tuples)
            for column, category in enumerate(categories):
                branch = node.branches.get(category)
                if branch is None:
                    unmatched += probabilities[:, column]
                else:
                    stack.append((branch, view.share(view.weights * probabilities[:, column])))
            reached = unmatched > 0.0
            if reached.any():
                fallback = node.fallback if node.fallback is not None else uniform
                result[view.tuple_ids[reached]] += (
                    (view.weights[reached] * unmatched[reached])[:, None] * fallback[None, :]
                )
        totals = result.sum(axis=1)
        positive = totals > 0
        result[positive] /= totals[positive, None]
        return result

    # -- streaming updates -----------------------------------------------------

    def partial_fit(
        self,
        dataset: UncertainDataset,
        *,
        builder=None,
        resplit_gain: float = 0.01,
        resplit_min_weight: float = 8.0,
    ):
        """Ingest a batch of labelled uncertain tuples into the trained tree.

        Tuples are routed down the tree with *training* partition semantics
        (fractional tuples, truncated pdfs); each leaf they reach adds the
        arriving mass to its class distribution in place and buffers the
        fractional tuple.  A leaf whose buffer crosses the re-split trigger
        (``resplit_min_weight`` accumulated weight and at least
        ``resplit_gain`` dispersion gain from its best split) is replaced by
        a subtree built fresh from the buffered tuples — bit-identical to
        building that subtree from scratch.  ``builder`` configures the
        re-splits; pass the tree's original builder (the first call's
        builder is retained by the cached updater, later calls may adjust
        only the two threshold knobs).  Returns an
        :class:`~repro.stream.updates.UpdateReport`.
        """
        from repro.stream.updates import TreeUpdater

        updater = getattr(self, "_stream_updater", None)
        if updater is None:
            updater = TreeUpdater(
                self,
                builder=builder,
                resplit_gain=resplit_gain,
                resplit_min_weight=resplit_min_weight,
            )
            self._stream_updater = updater
        else:
            updater.resplit_gain = float(resplit_gain)
            updater.resplit_min_weight = float(resplit_min_weight)
        return updater.update(dataset)

    def structure_signature(self) -> tuple:
        """Hashable encoding of the tree's structure and split decisions.

        Two trees have equal signatures iff they test the same attributes at
        the same split points with the same topology and carry the same leaf
        distributions — the comparison used to assert that different
        pruning strategies build identical trees.
        """

        def encode(node: TreeNode) -> tuple:
            if isinstance(node, LeafNode):
                return ("leaf", tuple(np.asarray(node.distribution).tolist()))
            assert isinstance(node, InternalNode)
            if node.is_numerical_test:
                assert node.left is not None and node.right is not None
                return (
                    "num",
                    node.attribute_index,
                    node.split_point,
                    encode(node.left),
                    encode(node.right),
                )
            return (
                "cat",
                node.attribute_index,
                tuple(
                    (repr(value), encode(child))
                    for value, child in sorted(node.branches.items(), key=lambda kv: repr(kv[0]))
                ),
            )

        return encode(self.root)

    def predict_dataset(self, dataset: UncertainDataset) -> list[Hashable]:
        """Predicted labels for every tuple of a dataset."""
        if not len(dataset):
            return []
        distributions = self.classify_batch(dataset)
        return [self.class_labels[index] for index in np.argmax(distributions, axis=1)]

    def classify_dataset(self, dataset: UncertainDataset) -> np.ndarray:
        """Class-probability matrix ``(n_tuples, n_classes)`` for a dataset."""
        if not len(dataset):
            return np.zeros((0, len(self.class_labels)))
        return self.classify_batch(dataset)

    def accuracy(self, dataset: UncertainDataset) -> float:
        """Fraction of tuples whose predicted label matches the true label."""
        if not len(dataset):
            raise TreeError("cannot compute accuracy on an empty dataset")
        predictions = self.predict_dataset(dataset)
        correct = sum(1 for item, label in zip(dataset, predictions) if item.label == label)
        return correct / len(dataset)

    # -- persistence -------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able encoding of the tree (see :mod:`repro.api.persistence`)."""
        from repro.api.persistence import tree_to_dict

        return tree_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTree":
        """Rebuild a tree from :meth:`to_dict` output."""
        from repro.api.persistence import tree_from_dict

        return tree_from_dict(data)

    def save(self, path, *, format_version: int | None = None) -> None:
        """Write the tree as a versioned archive (``model.json`` + arrays).

        ``format_version`` selects the on-disk layout; the default (current
        version) stores the distribution matrix as a page-aligned,
        mmap-able block — see :mod:`repro.api.persistence`.
        """
        from repro.api.persistence import save_tree

        save_tree(self, path, format_version=format_version)

    @classmethod
    def load(cls, path) -> "DecisionTree":
        """Load a tree saved with :meth:`save`."""
        from repro.api.persistence import load_tree

        return load_tree(path)

    # -- inspection --------------------------------------------------------------

    def to_text(self) -> str:
        """Human-readable indented rendering of the tree."""
        lines: list[str] = []
        self._render(self.root, "", lines)
        return "\n".join(lines)

    def _render(self, node: TreeNode, indent: str, lines: list[str]) -> None:
        if isinstance(node, LeafNode):
            parts = ", ".join(
                f"{label!r}: {probability:.3f}"
                for label, probability in zip(self.class_labels, node.distribution)
            )
            lines.append(f"{indent}Leaf({parts})")
            return
        assert isinstance(node, InternalNode)
        name = self.attributes[node.attribute_index].name
        if node.is_numerical_test:
            lines.append(f"{indent}{name} <= {node.split_point:g}:")
            assert node.left is not None and node.right is not None
            self._render(node.left, indent + "  ", lines)
            lines.append(f"{indent}{name} > {node.split_point:g}:")
            self._render(node.right, indent + "  ", lines)
        else:
            for category, child in node.branches.items():
                lines.append(f"{indent}{name} == {category!r}:")
                self._render(child, indent + "  ", lines)

    def extract_rules(self) -> list[Rule]:
        """One rule per leaf, following the root-to-leaf path conditions."""
        rules: list[Rule] = []
        self._collect_rules(self.root, [], rules)
        return rules

    def _collect_rules(
        self, node: TreeNode, conditions: list[str], rules: list[Rule]
    ) -> None:
        if isinstance(node, LeafNode):
            index = node.majority_index()
            rules.append(
                Rule(
                    conditions=tuple(conditions),
                    label=self.class_labels[index],
                    confidence=float(node.distribution[index]),
                )
            )
            return
        assert isinstance(node, InternalNode)
        name = self.attributes[node.attribute_index].name
        if node.is_numerical_test:
            assert node.left is not None and node.right is not None
            self._collect_rules(node.left, conditions + [f"{name} <= {node.split_point:g}"], rules)
            self._collect_rules(node.right, conditions + [f"{name} > {node.split_point:g}"], rules)
        else:
            for category, child in node.branches.items():
                self._collect_rules(child, conditions + [f"{name} == {category!r}"], rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecisionTree(n_nodes={self.n_nodes}, n_leaves={self.n_leaves}, depth={self.depth})"
        )
