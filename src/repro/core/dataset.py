"""Data model for uncertain training and test data.

A dataset (Section 3 of the paper) consists of *d* tuples over *k* feature
attributes plus a class label.  Under the uncertainty model each numerical
attribute value is a pdf over a bounded interval, and each categorical
attribute value is a discrete distribution over the attribute's domain
(Section 7.2).  During tree construction tuples acquire fractional *weights*
when their pdf straddles a split point, so every tuple carries a weight in
``(0, 1]`` (training tuples start at weight 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Sequence, Union

import numpy as np

from repro.core.categorical import CategoricalDistribution
from repro.core.pdf import Pdf, SampledPdf
from repro.exceptions import DatasetError

__all__ = [
    "AttributeKind",
    "Attribute",
    "UncertainTuple",
    "UncertainDataset",
]


class AttributeKind(enum.Enum):
    """The two attribute types supported by the tree builder."""

    NUMERICAL = "numerical"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class Attribute:
    """Schema entry describing a single feature attribute.

    Parameters
    ----------
    name:
        Human-readable attribute name (used in tree rendering and rules).
    kind:
        Whether the attribute is numerical (split by a threshold test) or
        categorical (split into one branch per domain value).
    domain:
        For categorical attributes, the finite set of possible values.
        Ignored for numerical attributes.
    """

    name: str
    kind: AttributeKind = AttributeKind.NUMERICAL
    domain: tuple[Hashable, ...] = field(default_factory=tuple)

    @classmethod
    def numerical(cls, name: str) -> "Attribute":
        """Convenience constructor for a numerical attribute."""
        return cls(name=name, kind=AttributeKind.NUMERICAL)

    @classmethod
    def categorical(cls, name: str, domain: Iterable[Hashable]) -> "Attribute":
        """Convenience constructor for a categorical attribute."""
        domain_tuple = tuple(domain)
        if not domain_tuple:
            raise DatasetError(f"categorical attribute {name!r} needs a non-empty domain")
        return cls(name=name, kind=AttributeKind.CATEGORICAL, domain=domain_tuple)

    @property
    def is_numerical(self) -> bool:
        return self.kind is AttributeKind.NUMERICAL

    @property
    def is_categorical(self) -> bool:
        return self.kind is AttributeKind.CATEGORICAL


FeatureValue = Union[Pdf, CategoricalDistribution]


class UncertainTuple:
    """A single (possibly fractional) training or test tuple.

    Parameters
    ----------
    features:
        One feature value per attribute: a :class:`~repro.core.pdf.Pdf` for
        numerical attributes, a
        :class:`~repro.core.categorical.CategoricalDistribution` for
        categorical ones.
    label:
        Class label.  ``None`` for unlabelled test tuples.
    weight:
        Fractional weight in ``(0, 1]``.  Whole tuples carry weight 1; tuples
        produced by splitting at a node carry the parent weight multiplied by
        the probability of following that branch.
    """

    __slots__ = ("features", "label", "weight")

    def __init__(
        self,
        features: Sequence[FeatureValue],
        label: Hashable | None = None,
        weight: float = 1.0,
    ) -> None:
        if weight <= 0.0 or weight > 1.0 + 1e-12:
            raise DatasetError(f"tuple weight must be in (0, 1], got {weight!r}")
        self.features = tuple(features)
        self.label = label
        self.weight = float(weight)

    def feature(self, index: int) -> FeatureValue:
        """Feature value at attribute position ``index``."""
        return self.features[index]

    def pdf(self, index: int) -> Pdf:
        """Numerical pdf at attribute position ``index``.

        Raises :class:`DatasetError` if the attribute value is categorical.
        """
        value = self.features[index]
        if not isinstance(value, Pdf):
            raise DatasetError(f"attribute {index} of tuple is not numerical")
        return value

    def categorical(self, index: int) -> CategoricalDistribution:
        """Categorical distribution at attribute position ``index``."""
        value = self.features[index]
        if not isinstance(value, CategoricalDistribution):
            raise DatasetError(f"attribute {index} of tuple is not categorical")
        return value

    def with_feature(self, index: int, value: FeatureValue, weight: float) -> "UncertainTuple":
        """Copy of this tuple with one feature replaced and a new weight.

        This is how fractional tuples are created: the pdf of the split
        attribute is replaced by its truncated, renormalised version and the
        weight is scaled by the branch probability.
        """
        new_features = list(self.features)
        new_features[index] = value
        return UncertainTuple(new_features, label=self.label, weight=weight)

    def reweighted(self, weight: float) -> "UncertainTuple":
        """Copy of this tuple with a different weight."""
        return UncertainTuple(self.features, label=self.label, weight=weight)

    def mean_vector(self) -> tuple[float | Hashable, ...]:
        """Point representation used by the Averaging approach.

        Numerical pdfs collapse to their means, categorical distributions to
        their most likely category.
        """
        values: list[float | Hashable] = []
        for value in self.features:
            if isinstance(value, Pdf):
                values.append(value.mean())
            else:
                values.append(value.most_likely())
        return tuple(values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UncertainTuple(label={self.label!r}, weight={self.weight:.3f}, "
            f"n_features={len(self.features)})"
        )


def _sorted_labels(labels: Iterable[Hashable | None]) -> list[Hashable]:
    """The distinct non-``None`` labels, in the default class-label order."""
    return sorted({label for label in labels if label is not None}, key=repr)


class UncertainDataset:
    """A collection of uncertain tuples sharing an attribute schema.

    Parameters
    ----------
    attributes:
        The attribute schema.  Every tuple must have exactly one feature
        value per attribute, of the matching kind.
    tuples:
        The (possibly fractional) tuples.
    class_labels:
        Optional explicit ordering of class labels.  When omitted, the
        distinct labels found in the tuples are used in sorted order.

    A dataset made by :meth:`from_pdf_rows` holds its attributes in a
    columnar store instead, and builds its tuples only when :attr:`tuples`
    is read; :meth:`subset` and :meth:`select_attributes` of such a dataset
    derive datasets over the store as well.
    """

    __slots__ = (
        "attributes", "_tuples", "_labels", "class_labels", "_label_index", "_columnar_store"
    )

    def __init__(
        self,
        attributes: Sequence[Attribute],
        tuples: Sequence[UncertainTuple],
        class_labels: Sequence[Hashable] | None = None,
    ) -> None:
        self.attributes = tuple(attributes)
        if not self.attributes:
            raise DatasetError("a dataset needs at least one attribute")
        self._tuples = list(tuples)
        self._labels = None
        for position, item in enumerate(self._tuples):
            self._validate_tuple(item, position)
        if class_labels is None:
            class_labels = _sorted_labels(t.label for t in self._tuples)
        self.class_labels = tuple(class_labels)
        self._label_index = {label: i for i, label in enumerate(self.class_labels)}
        # Lazily-built columnar flattening of this dataset, shared by tree
        # construction and batch classification (see repro.core.columnar).
        self._columnar_store = None

    @classmethod
    def from_pdf_rows(
        cls,
        attributes: Sequence[Attribute],
        columns: Sequence,
        labels: Sequence[Hashable | None],
        class_labels: Sequence[Hashable] | None = None,
    ) -> "UncertainDataset":
        """Dataset of whole tuples, from one column of distributions per attribute.

        ``columns[a]`` holds attribute ``a``'s value for every tuple: the
        :class:`~repro.core.pdf.PdfRows` of a numerical attribute, or a
        column of the :class:`~repro.core.columnar.ColumnarPdfStore` built
        cell by cell.  ``labels`` holds one label per tuple.  The columns go
        straight into the dataset's store, which training and batch
        classification read; the per-tuple objects are built from it (pdfs
        as read-only views of its arrays, or the cells a column kept) only
        when :attr:`tuples` is read.
        """
        from repro.core.columnar import ColumnarPdfStore

        labels = list(labels)
        if class_labels is None:
            class_labels = _sorted_labels(labels)
        label_index = {label: i for i, label in enumerate(class_labels)}
        class_of = np.array([label_index.get(label, -1) for label in labels], dtype=np.int64)
        store = ColumnarPdfStore.from_columns(columns, class_of, len(class_labels))
        return cls._over_store(attributes, store, labels, class_labels)

    @classmethod
    def _over_store(cls, attributes, store, labels: list, class_labels) -> "UncertainDataset":
        dataset = cls.__new__(cls)
        dataset.attributes = tuple(attributes)
        dataset._tuples = None
        dataset._labels = labels
        dataset.class_labels = tuple(class_labels)
        dataset._label_index = {label: i for i, label in enumerate(dataset.class_labels)}
        dataset._columnar_store = store
        return dataset

    @property
    def tuples(self) -> list[UncertainTuple]:
        """The dataset's tuples (built on first read for a columnar dataset)."""
        if self._tuples is None:
            columns = [
                column.cells if column.cells is not None else column.pdf_views()
                for column in self._columnar_store.columns
            ]
            self._tuples = [
                UncertainTuple(features, label=label)
                for features, label in zip(zip(*columns), self._labels)
            ]
        return self._tuples

    @property
    def labels(self) -> list[Hashable | None]:
        """Every tuple's label, read without building tuples when possible."""
        if self._labels is not None:
            return list(self._labels)
        return [item.label for item in self._tuples]

    def _validate_tuple(self, item: UncertainTuple, position: int) -> None:
        if len(item.features) != len(self.attributes):
            raise DatasetError(
                f"tuple {position} has {len(item.features)} features, "
                f"expected {len(self.attributes)}"
            )
        for attr_index, (attribute, value) in enumerate(zip(self.attributes, item.features)):
            if attribute.is_numerical and not isinstance(value, Pdf):
                raise DatasetError(
                    f"tuple {position}, attribute {attribute.name!r} (index {attr_index}): "
                    "expected a Pdf for a numerical attribute"
                )
            if attribute.is_categorical and not isinstance(value, CategoricalDistribution):
                raise DatasetError(
                    f"tuple {position}, attribute {attribute.name!r} (index {attr_index}): "
                    "expected a CategoricalDistribution for a categorical attribute"
                )

    # -- pickling -----------------------------------------------------------

    def __getstate__(self) -> tuple[None, dict]:
        # Ship the tuples (a columnar dataset builds them here) and drop the
        # store: it is derived from them, and shipping it to worker
        # processes would more than double the payload.
        slots = {
            "attributes": self.attributes,
            "_tuples": self.tuples,
            "_labels": None,
            "class_labels": self.class_labels,
            "_label_index": self._label_index,
            "_columnar_store": None,
        }
        return (None, slots)

    def __setstate__(self, state: tuple[None, dict]) -> None:
        _, slots = state
        for name, value in slots.items():
            setattr(self, name, value)

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._tuples if self._tuples is not None else self._labels)

    def __iter__(self) -> Iterator[UncertainTuple]:
        return iter(self.tuples)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)

    def label_index(self, label: Hashable) -> int:
        """Index of ``label`` within :attr:`class_labels`."""
        try:
            return self._label_index[label]
        except KeyError as exc:
            raise DatasetError(f"unknown class label {label!r}") from exc

    def total_weight(self) -> float:
        """Sum of tuple weights (the fractional number of tuples)."""
        return float(sum(t.weight for t in self.tuples))

    def class_weights(self) -> np.ndarray:
        """Weighted class counts, aligned with :attr:`class_labels`."""
        counts = np.zeros(len(self.class_labels))
        for item in self.tuples:
            if item.label is None:
                continue
            counts[self.label_index(item.label)] += item.weight
        return counts

    def class_distribution(self) -> np.ndarray:
        """Normalised class distribution (uniform when the set is empty)."""
        counts = self.class_weights()
        total = counts.sum()
        if total <= 0:
            return np.full(len(self.class_labels), 1.0 / max(len(self.class_labels), 1))
        return counts / total

    def majority_label(self) -> Hashable:
        """Class label with the largest weighted count."""
        if not self.class_labels:
            raise DatasetError("dataset has no class labels")
        counts = self.class_weights()
        return self.class_labels[int(np.argmax(counts))]

    def is_homogeneous(self) -> bool:
        """Whether all (weighted) tuples share a single class label."""
        counts = self.class_weights()
        return int(np.count_nonzero(counts > 0)) <= 1

    # -- derived datasets ----------------------------------------------------

    def replace_tuples(self, tuples: Sequence[UncertainTuple]) -> "UncertainDataset":
        """New dataset with the same schema but different tuples."""
        return UncertainDataset(self.attributes, tuples, class_labels=self.class_labels)

    def subset(self, indices: Iterable[int]) -> "UncertainDataset":
        """New dataset containing the tuples at ``indices``."""
        if self._labels is not None:
            # Positions through arange: negative indices count from the end.
            rows = np.arange(len(self))[np.fromiter(indices, dtype=np.int64)]
            return self._over_store(
                self.attributes, self._columnar_store.take(rows),
                [self._labels[i] for i in rows], self.class_labels,
            )
        chosen = [self.tuples[i] for i in indices]
        return self.replace_tuples(chosen)

    def select_attributes(self, indices: Sequence[int]) -> "UncertainDataset":
        """New dataset keeping only the attribute columns at ``indices``.

        Labels, weights and ``class_labels`` are preserved; feature values
        (or a columnar dataset's columns) are shared, not copied, so
        projecting is cheap.  This is how a feature-subsampled forest member
        sees its column subset, both at training time and when classifying
        a full-width dataset.
        """
        index_list = [int(i) for i in indices]
        if not index_list:
            raise DatasetError("select_attributes needs at least one attribute index")
        for index in index_list:
            if not 0 <= index < len(self.attributes):
                raise DatasetError(
                    f"attribute index {index} out of range for "
                    f"{len(self.attributes)} attributes"
                )
        attributes = [self.attributes[i] for i in index_list]
        if self._labels is not None:
            return self._over_store(
                attributes, self._columnar_store.select(index_list), self._labels,
                self.class_labels,
            )
        tuples = [
            UncertainTuple(
                [item.features[i] for i in index_list],
                label=item.label,
                weight=item.weight,
            )
            for item in self.tuples
        ]
        return UncertainDataset(attributes, tuples, class_labels=self.class_labels)

    def to_point_dataset(self) -> "UncertainDataset":
        """Dataset with every pdf collapsed to a point mass at its mean.

        This is the transformation performed by the Averaging approach
        (Section 4.1); categorical distributions collapse to their most
        likely value.
        """
        converted: list[UncertainTuple] = []
        for item in self.tuples:
            features: list[FeatureValue] = []
            for attribute, value in zip(self.attributes, item.features):
                if attribute.is_numerical:
                    assert isinstance(value, Pdf)
                    features.append(SampledPdf.point(value.mean()))
                else:
                    assert isinstance(value, CategoricalDistribution)
                    features.append(CategoricalDistribution.certain(value.most_likely()))
            converted.append(UncertainTuple(features, label=item.label, weight=item.weight))
        return self.replace_tuples(converted)

    def attribute_range(self, index: int) -> tuple[float, float]:
        """Overall ``[min, max]`` support of a numerical attribute."""
        attribute = self.attributes[index]
        if not attribute.is_numerical:
            raise DatasetError(f"attribute {attribute.name!r} is not numerical")
        lows: list[float] = []
        highs: list[float] = []
        for item in self.tuples:
            pdf = item.pdf(index)
            lows.append(pdf.low)
            highs.append(pdf.high)
        if not lows:
            raise DatasetError("cannot compute the range of an empty dataset")
        return min(lows), max(highs)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_points(
        cls,
        values: np.ndarray | Sequence[Sequence[float]],
        labels: Sequence[Hashable],
        attribute_names: Sequence[str] | None = None,
        class_labels: Sequence[Hashable] | None = None,
    ) -> "UncertainDataset":
        """Build a dataset of certain (point-valued) numerical tuples.

        ``values`` is an ``(n_tuples, n_attributes)`` array of point values.
        This is the entry point for classical point data; uncertainty can be
        injected afterwards with :mod:`repro.data.uncertainty`.
        """
        array = np.asarray(values, dtype=float)
        if array.ndim != 2:
            raise DatasetError("values must be a 2-D array (tuples x attributes)")
        n_tuples, n_attributes = array.shape
        if len(labels) != n_tuples:
            raise DatasetError(
                f"number of labels ({len(labels)}) does not match number of tuples ({n_tuples})"
            )
        if attribute_names is None:
            attribute_names = [f"A{j + 1}" for j in range(n_attributes)]
        if len(attribute_names) != n_attributes:
            raise DatasetError("attribute_names length does not match the number of columns")
        attributes = [Attribute.numerical(name) for name in attribute_names]
        tuples = [
            UncertainTuple([SampledPdf.point(array[i, j]) for j in range(n_attributes)], labels[i])
            for i in range(n_tuples)
        ]
        return cls(attributes, tuples, class_labels=class_labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UncertainDataset(n_tuples={len(self)}, "
            f"n_attributes={self.n_attributes}, n_classes={self.n_classes})"
        )
