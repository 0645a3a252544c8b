"""Columnar (structure-of-arrays) storage of uncertain attributes.

The per-tuple object model (:class:`~repro.core.dataset.UncertainTuple`
holding one pdf or categorical distribution per attribute) is convenient
for construction and inspection, but walking it tuple by tuple would
dominate the cost of tree building.  Fit, predict and the streaming
re-split search therefore read this store instead.

:class:`ColumnarPdfStore` keeps one column per attribute.  A numerical
column holds *all* tuples' pdf sample points and probability masses in
flat, contiguous NumPy arrays (``values``, ``masses``, per-tuple
``offsets``); a categorical column (Section 7.2) a tuples x categories
probability matrix.  The key observation that makes this work for the
paper's fractional-tuple machinery is that splitting a tuple at ``z``
truncates its pdf and renormalises the masses while scaling the tuple
weight by the same factor — so the *effective* weighted mass of a sample
point never changes.  A (fractional) tuple at any tree node is then fully
described by a per-attribute index range ``[start, stop)`` into the flat
arrays plus a scalar weight: node partitions are zero-copy slices, and
end-point collection, interval-table input and fractional splitting all
become vectorised ``searchsorted`` / ``cumsum`` operations.  A categorical
split only rescales the weights, so its children keep their ranges.

:class:`ColumnarNodeView` is that description for a set of tuples (one tree
node's population).  The store offers the operations tree construction and
batch classification need:

* :meth:`ColumnarPdfStore.build_contexts` — split contexts for *all*
  numerical attributes of a node in one fused pass (the training path;
  :meth:`~ColumnarPdfStore.build_context` builds one, for attribute-level
  thread parallelism),
* :meth:`ColumnarPdfStore.category_counts` — per-category class counts,
* :meth:`ColumnarPdfStore.split_numerical` /
  :meth:`~ColumnarPdfStore.split_categorical` — fractional partitioning of
  all of a node's tuples in one shot, at a cost in proportion to the node's
  live samples rather than the column's,
* :meth:`ColumnarPdfStore.class_weights` — weighted class counts.

The arrays stored are exact copies of the per-tuple distributions, so the
store reproduces the splits and statistics of a per-tuple recursion over the
object model (kept in ``tests/property/reference_builder.py`` as the
equivalence oracle).  (The sole caveat: that recursion renormalises pdf
masses at every truncation level while the store rescales once per node, so
dispersion values, and the weights of tuples cut twice on one attribute,
can differ in the last bits; every strategy still chooses identical splits,
and only UDT-ES — whose *work counts* depend on threshold near-ties — may
report marginally different entropy-calculation counts.)
"""

from __future__ import annotations

from typing import Hashable, NamedTuple, Sequence

import numpy as np

from repro.core.categorical import CategoricalDistribution
from repro.core.dataset import UncertainDataset
from repro.core.pdf import Pdf, PdfRows, SampledPdf
from repro.core.splits import AttributeSplitContext
from repro.exceptions import SplitError

__all__ = ["ColumnarPdfStore", "ColumnarNodeView"]

#: Pdf kinds for which end points are the only split candidates (Theorem 3).
_UNIFORM_KINDS = ("uniform", "point")


def _gather_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Flat indices covering every ``[starts[i], stops[i])`` range, in order.

    Vectorised equivalent of ``np.concatenate([np.arange(s, e) ...])``;
    zero-length ranges are permitted.
    """
    lengths = stops - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    begins = np.cumsum(lengths) - lengths
    return np.arange(total, dtype=np.int64) + np.repeat(starts - begins, lengths)


class _SortedColumn(NamedTuple):
    """A column's samples in global position order (ties in tuple order)."""

    order: np.ndarray
    values: np.ndarray
    masses: np.ndarray
    tuple_id: np.ndarray


class _AttributeColumn:
    """Flat sample storage of one numerical attribute.

    ``values[offsets[i]:offsets[i + 1]]`` are tuple ``i``'s sorted sample
    positions and ``masses`` the matching probability masses (normalised per
    tuple).  ``local_cum`` is each tuple's own cumulative-mass array (the
    pdf's :attr:`~repro.core.pdf.SampledPdf.cumulative`, whose last entry is
    exactly 1), concatenated — so mass and probability queries reproduce the
    per-tuple object path bit for bit.  ``cells`` are the pdf objects a
    column keeps when their identity matters (see :meth:`from_pdfs`), else
    ``None``.
    """

    __slots__ = (
        "values",
        "masses",
        "local_cum",
        "offsets",
        "is_uniform",
        "kinds",
        "cells",
        "_sorted",
    )

    def __init__(
        self,
        values: np.ndarray,
        masses: np.ndarray,
        local_cum: np.ndarray,
        offsets: np.ndarray,
        is_uniform: np.ndarray,
        kinds: list[str],
        cells: "list[Pdf] | None" = None,
    ) -> None:
        # Read-only: the pdf objects of pdf_views() share these arrays.
        for array in (values, masses, local_cum):
            array.flags.writeable = False
        self.values = values
        self.masses = masses
        self.local_cum = local_cum
        self.offsets = offsets
        self.is_uniform = is_uniform
        self.kinds = kinds
        self.cells = cells
        self._sorted: _SortedColumn | None = None

    @classmethod
    def from_pdfs(cls, pdfs: Sequence[Pdf], *, keep_cells: bool = False) -> "_AttributeColumn":
        """Concatenate one pdf per tuple.

        With ``keep_cells`` the column also keeps the pdf objects, so a
        dataset's on-demand tuples hand them back as they are (a caller's
        own :class:`~repro.core.pdf.Pdf` keeps its identity and class).
        """
        counts = np.array([pdf.xs.size for pdf in pdfs], dtype=np.int64)
        offsets = np.zeros(len(pdfs) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if pdfs:
            values = np.concatenate([pdf.xs for pdf in pdfs])
            masses = np.concatenate([pdf.masses for pdf in pdfs])
            local_cum = np.concatenate(
                [
                    pdf.cumulative if isinstance(pdf, SampledPdf) else np.cumsum(pdf.masses)
                    for pdf in pdfs
                ]
            )
        else:
            values = np.empty(0)
            masses = np.empty(0)
            local_cum = np.empty(0)
        kinds = [getattr(pdf, "kind", "custom") for pdf in pdfs]
        is_uniform = np.array([kind in _UNIFORM_KINDS for kind in kinds], dtype=bool)
        return cls(values, masses, local_cum, offsets, is_uniform, kinds,
                   list(pdfs) if keep_cells else None)

    @classmethod
    def from_rows(cls, rows: PdfRows) -> "_AttributeColumn":
        """Adopt equal-length pdf rows (one per tuple) without copying."""
        n, size = rows.xs.shape
        return cls(
            rows.xs.reshape(-1),
            rows.masses.reshape(-1),
            rows.cumulative.reshape(-1),
            np.arange(0, (n + 1) * size, size, dtype=np.int64),
            np.full(n, rows.kind in _UNIFORM_KINDS),
            [rows.kind] * n,
        )

    def sorted_view(self) -> _SortedColumn:
        """The column-global sorted view, built on first use.

        Training nodes obtain their samples in sorted order from it with a
        boolean gather instead of a fresh argsort; classification never
        needs it, so a predict-only store never sorts.  The stable sort
        breaks position ties by flat index, i.e. by tuple order — the same
        tie order a per-node stable sort of tuple-ordered samples would
        produce.
        """
        if self._sorted is None:
            order = np.argsort(self.values, kind="stable")
            counts = np.diff(self.offsets)
            tuple_id = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
            self._sorted = _SortedColumn(
                order, self.values[order], self.masses[order], tuple_id[order]
            )
        return self._sorted

    def pdf_views(self) -> list[SampledPdf]:
        """One :class:`SampledPdf` per tuple over read-only views of the arrays."""
        bounds = self.offsets.tolist()
        return [
            SampledPdf._adopt(self.values[start:stop], self.masses[start:stop],
                              self.local_cum[start:stop], kind)
            for start, stop, kind in zip(bounds[:-1], bounds[1:], self.kinds)
        ]

    def take(self, rows: np.ndarray) -> "_AttributeColumn":
        """The column of the tuples at ``rows`` (in that order), copied."""
        starts, stops = self.offsets[rows], self.offsets[rows + 1]
        offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(stops - starts, out=offsets[1:])
        flat = _gather_ranges(starts, stops)
        cells = None if self.cells is None else [self.cells[i] for i in rows]
        return _AttributeColumn(self.values[flat], self.masses[flat], self.local_cum[flat],
                                offsets, self.is_uniform[rows],
                                [self.kinds[i] for i in rows], cells)

    def mass_before(self, index: np.ndarray, segment_base: np.ndarray) -> np.ndarray:
        """Cumulative tuple mass strictly before each flat ``index``.

        ``segment_base`` is the owning tuple's segment start; an ``index``
        at the segment start has zero mass before it.
        """
        return np.where(
            index > segment_base, self.local_cum[np.maximum(index - 1, 0)], 0.0
        )


class _CategoricalColumn:
    """One categorical attribute: a tuples x categories probability matrix.

    ``categories`` are the attribute's domain followed by every category
    outside it, in first-seen order (such a category gets its own bucket
    and branch, like any other); ``probabilities[i, c]`` is tuple ``i``'s
    probability of ``categories[c]``.  ``cells`` are the distributions the
    column was built from: a dataset's on-demand tuples reuse them, so
    :meth:`~repro.core.categorical.CategoricalDistribution.most_likely`
    keeps breaking ties by each cell's own order.
    """

    __slots__ = ("categories", "probabilities", "cells")

    def __init__(self, categories: tuple, probabilities: np.ndarray, cells: list) -> None:
        probabilities.flags.writeable = False
        self.categories = categories
        self.probabilities = probabilities
        self.cells = cells

    @classmethod
    def from_cells(
        cls, domain: Sequence[Hashable], cells: Sequence[CategoricalDistribution]
    ) -> "_CategoricalColumn":
        """The column of one distribution per tuple over ``domain``."""
        index_of: dict[Hashable, int] = {}
        for category in domain:
            index_of.setdefault(category, len(index_of))
        rows, columns, values = [], [], []
        for row, cell in enumerate(cells):
            for category, probability in cell.items():
                rows.append(row)
                columns.append(index_of.setdefault(category, len(index_of)))
                values.append(probability)
        probabilities = np.zeros((len(cells), len(index_of)))
        probabilities[rows, columns] = values
        return cls(tuple(index_of), probabilities, list(cells))

    def take(self, rows: np.ndarray) -> "_CategoricalColumn":
        """The column of the tuples at ``rows`` (in that order)."""
        return _CategoricalColumn(
            self.categories, self.probabilities[rows], [self.cells[i] for i in rows]
        )


class _FusedColumns:
    """All of a store's numerical columns concatenated into one flat layout.

    ``build_contexts`` runs its per-node array passes once over these fused
    arrays instead of once per attribute, which removes the dominant
    per-node cost on datasets with many attributes (each numpy call then
    touches ``k`` attributes' samples at once).  Attribute ``a``'s samples
    occupy ``[base[a], base[a] + size_a)`` of every fused array.
    """

    __slots__ = (
        "base",
        "total_size",
        "values",
        "masses",
        "local_cum",
        "sorted_values",
        "sorted_masses",
        "sorted_tuple_id",
        "sorted_flat_full",
        "seg_base",
        "seg_end",
        "is_uniform",
    )

    def __init__(self, columns: "list[_AttributeColumn]") -> None:
        k = len(columns)
        sizes = np.array([column.values.size for column in columns], dtype=np.int64)
        base = np.zeros(k, dtype=np.int64)
        np.cumsum(sizes[:-1], out=base[1:])
        self.base = base
        self.total_size = int(sizes.sum())
        self.values = np.concatenate([column.values for column in columns])
        self.masses = np.concatenate([column.masses for column in columns])
        self.local_cum = np.concatenate([column.local_cum for column in columns])
        views = [column.sorted_view() for column in columns]
        self.sorted_values = np.concatenate([view.values for view in views])
        self.sorted_masses = np.concatenate([view.masses for view in views])
        self.sorted_tuple_id = np.concatenate([view.tuple_id for view in views])
        self.sorted_flat_full = np.concatenate(
            [view.order + b for view, b in zip(views, base)]
        )
        self.seg_base = np.vstack(
            [column.offsets[:-1] + b for column, b in zip(columns, base)]
        )
        self.seg_end = np.vstack(
            [column.offsets[1:] + b for column, b in zip(columns, base)]
        )
        self.is_uniform = np.vstack([column.is_uniform for column in columns])


class ColumnarNodeView:
    """One tree node's (fractional) tuple population, as index ranges.

    ``tuple_ids`` index into the originating dataset/store, in ascending
    order; ``weights`` are the current fractional tuple weights; ``starts``
    / ``stops`` have shape ``(n_numerical_attributes, n_tuples)`` and
    delimit each tuple's live sample range per attribute (rows follow the
    store's numerical-attribute order).  The flat sample arrays themselves
    are shared with the store — a view never copies or renormalises them.
    """

    __slots__ = ("tuple_ids", "weights", "starts", "stops", "_sorted")

    def __init__(
        self,
        tuple_ids: np.ndarray,
        weights: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
    ) -> None:
        self.tuple_ids = tuple_ids
        self.weights = weights
        self.starts = starts
        self.stops = stops
        #: Lazily filled by ColumnarPdfStore.build_contexts: the node's live
        #: samples in split-search order — ``(sorted_flat, live_counts,
        #: tuple_of_sample)``, where ``sorted_flat`` holds fused-array
        #: indices grouped by attribute and position-sorted within each
        #: attribute (ties in tuple order), ``live_counts`` the per-attribute
        #: sample counts and ``tuple_of_sample`` each sample's tuple id.
        #: split_numerical and split_categorical derive the children's state
        #: from it by pure filtering, so deep nodes never re-sort or re-scan
        #: full columns.
        self._sorted: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def n_tuples(self) -> int:
        return int(self.tuple_ids.size)

    def total_weight(self) -> float:
        return float(self.weights.sum())

    def _positions(self) -> np.ndarray:
        """Each live sample's tuple position in this view (see ``_sorted``).

        A dense lookup by tuple id: every sample's tuple is in the view, so
        this gives the integers a binary search of ``tuple_ids`` would.
        """
        lookup = np.empty(int(self.tuple_ids[-1]) + 1, dtype=np.int64)
        lookup[self.tuple_ids] = np.arange(self.tuple_ids.size)
        return lookup[self._sorted[2]]

    def _child_order(
        self,
        positions: np.ndarray,
        selected: np.ndarray,
        segment: slice | None = None,
        in_segment: np.ndarray | None = None,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The live-sample order of the child keeping the ``selected`` tuples.

        Pure filtering of this view's order (see ``_sorted``; ``positions``
        holds each live sample's tuple position in the ascending view): the
        child keeps its tuples' samples in parent order, restricted inside
        one attribute's ``segment`` to the samples flagged by ``in_segment``
        — the same arrays a fresh sort of the child would produce, without
        sorting.
        """
        sorted_flat, live_counts, tuple_of_sample = self._sorted
        keep = selected[positions]
        if segment is not None:
            keep[segment] &= in_segment
        segment_starts = np.cumsum(live_counts) - live_counts
        return sorted_flat[keep], np.add.reduceat(keep, segment_starts), tuple_of_sample[keep]

    def share(self, weights: np.ndarray, weight_eps: float = 0.0) -> "ColumnarNodeView | None":
        """The tuples whose new ``weights`` exceed ``weight_eps``, at those weights.

        Ranges are unchanged and a known live-sample order is carried over;
        ``None`` when no tuple is left.
        """
        selected = weights > weight_eps
        if not selected.any():
            return None
        child = ColumnarNodeView(
            self.tuple_ids[selected], weights[selected],
            self.starts[:, selected], self.stops[:, selected],
        )
        if self._sorted is not None:
            child._sorted = self._child_order(self._positions(), selected)
        return child


class ColumnarPdfStore:
    """Columnar storage of a dataset's attributes plus tuple metadata.

    ``columns`` holds one column per attribute: numerical attributes keep
    their pdfs as flat sample arrays, categorical ones a probability matrix.
    Build one with :meth:`from_dataset` (from a dataset's tuples) or
    :meth:`from_columns` (from whole columns, with no tuple objects); the
    store is immutable and shared by every node view derived from it.
    """

    __slots__ = (
        "n_tuples",
        "columns",
        "numerical_indices",
        "categorical_indices",
        "class_of",
        "base_weights",
        "n_classes",
        "_columns",
        "_row_of_attribute",
        "_fused",
        "_root_contexts",
    )

    def __init__(
        self,
        columns: "Sequence[_AttributeColumn | _CategoricalColumn]",
        class_of: np.ndarray,
        base_weights: np.ndarray,
        n_classes: int,
    ) -> None:
        self.n_tuples = int(class_of.size)
        self.columns = tuple(columns)
        self.numerical_indices = tuple(
            index for index, column in enumerate(self.columns)
            if isinstance(column, _AttributeColumn)
        )
        self.categorical_indices = tuple(
            index for index, column in enumerate(self.columns)
            if isinstance(column, _CategoricalColumn)
        )
        self._columns = [self.columns[index] for index in self.numerical_indices]
        self._row_of_attribute = {attr: row for row, attr in enumerate(self.numerical_indices)}
        self.class_of = class_of
        self.base_weights = base_weights
        self.n_classes = n_classes
        self._fused: _FusedColumns | None = None
        self._root_contexts: dict = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dataset(
        cls, dataset: UncertainDataset, *, require_labels: bool = False
    ) -> "ColumnarPdfStore":
        """Flatten every attribute of ``dataset`` into columns.

        With ``require_labels=True`` a tuple without a class label raises
        :class:`~repro.exceptions.SplitError` (training data must be
        labelled); otherwise unlabelled tuples carry class index ``-1``.

        The store is cached on the dataset, so training and batch
        classification of the same dataset flatten it only once.

        The source pdf arrays may be read-only views (e.g. rows of a
        memory-mapped v3 archive or of an attached shared-memory segment):
        the build concatenates them into arrays the store owns and never
        writes back through its inputs, so read-only data flows through
        training and batch descent unchanged.  The node distributions the
        descent *produces against* (leaf rows of the model's shared
        matrix) are likewise only ever read.
        """
        cached = getattr(dataset, "_columnar_store", None)
        if cached is not None:
            if require_labels and not cached.all_labelled():
                raise SplitError("training tuples must carry a class label")
            return cached
        store = cls._build_from_dataset(dataset, require_labels=require_labels)
        # Only cache fully-validated stores: a store built with
        # require_labels=False from partially-labelled data is still usable
        # for classification and caches fine (all_labelled() re-checks).
        dataset._columnar_store = store
        return store

    @classmethod
    def _build_from_dataset(
        cls, dataset: UncertainDataset, *, require_labels: bool
    ) -> "ColumnarPdfStore":
        n = len(dataset)
        label_index = {label: i for i, label in enumerate(dataset.class_labels)}
        class_of = np.empty(n, dtype=np.int64)
        base_weights = np.empty(n, dtype=float)
        for i, item in enumerate(dataset.tuples):
            if item.label is None:
                if require_labels:
                    raise SplitError("training tuples must carry a class label")
                class_of[i] = -1
            else:
                class_of[i] = label_index[item.label]
            base_weights[i] = item.weight
        columns = [
            _CategoricalColumn.from_cells(
                attribute.domain, [item.categorical(index) for item in dataset.tuples]
            )
            if attribute.is_categorical
            else _AttributeColumn.from_pdfs([item.pdf(index) for item in dataset.tuples])
            for index, attribute in enumerate(dataset.attributes)
        ]
        return cls(columns, class_of, base_weights, len(dataset.class_labels))

    @classmethod
    def from_columns(
        cls,
        columns: "Sequence[PdfRows | _AttributeColumn | _CategoricalColumn]",
        class_of: np.ndarray,
        n_classes: int,
    ) -> "ColumnarPdfStore":
        """A store of whole (weight 1) tuples, from one column per attribute.

        ``columns[a]`` is attribute ``a``'s column, or for a numerical
        attribute the :class:`~repro.core.pdf.PdfRows` of every tuple's pdf
        (adopted, not copied).  ``class_of`` holds each tuple's class index
        (``-1`` when unlabelled).
        """
        columns = [
            _AttributeColumn.from_rows(column) if isinstance(column, PdfRows) else column
            for column in columns
        ]
        return cls(columns, class_of, np.ones(class_of.size), n_classes)

    def take(self, rows: np.ndarray) -> "ColumnarPdfStore":
        """The store of the tuples at ``rows`` (in that order, repeats allowed)."""
        rows = np.asarray(rows, dtype=np.int64)
        return ColumnarPdfStore(
            [column.take(rows) for column in self.columns],
            self.class_of[rows], self.base_weights[rows], self.n_classes,
        )

    def select(self, attribute_indices: Sequence[int]) -> "ColumnarPdfStore":
        """The store of the given attributes only, sharing their columns.

        Shared numerical columns keep their sorted view, so a column sorts
        once however many projections train on it.
        """
        return ColumnarPdfStore(
            [self.columns[index] for index in attribute_indices],
            self.class_of, self.base_weights, self.n_classes,
        )

    # -- basic accessors -----------------------------------------------------

    @property
    def n_samples_total(self) -> int:
        """Total number of stored pdf sample points across all attributes."""
        return sum(column.values.size for column in self._columns)

    def row_of(self, attribute_index: int) -> int:
        """Row of ``attribute_index`` inside the per-attribute arrays."""
        try:
            return self._row_of_attribute[attribute_index]
        except KeyError as exc:
            raise SplitError(
                f"attribute {attribute_index} is not a numerical attribute of this store"
            ) from exc

    def root_view(self, *, unit_weights: bool = False) -> ColumnarNodeView:
        """View covering every tuple with its full sample ranges.

        ``unit_weights=True`` starts every tuple at weight 1 regardless of
        its stored fractional weight (the classification convention).
        """
        n = self.n_tuples
        k = len(self.numerical_indices)
        starts = np.empty((k, n), dtype=np.int64)
        stops = np.empty((k, n), dtype=np.int64)
        for row in range(k):
            offsets = self._columns[row].offsets
            starts[row] = offsets[:-1]
            stops[row] = offsets[1:]
        weights = np.ones(n) if unit_weights else self.base_weights.copy()
        return ColumnarNodeView(np.arange(n, dtype=np.int64), weights, starts, stops)

    def class_weights(self, view: ColumnarNodeView) -> np.ndarray:
        """Weighted class counts of a node population."""
        if view.n_tuples == 0:
            return np.zeros(self.n_classes)
        classes = self.class_of[view.tuple_ids]
        labelled = classes >= 0
        return np.bincount(
            classes[labelled], weights=view.weights[labelled], minlength=self.n_classes
        )

    def all_labelled(self) -> bool:
        """Whether every stored tuple carries a class label."""
        return bool(np.all(self.class_of >= 0))

    # -- categorical attributes ----------------------------------------------

    def category_probabilities(
        self, view: ColumnarNodeView, attribute_index: int
    ) -> "tuple[tuple, np.ndarray]":
        """``(categories, probabilities)`` of a categorical attribute at a node.

        ``probabilities[i, c]`` is the probability of ``categories[c]`` for
        the view's ``i``-th tuple.
        """
        column = self.columns[attribute_index]
        if not isinstance(column, _CategoricalColumn):
            raise SplitError(
                f"attribute {attribute_index} is not a categorical attribute of this store"
            )
        return column.categories, column.probabilities[view.tuple_ids]

    def category_counts(self, view: ColumnarNodeView, attribute_index: int) -> np.ndarray:
        """Weighted class counts per category, shape ``(n_categories, n_classes)``.

        Row ``c`` sums ``weight * probability of category c`` per class in
        the view's tuple order — the running sums a tuple-by-tuple
        accumulation produces, bit for bit (absent categories add zeros).
        """
        _, probabilities = self.category_probabilities(view, attribute_index)
        n_categories = probabilities.shape[1]
        classes = self.class_of[view.tuple_ids]
        keys = np.arange(n_categories)[:, None] * self.n_classes + classes[None, :]
        masses = probabilities.T * view.weights[None, :]
        return np.bincount(
            keys.ravel(), weights=masses.ravel(), minlength=n_categories * self.n_classes
        ).reshape(n_categories, self.n_classes)

    def split_categorical(
        self, view: ColumnarNodeView, attribute_index: int, *, weight_eps: float = 0.0
    ) -> "dict[Hashable, ColumnarNodeView]":
        """One child per category, in column order, for a multiway split.

        Each tuple goes down every branch with ``weight * probability`` of
        that category; a branch keeps the tuples whose share exceeds
        ``weight_eps`` and a category keeping none has no child.  The
        children carry the node's live-sample order (as
        :meth:`split_numerical`'s do), so their contexts need no sort.
        """
        categories, probabilities = self.category_probabilities(view, attribute_index)
        children = {}
        for column, category in enumerate(categories):
            child = view.share(view.weights * probabilities[:, column], weight_eps)
            if child is not None:
                children[category] = child
        return children

    # -- split-search support ------------------------------------------------

    def build_context(
        self,
        view: ColumnarNodeView,
        attribute_index: int,
        class_labels: Sequence[Hashable],
    ) -> AttributeSplitContext:
        """The :class:`AttributeSplitContext` of one attribute of a node.

        Produces the same sample positions, weighted masses, end points and
        candidate split points as :meth:`build_contexts`, so every split
        strategy sees identical inputs and reports identical
        :class:`~repro.core.stats.SplitSearchStats` counts.  The builder's
        attribute-thread path calls it, one attribute per worker.
        """
        row = self.row_of(attribute_index)
        column = self._columns[row]
        starts, stops = view.starts[row], view.stops[row]
        if view.n_tuples == 0:
            raise SplitError("cannot build a split context for an empty tuple set")

        segment_base = column.offsets[view.tuple_ids]
        segment_end = column.offsets[view.tuple_ids + 1]
        retained = column.local_cum[stops - 1] - column.mass_before(starts, segment_base)
        # Effective mass of a surviving sample = tuple weight x renormalised
        # mass = weight / retained x stored mass (truncation never touches
        # the stored arrays).  A tuple whose range is still complete keeps
        # retained mass exactly 1, so its weight is used directly — this
        # reproduces the object path bit for bit on untruncated pdfs.
        full_range = (starts == segment_base) & (stops == segment_end)
        scale = np.where(full_range, view.weights, view.weights / retained)

        # Mark the live sample ranges on the flat column, then read them off
        # in the column's presorted order — no per-node sort needed.  The
        # ranges are disjoint, so the starts (and stops) are distinct and
        # plain fancy in-place updates are safe.
        bounds = np.zeros(column.values.size + 1, dtype=np.int64)
        bounds[starts] += 1
        bounds[stops] -= 1
        ordered = column.sorted_view()
        live_sorted = np.cumsum(bounds[:-1])[ordered.order] > 0
        tuple_of_sample = ordered.tuple_id[live_sorted]
        scale_of_tuple = np.zeros(self.n_tuples)
        scale_of_tuple[view.tuple_ids] = scale

        all_uniform = bool(np.all(column.is_uniform[view.tuple_ids]))

        return AttributeSplitContext.from_arrays(
            attribute_index=attribute_index,
            class_labels=class_labels,
            positions=ordered.values[live_sorted],
            masses=ordered.masses[live_sorted] * scale_of_tuple[tuple_of_sample],
            classes=self.class_of[tuple_of_sample],
            end_point_bounds=(column.values[starts], column.values[stops - 1]),
            candidates=None,
            all_uniform=all_uniform,
        )

    def _fused_columns(self) -> _FusedColumns:
        if self._fused is None:
            self._fused = _FusedColumns(self._columns)
        return self._fused

    def build_contexts(
        self, view: ColumnarNodeView, class_labels: Sequence[Hashable]
    ) -> list[AttributeSplitContext]:
        """Split contexts for *every* numerical attribute of a node, fused.

        Produces exactly the same contexts as calling :meth:`build_context`
        per attribute (same sample arrays, candidates, totals — all derived
        with elementwise operations, so bitwise identical), but runs each
        array pass once over the concatenation of all attributes' samples
        instead of once per attribute.  On attribute-rich datasets this
        removes most of the per-node numpy dispatch overhead, which is what
        dominates tree construction at realistic node sizes.

        ``view`` must cover the whole store (a root view) or descend from
        one through :meth:`split_numerical` / :meth:`split_categorical`,
        which hand each child its live samples in sorted order.
        """
        if view.n_tuples == 0:
            raise SplitError("cannot build a split context for an empty tuple set")
        k = len(self.numerical_indices)
        if k == 0:
            return []
        fused = self._fused_columns()
        n_classes = len(class_labels)

        # Root contexts are memoised on the store: repeated training runs on
        # the same dataset (cross-strategy comparisons, benchmark loops,
        # repeated fits with different hyper-parameters) rebuild the exact
        # same root contexts, and construction is deterministic, so the
        # cached objects — including any sweep accumulators lazily attached
        # by earlier builds — are bitwise interchangeable with fresh ones.
        root_key = None
        if int((view.stops - view.starts).sum()) == fused.total_size and np.array_equal(
            view.weights, self.base_weights
        ):
            root_key = tuple(class_labels)
            cached = self._root_contexts.get(root_key)
            if cached is not None:
                contexts, sorted_state = cached
                view._sorted = sorted_state
                return contexts

        starts = view.starts + fused.base[:, None]
        stops = view.stops + fused.base[:, None]
        seg_base = fused.seg_base[:, view.tuple_ids]
        seg_end = fused.seg_end[:, view.tuple_ids]
        mass_before = np.where(
            starts > seg_base, fused.local_cum[np.maximum(starts - 1, 0)], 0.0
        )
        retained = fused.local_cum[stops - 1] - mass_before
        full_range = (starts == seg_base) & (stops == seg_end)
        weights = view.weights[None, :]
        scale = np.where(full_range, weights, weights / retained)

        if view._sorted is not None:
            # The node inherited its live-sample order from its parent
            # (split_numerical filters it down) — two gathers replace all
            # masking and sorting.
            sorted_flat, live_counts, tuple_of_sample = view._sorted
            m_total = int(sorted_flat.size)
            row_of_live = np.repeat(np.arange(k, dtype=np.int64), live_counts)
            positions = fused.values[sorted_flat]
            raw_masses = fused.masses[sorted_flat]
            # Each sample's position in the view comes from a lookup by
            # tuple id — O(m) instead of scattering a dense (k, n_tuples)
            # matrix per node.
            sample_scale = scale[row_of_live, view._positions()]
        else:
            live_counts = (view.stops - view.starts).sum(axis=1)
            if int(live_counts.sum()) != fused.total_size:
                raise SplitError(
                    "a node view must cover the store or descend from a view that does"
                )
            # Full coverage (the root node): every stored sample is live, so
            # the presorted fused arrays are the node arrays — no masking or
            # gathering at all.
            m_total = fused.total_size
            row_of_live = np.repeat(np.arange(k, dtype=np.int64), live_counts)
            sorted_flat = fused.sorted_flat_full
            tuple_of_sample = fused.sorted_tuple_id
            positions = fused.sorted_values
            raw_masses = fused.sorted_masses
            scale_all = np.zeros((k, self.n_tuples))
            scale_all[:, view.tuple_ids] = scale
            sample_scale = scale_all[row_of_live, tuple_of_sample]
            view._sorted = (sorted_flat, live_counts, tuple_of_sample)
        masses = raw_masses * sample_scale
        classes = self.class_of[tuple_of_sample]
        total_counts = np.bincount(
            row_of_live * n_classes + classes, weights=masses, minlength=k * n_classes
        ).reshape(k, n_classes)

        lows = fused.values[starts]
        highs = fused.values[stops - 1]
        uppers = highs.max(axis=1)

        # Fused candidate scan: distinct positions per attribute segment,
        # kept while strictly below the attribute's largest end point.  The
        # kept candidates are always a prefix of each segment's distinct
        # values, and the run-end of a kept value never crosses a segment
        # boundary (the segment's maximum is never kept), so per-attribute
        # slices reproduce the per-context scan exactly.
        seg_starts_live = np.zeros(k, dtype=np.int64)
        np.cumsum(live_counts[:-1], out=seg_starts_live[1:])
        distinct = np.empty(m_total, dtype=bool)
        distinct[0] = True
        np.not_equal(positions[1:], positions[:-1], out=distinct[1:])
        distinct[seg_starts_live] = True
        keep = distinct & (positions < np.repeat(uppers, live_counts))
        first_occurrence = np.flatnonzero(distinct)
        run_ends = np.empty(first_occurrence.size, dtype=np.int64)
        run_ends[:-1] = first_occurrence[1:]
        run_ends[-1] = m_total
        cand_counts = np.add.reduceat(keep, seg_starts_live)
        candidate_values = positions[keep]
        candidate_idx = run_ends[keep[first_occurrence]] - np.repeat(
            seg_starts_live, cand_counts
        )

        sample_bounds = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(live_counts, out=sample_bounds[1:])
        candidate_bounds = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(cand_counts, out=candidate_bounds[1:])
        all_uniform = fused.is_uniform[:, view.tuple_ids].all(axis=1)

        contexts: list[AttributeSplitContext] = []
        for row, attribute_index in enumerate(self.numerical_indices):
            s, e = sample_bounds[row], sample_bounds[row + 1]
            cs, ce = candidate_bounds[row], candidate_bounds[row + 1]
            contexts.append(
                AttributeSplitContext.from_arrays(
                    attribute_index=attribute_index,
                    class_labels=class_labels,
                    positions=positions[s:e],
                    masses=masses[s:e],
                    classes=classes[s:e],
                    end_point_bounds=(lows[row], highs[row]),
                    candidates=candidate_values[cs:ce],
                    candidate_idx=candidate_idx[cs:ce],
                    total_counts=total_counts[row],
                    all_uniform=bool(all_uniform[row]),
                )
            )
        if root_key is not None:
            self._root_contexts[root_key] = (contexts, view._sorted)
        return contexts

    # -- fractional splitting ------------------------------------------------

    def split_numerical(
        self,
        view: ColumnarNodeView,
        attribute_index: int,
        split_point: float,
        *,
        weight_eps: float = 0.0,
    ) -> tuple[ColumnarNodeView | None, ColumnarNodeView | None]:
        """Partition every tuple of ``view`` at ``split_point`` in one shot.

        Returns ``(left, right)`` views; a side receiving no tuple above the
        ``weight_eps`` threshold is ``None``.  The left (right) view keeps,
        per tuple, the prefix (suffix) of its live sample range — the flat
        arrays are never copied or renormalised, mirroring the fractional
        tuples of Section 3.2 exactly.
        """
        row = self.row_of(attribute_index)
        column = self._columns[row]
        starts, stops = view.starts[row], view.stops[row]
        lengths = stops - starts

        # Per-tuple count of live sample positions <= z (each tuple's segment
        # is sorted).  A node holding at least half of the store's tuples
        # (every root, and every node of a single row) takes one prefix sum
        # over the whole column; a smaller node compares only its own live
        # samples and sums them per range, so its cost follows the node, not
        # the column.  The rule reads tuple counts, not sample counts: summing
        # the live lengths on every call made single-row prediction 2-3 %
        # slower.  reduceat needs every live range non-empty, and each is: a
        # pdf has at least one sample, and a child keeps a tuple only when its
        # side holds a positive share of it.
        if 2 * view.n_tuples >= self.n_tuples:
            below = np.cumsum(column.values <= split_point)
            counts = below[stops - 1] - np.where(starts > 0, below[np.maximum(starts - 1, 0)], 0)
        else:
            at_most = column.values[_gather_ranges(starts, stops)] <= split_point
            counts = np.add.reduceat(at_most, np.cumsum(lengths) - lengths)

        segment_base = column.offsets[view.tuple_ids]
        mass_before_start = column.mass_before(starts, segment_base)
        retained = column.local_cum[stops - 1] - mass_before_start
        boundary = starts + counts
        left_mass = np.where(
            counts > 0, column.local_cum[np.maximum(boundary - 1, 0)] - mass_before_start, 0.0
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            p_left = np.clip(left_mass / retained, 0.0, 1.0)
        p_left = np.where(counts <= 0, 0.0, np.where(counts >= lengths, 1.0, p_left))

        left_weights = view.weights * p_left
        right_weights = view.weights * (1.0 - p_left)
        left_sel = left_weights > weight_eps
        right_sel = right_weights > weight_eps

        left_view: ColumnarNodeView | None = None
        right_view: ColumnarNodeView | None = None
        if np.any(left_sel):
            left_starts = view.starts[:, left_sel]
            left_stops = view.stops[:, left_sel].copy()
            left_stops[row] = boundary[left_sel]
            left_view = ColumnarNodeView(
                view.tuple_ids[left_sel], left_weights[left_sel], left_starts, left_stops
            )
        if np.any(right_sel):
            right_starts = view.starts[:, right_sel].copy()
            right_stops = view.stops[:, right_sel]
            right_starts[row] = boundary[right_sel]
            right_view = ColumnarNodeView(
                view.tuple_ids[right_sel], right_weights[right_sel], right_starts, right_stops
            )

        # The children keep the parent's live-sample order, restricted on
        # the split attribute to the prefix (left) or suffix (right) of each
        # tuple's range.
        if view._sorted is not None:
            sorted_flat, live_counts, _ = view._sorted
            positions = view._positions()
            start = int(live_counts[:row].sum())
            segment = slice(start, start + int(live_counts[row]))
            below = sorted_flat[segment] < (boundary + self._fused_columns().base[row])[
                positions[segment]
            ]
            if left_view is not None:
                left_view._sorted = view._child_order(positions, left_sel, segment, below)
            if right_view is not None:
                right_view._sorted = view._child_order(positions, right_sel, segment, ~below)
        return left_view, right_view
