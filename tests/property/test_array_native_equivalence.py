"""Array-native pdf materialisation equals the per-cell reference, bit for bit.

:func:`repro.api.spec.build_dataset` turns a table of ``gaussian`` /
``uniform`` / ``point`` columns into its columnar store with whole-column
NumPy passes.  The reference is one ``SampledPdf.gaussian`` / ``uniform`` /
``point`` per cell, flattened by ``ColumnarPdfStore.from_dataset``.  These
properties pin the store arrays, the on-demand pdf objects, and everything
trained, classified and streamed from them to that reference.

The generated tables include the cases that break a naive vectorisation:

* rows of 100 samples (a strided ``np.linspace(..., axis=1)`` output sums
  differently in the last bit from the scalar calls);
* supports narrower than the value's spacing (huge values with small
  widths), which repeat grid points or invert the support, so that column
  must be built cell by cell, errors included;
* supports near zero so narrow that the grid step underflows, which sends
  ``np.linspace`` to another formula for every row;
* ``s`` = 1 and 2, and one-row batches scaled by given extents (serving).
"""

from __future__ import annotations

import pickle
import re

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro import UDTClassifier
from repro.api.spec import (
    GaussianSpec,
    PointSpec,
    build_dataset,
    compute_extents,
    gaussian,
    point,
    resolve_table_spec,
    uniform,
)
from repro.core import Attribute, SampledPdf, UncertainDataset, UncertainTuple
from repro.core.builder import TreeBuilder
from repro.core.columnar import ColumnarPdfStore
from repro.exceptions import PdfError

# ---------------------------------------------------------------------------
# the per-cell reference
# ---------------------------------------------------------------------------


def reference_pdf(colspec, value, width):
    """One cell's pdf, built with the ``SampledPdf`` factories directly."""
    mean = float(value)
    if isinstance(colspec, PointSpec):
        return SampledPdf.point(mean)
    domain_width = colspec.w * (width or 0.0)
    if domain_width <= 0 or colspec.w == 0:
        return SampledPdf.point(mean)
    low, high = mean - domain_width / 2.0, mean + domain_width / 2.0
    if isinstance(colspec, GaussianSpec):
        return SampledPdf.gaussian(mean, domain_width / 4.0, low, high, colspec.s)
    return SampledPdf.uniform(low, high, colspec.s)


def reference_dataset(X, y, spec, extents):
    colspecs = resolve_table_spec(spec, X.shape[1])
    widths = [None if extent is None else extent[1] - extent[0] for extent in extents]
    attributes = [Attribute.numerical(f"A{j + 1}") for j in range(X.shape[1])]
    tuples = [
        UncertainTuple(
            [reference_pdf(colspec, row[j], widths[j]) for j, colspec in enumerate(colspecs)],
            label=None if y is None else y[i],
        )
        for i, row in enumerate(X)
    ]
    return UncertainDataset(attributes, tuples)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_store(dataset: UncertainDataset, reference: UncertainDataset) -> None:
    ours = ColumnarPdfStore.from_dataset(dataset)
    theirs = ColumnarPdfStore.from_dataset(reference)
    assert ours.numerical_indices == theirs.numerical_indices
    assert same_bits(ours.class_of, theirs.class_of)
    assert same_bits(ours.base_weights, theirs.base_weights)
    for mine, ref in zip(ours._columns, theirs._columns):
        for name in ("values", "masses", "local_cum", "offsets", "is_uniform"):
            assert same_bits(getattr(mine, name), getattr(ref, name)), name
        assert mine.kinds == ref.kinds


def assert_same_tuples(ours: UncertainDataset, theirs: UncertainDataset) -> None:
    """Equal tuples; an array-native dataset's pdfs are read-only views."""
    views = ours._tuples is None
    assert len(ours.tuples) == len(theirs.tuples)
    for mine, ref in zip(ours.tuples, theirs.tuples):
        assert mine.label == ref.label and mine.weight == ref.weight
        for a, b in zip(mine.features, ref.features):
            assert a.kind == b.kind
            assert same_bits(a.xs, b.xs) and same_bits(a.masses, b.masses)
            assert same_bits(a.cumulative, b.cumulative)
            assert same_bits(a.mean(), b.mean())
            if views:
                assert not (a.xs.flags.writeable or a.masses.flags.writeable)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

#: Where a column's values sit: ordinary, at magnitudes whose spacing
#: exceeds small supports, and in the subnormal range.
_OFFSETS = (0.0, 1.0, 1e16, 2.0**60, 0.0)
_SCALES = (1.0, 1e3, 4.0, 1e6, 1e-321)

column_specs = st.one_of(
    st.builds(
        gaussian,
        w=st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
        s=st.sampled_from([1, 2, 3, 7, 100]),
    ),
    st.builds(
        uniform,
        w=st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
        s=st.sampled_from([1, 2, 3, 7, 100]),
    ),
    st.just(point()),
)


@st.composite
def columns(draw, n_rows: int) -> np.ndarray:
    place = draw(st.integers(0, len(_OFFSETS) - 1))
    raw = draw(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False) | st.integers(-3, 3).map(float),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    return _OFFSETS[place] + _SCALES[place] * np.asarray(raw)


@st.composite
def tables(draw, max_rows: int = 10, max_columns: int = 3):
    """``(X, y, spec, extents)``; ``extents`` is ``None`` to take X's own."""
    n_rows = draw(st.integers(1, max_rows))
    n_columns = draw(st.integers(1, max_columns))
    X = np.column_stack([draw(columns(n_rows)) for _ in range(n_columns)])
    spec = draw(st.lists(column_specs, min_size=n_columns, max_size=n_columns))
    y = [draw(st.sampled_from("abc")) for _ in range(n_rows)] if draw(st.booleans()) else None
    extents = None
    if draw(st.booleans()):
        # Given extents, as a fitted model scales a predict batch.
        pad = draw(st.sampled_from([0.0, 0.5, 1e3]))
        extents = [(float(column.min()) - pad, float(column.max()) + pad) for column in X.T]
    return X, y, spec, extents


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(tables())
def test_store_and_views_equal_the_per_cell_reference(table):
    X, y, spec, extents = table
    used_extents = extents if extents is not None else compute_extents(X, spec=spec)
    try:
        reference = reference_dataset(X, y, spec, used_extents)
    except PdfError as error:
        event("per-cell error")
        with pytest.raises(PdfError, match=re.escape(str(error))):
            build_dataset(X, y, spec=spec, extents=extents)
        return
    dataset = build_dataset(X, y, spec=spec, extents=extents)
    colspecs = resolve_table_spec(spec, X.shape[1])
    widths = [None if extent is None else extent[1] - extent[0] for extent in used_extents]
    rows = [colspec.pdf_rows(X[:, j], widths[j]) for j, colspec in enumerate(colspecs)]
    event("whole-column passes" if all(r is not None for r in rows) else "a column cell by cell")
    assert len(dataset) == len(reference)
    assert_same_store(dataset, reference)
    assert_same_tuples(dataset, reference)


@settings(max_examples=300, deadline=None)
@given(tables(max_rows=1))
def test_one_row_batches_equal_the_per_cell_reference(table):
    """The serving case: one row, scaled by the model's extents."""
    X, _, spec, _ = table
    extents = [(float(X[0, j]) - 2.0, float(X[0, j]) + 1.0) for j in range(X.shape[1])]
    try:
        reference = reference_dataset(X, None, spec, extents)
    except PdfError:
        with pytest.raises(PdfError):
            build_dataset(X, None, spec=spec, extents=extents)
        return
    dataset = build_dataset(X, None, spec=spec, extents=extents)
    assert_same_store(dataset, reference)
    assert_same_tuples(dataset, reference)


@st.composite
def training_cases(draw):
    n_rows = draw(st.integers(6, 30))
    n_columns = draw(st.integers(1, 3))
    # Ordinary magnitudes: the degenerate widths are the first two tests' job.
    milli = st.integers(-1000, 1000).map(lambda v: v / 1000)
    centres = 3 * np.asarray(draw(st.lists(milli, min_size=3, max_size=3)))
    labels = np.asarray([draw(st.integers(0, 2)) for _ in range(n_rows)])
    noise = np.asarray(
        draw(st.lists(milli, min_size=n_rows * n_columns, max_size=n_rows * n_columns))
    ).reshape(n_rows, n_columns)
    X = centres[labels][:, None] + noise
    if draw(st.booleans()):
        X = np.round(X * 4)  # integer-valued columns: repeated values and end points
    widths, sizes = st.sampled_from([0.1, 0.5]), st.sampled_from([1, 2, 5, 12])
    spec = draw(
        st.lists(
            st.one_of(
                st.builds(gaussian, w=widths, s=sizes),
                st.builds(uniform, w=widths, s=sizes),
                st.just(point()),
            ),
            min_size=n_columns,
            max_size=n_columns,
        )
    )
    return X, [str(label) for label in labels], spec


@settings(max_examples=25, deadline=None)
@given(training_cases())
def test_training_classification_and_streaming_match_the_reference(case):
    X, y, spec = case
    extents = compute_extents(X, spec=spec)
    dataset = build_dataset(X, y, spec=spec)
    reference = reference_dataset(X, y, spec, extents)
    queries = X[::-1] + 0.25

    for strategy in ("UDT", "UDT-ES"):
        ours = TreeBuilder(strategy=strategy).build(dataset)
        theirs = TreeBuilder(strategy=strategy).build(reference)
        assert ours.tree.structure_signature() == theirs.tree.structure_signature()
        # Fig. 7 counters.
        assert ours.stats.split_search == theirs.stats.split_search
        assert (ours.stats.total_entropy_like_calculations
                == theirs.stats.total_entropy_like_calculations)

    model = UDTClassifier(strategy="UDT-ES", spec=spec).fit(X, y)
    reference_queries = reference_dataset(queries, None, spec, model.feature_extents_)
    expected = model.tree_.classify_dataset(reference_queries)
    assert same_bits(model.predict_proba(queries), expected)

    # Streaming: the updater routes the on-demand (view) tuples of the array
    # path; the reference routes owned per-cell pdfs.  Same re-splits.
    twin = pickle.loads(pickle.dumps(model))
    model.partial_fit(queries, y, resplit_min_weight=2.0)
    twin.tree_.partial_fit(
        reference_dataset(queries, y, spec, model.feature_extents_),
        builder=twin._make_builder(),
        resplit_min_weight=2.0,
    )
    assert model.tree_.structure_signature() == twin.tree_.structure_signature()
    assert same_bits(model.predict_proba(queries), twin.tree_.classify_dataset(reference_queries))
