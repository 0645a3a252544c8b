"""Unit tests for :mod:`repro.core.splits` (the per-attribute split context).

The contexts come from the columnar store, as in tree construction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Attribute, SampledPdf, UncertainDataset, UncertainTuple
from repro.core.columnar import ColumnarPdfStore
from repro.core.dispersion import EntropyMeasure
from repro.core.intervals import build_interval_table
from repro.core.splits import CandidateSplit
from repro.exceptions import SplitError


def _context(tuples, class_labels=("a", "b")):
    """The store's root context of a one-attribute dataset of ``tuples``."""
    dataset = UncertainDataset([Attribute.numerical("x")], tuples, class_labels=class_labels)
    store = ColumnarPdfStore.from_dataset(dataset, require_labels=True)
    return store.build_contexts(store.root_view(), dataset.class_labels)[0]


def _make_tuples():
    """Four one-attribute tuples: class 'a' low values, class 'b' high values."""
    return [
        UncertainTuple([SampledPdf([0.0, 1.0], [0.5, 0.5])], "a"),
        UncertainTuple([SampledPdf([1.0, 2.0], [0.5, 0.5])], "a"),
        UncertainTuple([SampledPdf([5.0, 6.0], [0.5, 0.5])], "b"),
        UncertainTuple([SampledPdf([6.0, 7.0], [0.5, 0.5])], "b"),
    ]


class TestConstruction:
    def test_empty_tuple_set_rejected(self):
        with pytest.raises(SplitError):
            _context([])

    def test_unlabelled_tuple_rejected(self):
        item = UncertainTuple([SampledPdf.point(1.0)], label=None)
        with pytest.raises(SplitError):
            _context([item], ["a"])

    def test_total_counts_per_class(self):
        context = _context(_make_tuples())
        assert context.total_counts == pytest.approx([2.0, 2.0])

    def test_total_counts_respect_tuple_weights(self):
        tuples = [
            UncertainTuple([SampledPdf.point(0.0)], "a", weight=0.25),
            UncertainTuple([SampledPdf.point(1.0)], "b", weight=0.75),
        ]
        context = _context(tuples)
        assert context.total_counts == pytest.approx([0.25, 0.75])

    def test_end_points_are_pdf_domain_bounds(self):
        context = _context(_make_tuples())
        assert list(context.end_points) == [0.0, 1.0, 2.0, 5.0, 6.0, 7.0]

    def test_candidates_exclude_global_maximum(self):
        context = _context(_make_tuples())
        assert 7.0 not in context.candidates
        assert context.n_candidates == 5

    def test_all_uniform_flag(self):
        uniform_tuples = [
            UncertainTuple([SampledPdf.uniform(0, 1, 5)], "a"),
            UncertainTuple([SampledPdf.point(3.0)], "b"),
        ]
        assert _context(uniform_tuples).all_uniform
        mixed = uniform_tuples + [UncertainTuple([SampledPdf.gaussian(5, 1, n_samples=5)], "b")]
        assert not _context(mixed).all_uniform

    def test_n_sample_points_accumulates(self):
        context = _context(_make_tuples())
        assert context.n_sample_points == 8


class TestCounts:
    def test_left_counts_at_various_points(self):
        context = _context(_make_tuples())
        counts = context.left_counts(np.array([-1.0, 0.0, 1.0, 4.0, 7.0]))
        assert counts[0] == pytest.approx([0.0, 0.0])
        assert counts[1] == pytest.approx([0.5, 0.0])
        assert counts[2] == pytest.approx([1.5, 0.0])
        assert counts[3] == pytest.approx([2.0, 0.0])
        assert counts[4] == pytest.approx([2.0, 2.0])

    def test_left_counts_scale_with_weights(self):
        tuples = [
            UncertainTuple([SampledPdf([0.0, 2.0], [0.5, 0.5])], "a", weight=0.5),
        ]
        context = _context(tuples, ["a"])
        counts = context.left_counts(np.array([0.0, 2.0]))
        assert counts[0, 0] == pytest.approx(0.25)
        assert counts[1, 0] == pytest.approx(0.5)

    def test_interval_counts_half_open(self):
        context = _context(_make_tuples())
        inside = build_interval_table(context, np.array([0.0, 2.0])).inside_counts[0]
        # (0, 2] excludes the mass at 0 (0.5 of class a) and includes 1 and 2.
        assert inside == pytest.approx([1.5, 0.0])

    def test_class_absent_from_node_gives_zero_column(self):
        tuples = [UncertainTuple([SampledPdf.point(1.0)], "a")]
        context = _context(tuples)
        counts = context.left_counts(np.array([2.0]))
        assert counts[0] == pytest.approx([1.0, 0.0])


class TestEvaluation:
    def test_profile_returns_one_value_per_point(self):
        context = _context(_make_tuples())
        left_sizes, values = context.dispersion_profile(
            np.array([1.0, 2.0, 6.0]), EntropyMeasure()
        )
        assert values.shape == (3,)
        assert left_sizes == pytest.approx([1.5, 2.0, 3.5])

    def test_profile_of_no_points_is_empty(self):
        context = _context(_make_tuples())
        left_sizes, values = context.dispersion_profile(np.array([]), EntropyMeasure())
        assert left_sizes.size == 0 and values.size == 0

    def test_profile_identifies_perfect_separator(self):
        context = _context(_make_tuples())
        _, values = context.dispersion_profile(context.candidates, EntropyMeasure())
        best = int(np.argmin(values))
        assert context.candidates[best] == pytest.approx(2.0)
        assert values[best] == pytest.approx(0.0)

    def test_split_with_all_mass_on_one_side_is_no_candidate(self):
        tuples = [UncertainTuple([SampledPdf.point(1.0)], "a"),
                  UncertainTuple([SampledPdf.point(1.0)], "b")]
        context = _context(tuples)
        assert context.n_candidates == 0
        left_sizes, _ = context.dispersion_profile(np.array([1.0]), EntropyMeasure())
        assert left_sizes[0] == pytest.approx(context.total_counts.sum())


class TestBuildContexts:
    def test_one_context_per_numerical_attribute(self):
        attrs = [Attribute.numerical("x"), Attribute.numerical("y")]
        tuples = [
            UncertainTuple([SampledPdf.point(0.0), SampledPdf.point(5.0)], "a"),
            UncertainTuple([SampledPdf.point(1.0), SampledPdf.point(6.0)], "b"),
        ]
        dataset = UncertainDataset(attrs, tuples)
        store = ColumnarPdfStore.from_dataset(dataset, require_labels=True)
        contexts = store.build_contexts(store.root_view(), dataset.class_labels)
        assert [c.attribute_index for c in contexts] == [0, 1]

    def test_candidate_split_dataclass_validity(self):
        assert not CandidateSplit(None, None, float("inf")).is_valid
        assert CandidateSplit(0, 1.5, 0.3).is_valid
