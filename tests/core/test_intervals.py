"""Unit tests for :mod:`repro.core.intervals` (end-point intervals, Defs. 2-4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Attribute, SampledPdf, UncertainDataset, UncertainTuple
from repro.core.columnar import ColumnarPdfStore
from repro.core.intervals import IntervalKind, build_interval_table, classify_counts


def _context():
    """Three tuples whose pdf domains create empty/homogeneous/heterogeneous intervals.

    * class 'a': pdf over [0, 2]
    * class 'a': pdf over [1, 3]
    * class 'b': pdf over [6, 8]

    End points: 0,1,2,3,6,8.  Intervals: (0,1] hom-a, (1,2] hom-a, (2,3]
    hom-a, (3,6] empty, (6,8] hom-b ... to get a heterogeneous one we add a
    class-'b' pdf over [1.5, 2.5].
    """
    tuples = [
        UncertainTuple([SampledPdf(np.linspace(0, 2, 5), np.ones(5))], "a"),
        UncertainTuple([SampledPdf(np.linspace(1, 3, 5), np.ones(5))], "a"),
        UncertainTuple([SampledPdf(np.linspace(6, 8, 5), np.ones(5))], "b"),
        UncertainTuple([SampledPdf(np.linspace(1.5, 2.5, 5), np.ones(5))], "b"),
    ]
    dataset = UncertainDataset([Attribute.numerical("x")], tuples)
    store = ColumnarPdfStore.from_dataset(dataset, require_labels=True)
    return store.build_contexts(store.root_view(), dataset.class_labels)[0]


class TestClassifyCounts:
    def test_empty(self):
        assert classify_counts(np.array([0.0, 0.0])) is IntervalKind.EMPTY

    def test_homogeneous(self):
        assert classify_counts(np.array([0.7, 0.0])) is IntervalKind.HOMOGENEOUS

    def test_heterogeneous(self):
        assert classify_counts(np.array([0.7, 0.1])) is IntervalKind.HETEROGENEOUS


class TestIntervalTable:
    def test_number_of_intervals(self):
        context = _context()
        table = build_interval_table(context)
        assert table.n_intervals == context.end_points.size - 1

    def test_interval_kinds_partition(self):
        table = build_interval_table(_context())
        kinds = np.stack([table.is_empty, table.is_homogeneous, table.is_heterogeneous])
        # Every interval has exactly one kind.
        assert np.all(kinds.sum(axis=0) == 1)

    def test_contains_empty_homogeneous_and_heterogeneous(self):
        kinds = set(build_interval_table(_context()).kinds())
        assert kinds == {IntervalKind.EMPTY, IntervalKind.HOMOGENEOUS, IntervalKind.HETEROGENEOUS}

    def test_counts_are_consistent(self):
        context = _context()
        table = build_interval_table(context)
        totals = context.total_counts
        for i in range(table.n_intervals):
            recomposed = table.left_counts[i] + table.inside_counts[i] + table.right_counts[i]
            assert recomposed == pytest.approx(totals)

    def test_inside_counts_match_left_count_differences(self):
        context = _context()
        table = build_interval_table(context)
        for i in range(table.n_intervals):
            counts = context.left_counts(np.array([table.lows[i], table.highs[i]]))
            expected = np.clip(counts[1] - counts[0], 0.0, None)
            assert table.inside_counts[i] == pytest.approx(expected)

    def test_interior_candidates_are_strictly_inside(self):
        context = _context()
        table = build_interval_table(context)
        candidates = context.candidates
        for i in range(table.n_intervals):
            interior = candidates[table.candidate_start[i]: table.candidate_stop[i]]
            assert np.all(interior > table.lows[i])
            assert np.all(interior < table.highs[i])

    def test_gather_interiors_concatenates_selected(self):
        context = _context()
        table = build_interval_table(context)
        everything = table.gather_interiors(np.ones(table.n_intervals, dtype=bool))
        nothing = table.gather_interiors(np.zeros(table.n_intervals, dtype=bool))
        assert nothing.size == 0
        # All interior candidates together with the end points cover every candidate.
        covered = np.union1d(everything, context.end_points)
        assert np.all(np.isin(context.candidates, covered))

    def test_custom_end_points_give_coarser_intervals(self):
        context = _context()
        coarse = build_interval_table(context, end_points=np.array([0.0, 3.0, 8.0]))
        assert coarse.n_intervals == 2

    def test_degenerate_end_points(self):
        context = _context()
        table = build_interval_table(context, end_points=np.array([1.0]))
        assert table.n_intervals == 0
        assert table.gather_interiors(np.zeros(0, dtype=bool)).size == 0


class TestIntervalKinds:
    def test_kinds_match_the_flags(self):
        table = build_interval_table(_context())
        kinds = table.kinds()
        assert len(kinds) == table.n_intervals
        assert np.all(table.lows < table.highs)
        for kind, empty, homogeneous in zip(kinds, table.is_empty, table.is_homogeneous):
            expected = (
                IntervalKind.EMPTY if empty
                else IntervalKind.HOMOGENEOUS if homogeneous
                else IntervalKind.HETEROGENEOUS
            )
            assert kind is expected

    def test_kind_semantics(self):
        context = _context()
        table = build_interval_table(context)
        assert table.is_empty.any() and table.is_heterogeneous.any()
        assert table.is_homogeneous.any()
        for i in np.flatnonzero(table.is_empty):
            # No mass strictly inside an empty interval (mass may sit exactly
            # on the right end point, which belongs to the next pdf's domain).
            open_mass = context.left_counts(
                np.array([table.highs[i]]), inclusive=False
            )[0] - context.left_counts(np.array([table.lows[i]]))[0]
            assert np.clip(open_mass, 0, None).sum() == pytest.approx(0.0)
        for i in np.flatnonzero(table.is_heterogeneous):
            assert (table.inside_counts[i] > 0).sum() >= 2

    def test_open_counts_never_exceed_closed_counts(self):
        table = build_interval_table(_context())
        assert np.all(table.open_counts <= table.inside_counts + 1e-12)
