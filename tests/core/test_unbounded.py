"""Unit tests for :mod:`repro.core.unbounded` (percentile pseudo end points, Sec. 7.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SampledPdf, UncertainTuple
from repro.core.dispersion import EntropyMeasure
from repro.core.stats import SplitSearchStats
from repro.core.strategies import UDTStrategy
from repro.core.unbounded import PercentileGPStrategy, percentile_pseudo_end_points
from repro.exceptions import SplitError

from tuple_contexts import build_contexts


def _contexts(seed=0):
    rng = np.random.default_rng(seed)
    tuples = []
    for _ in range(30):
        centre = rng.normal(0.0, 1.0)
        tuples.append(UncertainTuple([SampledPdf.gaussian(centre, 0.3, n_samples=20)], "a"))
    for _ in range(30):
        centre = rng.normal(2.5, 1.0)
        tuples.append(UncertainTuple([SampledPdf.gaussian(centre, 0.3, n_samples=20)], "b"))
    return build_contexts(tuples, [0], ["a", "b"])


class TestPseudoEndPoints:
    def test_requires_percentiles_in_range(self):
        context = _contexts()[0]
        with pytest.raises(SplitError):
            percentile_pseudo_end_points(context, percentiles=())
        with pytest.raises(SplitError):
            percentile_pseudo_end_points(context, percentiles=(0.0,))
        with pytest.raises(SplitError):
            percentile_pseudo_end_points(context, percentiles=(150.0,))

    def test_pseudo_points_are_sorted_and_within_domain(self):
        context = _contexts()[0]
        points = percentile_pseudo_end_points(context)
        assert np.all(np.diff(points) > 0)
        assert points[0] >= context.end_points[0]
        assert points[-1] <= context.end_points[-1]

    def test_count_bounded_by_classes_times_percentiles(self):
        context = _contexts()[0]
        points = percentile_pseudo_end_points(context, percentiles=(25, 50, 75))
        # at most |C| * |percentiles| + 2 boundary points
        assert points.size <= context.n_classes * 3 + 2

    def test_includes_domain_extremes(self):
        context = _contexts()[0]
        points = percentile_pseudo_end_points(context)
        assert context.end_points[0] in points
        assert context.end_points[-1] in points


class TestPercentileGPStrategy:
    def test_finds_a_reasonable_split(self):
        contexts = _contexts(seed=1)
        reference = UDTStrategy().find_best_split(contexts, EntropyMeasure(), SplitSearchStats())
        heuristic = PercentileGPStrategy().find_best_split(
            contexts, EntropyMeasure(), SplitSearchStats()
        )
        assert heuristic.is_valid
        # The heuristic is allowed to be slightly suboptimal but not terrible.
        assert heuristic.dispersion <= reference.dispersion + 0.05

    def test_does_fewer_evaluations_than_exhaustive(self):
        contexts = _contexts(seed=2)
        exhaustive_stats = SplitSearchStats()
        UDTStrategy().find_best_split(contexts, EntropyMeasure(), exhaustive_stats)
        heuristic_stats = SplitSearchStats()
        PercentileGPStrategy().find_best_split(contexts, EntropyMeasure(), heuristic_stats)
        assert (
            heuristic_stats.total_entropy_like_calculations
            < exhaustive_stats.total_entropy_like_calculations
        )

    def test_works_inside_tree_builder(self, small_uncertain):
        from repro.core import TreeBuilder

        tree = TreeBuilder(strategy=PercentileGPStrategy()).build(small_uncertain).tree
        assert tree.accuracy(small_uncertain) > 0.85
