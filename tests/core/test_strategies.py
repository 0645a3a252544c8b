"""Unit tests for the split-finding strategies (UDT, BP, LP, GP, ES)."""

from __future__ import annotations

import pytest

import numpy as np

from repro.core import SampledPdf, UncertainTuple
from repro.core.dispersion import EntropyMeasure, GainRatioMeasure, get_measure
from repro.core.stats import SplitSearchStats
from repro.core.strategies import (
    STRATEGY_NAMES,
    UDTESStrategy,
    UDTStrategy,
    get_strategy,
)
from repro.data import inject_uncertainty
from repro.data.synthetic import ClassificationSpec, make_point_dataset
from repro.exceptions import SplitError

from tuple_contexts import build_contexts


def _uncertain_contexts(seed=0, n_tuples=40, error_model="gaussian", n_samples=10):
    rng = np.random.default_rng(seed)
    spec = ClassificationSpec(n_tuples=n_tuples, n_attributes=3, n_classes=3, class_separation=2.0)
    data = make_point_dataset(spec, rng)
    uncertain = inject_uncertainty(
        data, width_fraction=0.15, n_samples=n_samples, error_model=error_model
    )
    return build_contexts(uncertain.tuples, [0, 1, 2], uncertain.class_labels)


class TestGetStrategy:
    def test_resolves_all_names(self):
        for name in STRATEGY_NAMES:
            assert get_strategy(name).name == name

    def test_case_and_separator_insensitive(self):
        assert get_strategy("udt_es").name == "UDT-ES"
        assert get_strategy("gp").name == "UDT-GP"

    def test_instance_passthrough(self):
        strategy = UDTStrategy()
        assert get_strategy(strategy) is strategy

    def test_unknown_name_raises(self):
        with pytest.raises(SplitError):
            get_strategy("UDT-XXX")

    def test_es_sample_fraction_validated(self):
        with pytest.raises(SplitError):
            UDTESStrategy(sample_fraction=0.0)
        with pytest.raises(SplitError):
            UDTESStrategy(sample_fraction=1.5)


class TestSafePruningInvariant:
    """All strategies must find a split of identical (optimal) dispersion."""

    @pytest.mark.parametrize("measure_name", ["entropy", "gini"])
    @pytest.mark.parametrize("error_model", ["gaussian", "uniform"])
    def test_same_optimal_dispersion(self, measure_name, error_model):
        contexts = _uncertain_contexts(seed=3, error_model=error_model)
        measure = get_measure(measure_name)
        reference = UDTStrategy().find_best_split(contexts, measure, SplitSearchStats())
        assert reference.is_valid
        for name in STRATEGY_NAMES[1:]:
            candidate = get_strategy(name).find_best_split(contexts, measure, SplitSearchStats())
            assert candidate.is_valid
            assert candidate.dispersion == pytest.approx(reference.dispersion, abs=1e-9), name

    def test_same_optimal_dispersion_gain_ratio(self):
        contexts = _uncertain_contexts(seed=5)
        measure = GainRatioMeasure()
        reference = UDTStrategy().find_best_split(contexts, measure, SplitSearchStats())
        for name in STRATEGY_NAMES[1:]:
            candidate = get_strategy(name).find_best_split(contexts, measure, SplitSearchStats())
            assert candidate.dispersion == pytest.approx(reference.dispersion, abs=1e-9), name

    def test_pruned_strategies_do_no_more_work_than_udt(self):
        contexts = _uncertain_contexts(seed=7)
        measure = EntropyMeasure()
        costs = {}
        for name in STRATEGY_NAMES:
            stats = SplitSearchStats()
            get_strategy(name).find_best_split(contexts, measure, stats)
            costs[name] = stats.total_entropy_like_calculations
        assert costs["UDT-BP"] <= costs["UDT"]
        assert costs["UDT-GP"] <= costs["UDT-LP"] <= costs["UDT"]
        assert costs["UDT-ES"] <= costs["UDT"]


class TestStatsAccounting:
    def test_udt_counts_every_candidate(self):
        contexts = _uncertain_contexts(seed=1)
        stats = SplitSearchStats()
        UDTStrategy().find_best_split(contexts, EntropyMeasure(), stats)
        expected = sum(c.n_candidates for c in contexts)
        assert stats.entropy_evaluations == expected
        assert stats.candidate_split_points == expected
        assert stats.lower_bound_evaluations == 0

    def test_bp_counts_end_points(self):
        contexts = _uncertain_contexts(seed=1)
        stats = SplitSearchStats()
        get_strategy("UDT-BP").find_best_split(contexts, EntropyMeasure(), stats)
        assert stats.end_point_evaluations > 0
        assert stats.intervals_total > 0
        assert stats.lower_bound_evaluations == 0

    def test_gp_counts_lower_bounds_and_prunes(self):
        contexts = _uncertain_contexts(seed=1)
        stats = SplitSearchStats()
        get_strategy("UDT-GP").find_best_split(contexts, EntropyMeasure(), stats)
        assert stats.lower_bound_evaluations > 0
        assert stats.intervals_pruned_by_bound > 0

    def test_stats_merge_accumulates(self):
        a = SplitSearchStats(entropy_evaluations=3, lower_bound_evaluations=1, intervals_total=2)
        b = SplitSearchStats(entropy_evaluations=4, intervals_pruned_by_bound=1)
        a.merge(b)
        assert a.entropy_evaluations == 7
        assert a.total_entropy_like_calculations == 8
        assert a.intervals_pruned_by_bound == 1


class TestTheorem3Uniform:
    """The Theorem 3 shortcut (end points suffice for uniform pdfs).

    The shortcut is exact for continuous uniform pdfs; for the *sampled*
    uniform pdfs used here it is a close approximation, so it must be enabled
    explicitly and is only required to be near-optimal.
    """

    def test_shortcut_examines_only_end_points(self):
        from repro.core.strategies import UDTBPStrategy

        contexts = _uncertain_contexts(seed=2, error_model="uniform")
        assert all(c.all_uniform for c in contexts)
        stats = SplitSearchStats()
        UDTBPStrategy(assume_linear_counts=True).find_best_split(
            contexts, EntropyMeasure(), stats
        )
        # Every dispersion evaluation was an end-point evaluation.
        assert stats.entropy_evaluations == stats.end_point_evaluations

    def test_shortcut_is_near_optimal_on_uniform_data(self):
        from repro.core.strategies import UDTBPStrategy

        contexts = _uncertain_contexts(seed=2, error_model="uniform")
        exhaustive = UDTStrategy().find_best_split(contexts, EntropyMeasure(), SplitSearchStats())
        shortcut = UDTBPStrategy(assume_linear_counts=True).find_best_split(
            contexts, EntropyMeasure(), SplitSearchStats()
        )
        assert shortcut.dispersion >= exhaustive.dispersion - 1e-12
        assert shortcut.dispersion <= exhaustive.dispersion + 0.05

    def test_without_shortcut_uniform_data_stays_exact(self):
        contexts = _uncertain_contexts(seed=2, error_model="uniform")
        exhaustive = UDTStrategy().find_best_split(contexts, EntropyMeasure(), SplitSearchStats())
        pruned = get_strategy("UDT-BP").find_best_split(
            contexts, EntropyMeasure(), SplitSearchStats()
        )
        assert pruned.dispersion == pytest.approx(exhaustive.dispersion, abs=1e-9)


class TestEdgeCases:
    def test_single_class_returns_invalid_split(self):
        tuples = [
            UncertainTuple([SampledPdf.point(float(i))], "only") for i in range(5)
        ]
        contexts = build_contexts(tuples, [0], ["only"])
        for name in STRATEGY_NAMES:
            result = get_strategy(name).find_best_split(
                contexts, EntropyMeasure(), SplitSearchStats()
            )
            # A split exists but cannot reduce dispersion below zero; the
            # builder rejects it via the gain test.  What matters here is
            # that no strategy crashes and dispersion is not negative.
            assert result.dispersion >= 0.0 or result.dispersion == float("inf")

    def test_identical_values_cannot_be_split(self):
        tuples = [
            UncertainTuple([SampledPdf.point(1.0)], "a"),
            UncertainTuple([SampledPdf.point(1.0)], "b"),
        ]
        contexts = build_contexts(tuples, [0], ["a", "b"])
        for name in STRATEGY_NAMES:
            result = get_strategy(name).find_best_split(
                contexts, EntropyMeasure(), SplitSearchStats()
            )
            assert not result.is_valid

    def test_two_point_tuples_split_perfectly(self):
        tuples = [
            UncertainTuple([SampledPdf.point(0.0)], "a"),
            UncertainTuple([SampledPdf.point(10.0)], "b"),
        ]
        contexts = build_contexts(tuples, [0], ["a", "b"])
        for name in STRATEGY_NAMES:
            result = get_strategy(name).find_best_split(
                contexts, EntropyMeasure(), SplitSearchStats()
            )
            assert result.is_valid
            assert result.dispersion == pytest.approx(0.0)
            assert result.split_point == pytest.approx(0.0)

    def test_es_with_full_sampling_equals_gp_result(self):
        contexts = _uncertain_contexts(seed=9)
        full = UDTESStrategy(sample_fraction=1.0).find_best_split(
            contexts, EntropyMeasure(), SplitSearchStats()
        )
        reference = UDTStrategy().find_best_split(contexts, EntropyMeasure(), SplitSearchStats())
        assert full.dispersion == pytest.approx(reference.dispersion, abs=1e-9)
