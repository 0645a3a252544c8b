"""Property-based tests (hypothesis) on the library's core invariants.

These tests stress the invariants listed in DESIGN.md §6 with randomly
generated pdfs, class-count configurations and small datasets:

* pdfs remain proper distributions under construction and truncation;
* dispersion measures are bounded and behave like impurities;
* the Eq. 3 / Eq. 4 interval lower bounds never exceed the dispersion of any
  split inside the interval;
* classification output is always a probability distribution and fractional
  mass is conserved;
* all pruning strategies find splits of identical dispersion (safe pruning).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SampledPdf, UncertainDataset, UncertainTuple, Attribute
from repro.core.dispersion import EntropyMeasure, GiniMeasure
from repro.core.stats import SplitSearchStats
from repro.core.strategies import STRATEGY_NAMES, get_strategy
from repro.core.tree import DecisionTree, InternalNode, LeafNode

from tuple_contexts import build_contexts

# ---------------------------------------------------------------------------
# strategies (generators)
# ---------------------------------------------------------------------------

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
positive_masses = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def sampled_pdfs(draw, max_points: int = 12):
    n = draw(st.integers(min_value=1, max_value=max_points))
    xs = draw(
        st.lists(finite_floats, min_size=n, max_size=n, unique=True)
    )
    masses = draw(st.lists(positive_masses, min_size=n, max_size=n))
    return SampledPdf(xs, masses)


@st.composite
def count_triples(draw, max_classes: int = 5):
    n_classes = draw(st.integers(min_value=2, max_value=max_classes))
    def counts():
        return draw(
            st.lists(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                min_size=n_classes, max_size=n_classes,
            )
        )
    return np.array(counts()), np.array(counts()), np.array(counts())


@st.composite
def small_uncertain_datasets(draw):
    """2-class, 1-attribute datasets of 4-12 tuples with small discrete pdfs."""
    n_tuples = draw(st.integers(min_value=4, max_value=12))
    tuples = []
    for i in range(n_tuples):
        pdf = draw(sampled_pdfs(max_points=5))
        label = "a" if draw(st.booleans()) else "b"
        tuples.append(UncertainTuple([pdf], label=label))
    # Ensure both classes appear.
    if len({t.label for t in tuples}) < 2:
        tuples[0] = UncertainTuple([draw(sampled_pdfs(max_points=5))], label="a")
        tuples[1] = UncertainTuple([draw(sampled_pdfs(max_points=5))], label="b")
    return UncertainDataset([Attribute.numerical("x")], tuples, class_labels=("a", "b"))


# ---------------------------------------------------------------------------
# pdf invariants
# ---------------------------------------------------------------------------


class TestPdfProperties:
    @given(sampled_pdfs())
    @settings(max_examples=60, deadline=None)
    def test_masses_sum_to_one_and_cdf_monotone(self, pdf):
        assert pdf.masses.sum() == pytest.approx(1.0)
        assert np.all(np.diff(pdf.cumulative) >= -1e-12)
        assert pdf.low <= pdf.mean() <= pdf.high

    @given(sampled_pdfs(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_split_conserves_mass_and_mean(self, pdf, fraction):
        z = pdf.low + fraction * (pdf.high - pdf.low)
        p_left, left, right = pdf.split_at(z)
        assert 0.0 <= p_left <= 1.0
        recomposed_mass = 0.0
        recomposed_mean = 0.0
        if left is not None:
            assert left.masses.sum() == pytest.approx(1.0)
            recomposed_mass += p_left
            recomposed_mean += p_left * left.mean()
        if right is not None:
            assert right.masses.sum() == pytest.approx(1.0)
            recomposed_mass += 1.0 - p_left
            recomposed_mean += (1.0 - p_left) * right.mean()
        assert recomposed_mass == pytest.approx(1.0)
        assert recomposed_mean == pytest.approx(pdf.mean(), rel=1e-6, abs=1e-6)

    @given(sampled_pdfs(), finite_floats, finite_floats)
    @settings(max_examples=60, deadline=None)
    def test_prob_between_is_monotone_in_interval_width(self, pdf, a, b):
        low, high = min(a, b), max(a, b)
        narrow = pdf.prob_between(low, high)
        wide = pdf.prob_between(low - 1.0, high + 1.0)
        assert -1e-12 <= narrow <= wide + 1e-12 <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# dispersion invariants
# ---------------------------------------------------------------------------


class TestDispersionProperties:
    @given(count_triples())
    @settings(max_examples=80, deadline=None)
    def test_entropy_bound_below_any_interior_split(self, triple):
        n_c, k_c, m_c = triple
        measure = EntropyMeasure()
        bound = measure.interval_lower_bound(n_c, k_c, m_c)
        totals = n_c + k_c + m_c
        rng = np.random.default_rng(0)
        for _ in range(10):
            left = n_c + rng.random(k_c.size) * k_c
            value = measure.split_dispersion_batch(left[None, :], totals)[0]
            assert bound <= value + 1e-7

    @given(count_triples())
    @settings(max_examples=80, deadline=None)
    def test_gini_bound_below_any_interior_split(self, triple):
        n_c, k_c, m_c = triple
        measure = GiniMeasure()
        bound = measure.interval_lower_bound(n_c, k_c, m_c)
        totals = n_c + k_c + m_c
        rng = np.random.default_rng(1)
        for _ in range(10):
            left = n_c + rng.random(k_c.size) * k_c
            value = measure.split_dispersion_batch(left[None, :], totals)[0]
            assert bound <= value + 1e-7

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=2, max_size=6)
    )
    @settings(max_examples=80, deadline=None)
    def test_node_dispersion_bounded(self, counts):
        counts = np.array(counts)
        entropy = EntropyMeasure().node_dispersion(counts)
        gini = GiniMeasure().node_dispersion(counts)
        assert 0.0 <= entropy <= np.log2(counts.size) + 1e-9
        assert 0.0 <= gini <= 1.0


# ---------------------------------------------------------------------------
# tree / strategy invariants
# ---------------------------------------------------------------------------


class TestTreeProperties:
    @given(small_uncertain_datasets())
    @settings(max_examples=25, deadline=None)
    def test_safe_pruning_on_random_datasets(self, dataset):
        contexts = build_contexts(dataset.tuples, [0], dataset.class_labels)
        measure = EntropyMeasure()
        values = []
        for name in STRATEGY_NAMES:
            result = get_strategy(name).find_best_split(contexts, measure, SplitSearchStats())
            values.append(result.dispersion)
        finite = [v for v in values if v != float("inf")]
        if finite:
            assert max(values) - min(values) < 1e-9
        else:
            assert all(v == float("inf") for v in values)

    @given(small_uncertain_datasets())
    @settings(max_examples=20, deadline=None)
    def test_classification_is_a_distribution(self, dataset):
        from repro.core import TreeBuilder

        tree = TreeBuilder(strategy="UDT-GP", min_split_weight=0.5).build(dataset).tree
        for item in dataset:
            probabilities = tree.classify(item)
            assert probabilities.shape == (2,)
            assert probabilities.sum() == pytest.approx(1.0)
            assert np.all(probabilities >= -1e-12)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=2),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_two_leaf_tree_output_is_convex_combination(self, leaf_probs, mass_left):
        left = LeafNode(np.array([leaf_probs[0], 1 - leaf_probs[0] / 2]))
        right = LeafNode(np.array([leaf_probs[1], 1 - leaf_probs[1] / 2]))
        root = InternalNode(0, split_point=0.0, left=left, right=right)
        tree = DecisionTree(root, [Attribute.numerical("x")], ["a", "b"])
        if mass_left in (0.0, 1.0):
            return
        pdf = SampledPdf([-1.0, 1.0], [mass_left, 1.0 - mass_left])
        result = tree.classify(UncertainTuple([pdf]))
        expected = mass_left * left.distribution + (1 - mass_left) * right.distribution
        expected = expected / expected.sum()
        assert result == pytest.approx(expected, rel=1e-9)
