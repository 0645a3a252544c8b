"""Equivalence properties of the columnar split-search store.

The columnar store (:mod:`repro.core.columnar`) must be a pure
representation change: flattening a dataset and running tree construction on
the flat arrays has to reproduce the per-tuple object model exactly — the
same pdfs, the same split contexts, the same chosen splits and the same
entropy-calculation counts the paper's efficiency study measures.  The
per-tuple side is :class:`reference_builder.TupleReferenceBuilder`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Attribute,
    CategoricalDistribution,
    SampledPdf,
    UDTClassifier,
    UncertainDataset,
    UncertainTuple,
)
from repro.core.builder import TreeBuilder
from repro.core.columnar import ColumnarPdfStore
from repro.api import build_dataset, categorical, gaussian, point, samples, uniform
from repro.core.strategies import STRATEGY_NAMES
from repro.data import inject_uncertainty, load_dataset

from reference_builder import TupleReferenceBuilder
from tuple_contexts import tuple_context


def _random_uncertain_dataset(
    seed: int, n_tuples: int = 25, n_attributes: int = 3, n_categorical: int = 0
):
    """A dataset with deliberately ragged pdfs (mixed sample counts/kinds).

    ``n_categorical`` appends uncertain categorical attributes whose
    distributions lean towards the tuple's class, so categorical splits
    compete with numerical ones below the root, on fractional tuples.
    """
    rng = np.random.default_rng(seed)
    domain = ("x", "y", "z")
    attributes = [Attribute.numerical(f"a{i}") for i in range(n_attributes)] + [
        Attribute.categorical(f"c{i}", domain) for i in range(n_categorical)
    ]
    tuples = []
    for i in range(n_tuples):
        label = "pos" if i % 2 == 0 else "neg"
        centre = 1.0 if label == "pos" else -1.0
        features = []
        for _ in range(n_attributes):
            loc = centre + rng.normal(0, 0.8)
            if rng.random() < 0.5:
                pdf = SampledPdf.gaussian(loc, 0.3 + rng.random(), n_samples=int(rng.integers(3, 12)))
            else:
                pdf = SampledPdf.uniform(loc - 0.5, loc + 0.5, n_samples=int(rng.integers(2, 9)))
            features.append(pdf)
        for _ in range(n_categorical):
            lean = (2.0, 1.0, 0.5) if label == "pos" else (0.5, 1.0, 2.0)
            features.append(CategoricalDistribution(dict(zip(domain, rng.dirichlet(lean)))))
        tuples.append(UncertainTuple(features, label=label))
    return UncertainDataset(attributes, tuples)


class TestStoreRoundTrip:
    """The flat arrays are exact copies of the per-tuple pdfs."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_pdfs_round_trip_exactly(self, seed):
        dataset = _random_uncertain_dataset(seed)
        store = ColumnarPdfStore.from_dataset(dataset)
        for attr_index in store.numerical_indices:
            views = store.columns[attr_index].pdf_views()
            for tuple_id, item in enumerate(dataset.tuples):
                original, rebuilt = item.pdf(attr_index), views[tuple_id]
                assert np.array_equal(rebuilt.xs, original.xs)
                assert np.array_equal(rebuilt.masses, original.masses)
                assert np.array_equal(rebuilt.cumulative, original.cumulative)
                assert rebuilt.kind == original.kind

    def test_round_trip_on_injected_uncertainty(self, small_uncertain):
        store = ColumnarPdfStore.from_dataset(small_uncertain)
        for attr_index in store.numerical_indices:
            views = store.columns[attr_index].pdf_views()
            for tuple_id, item in enumerate(small_uncertain.tuples):
                assert np.array_equal(views[tuple_id].xs, item.pdf(attr_index).xs)
                assert np.array_equal(views[tuple_id].masses, item.pdf(attr_index).masses)

    def test_class_weights_match_labels(self, small_uncertain):
        store = ColumnarPdfStore.from_dataset(small_uncertain)
        weights = store.class_weights(store.root_view())
        expected = np.zeros(len(small_uncertain.class_labels))
        for item in small_uncertain.tuples:
            expected[small_uncertain.label_index(item.label)] += item.weight
        assert np.allclose(weights, expected)


class TestContextEquivalence:
    """Fused context construction equals the per-tuple constructor."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_root_contexts_match_object_path(self, seed):
        dataset = _random_uncertain_dataset(seed)
        store = ColumnarPdfStore.from_dataset(dataset, require_labels=True)
        columnar = store.build_contexts(store.root_view(), dataset.class_labels)
        for context in columnar:
            reference = tuple_context(
                context.attribute_index, dataset.tuples, dataset.class_labels
            )
            assert np.array_equal(context._positions, reference._positions)
            assert np.array_equal(context._masses, reference._masses)
            assert np.array_equal(context._classes, reference._classes)
            assert np.array_equal(context.candidates, reference.candidates)
            assert np.array_equal(context.end_points, reference.end_points)
            assert np.array_equal(context.total_counts, reference.total_counts)
            assert context.all_uniform == reference.all_uniform

    def test_per_attribute_path_matches_fused_path(self, small_uncertain):
        store = ColumnarPdfStore.from_dataset(small_uncertain, require_labels=True)
        fused = store.build_contexts(store.root_view(), small_uncertain.class_labels)
        for context in fused:
            single = store.build_context(
                store.root_view(), context.attribute_index, small_uncertain.class_labels
            )
            assert np.array_equal(context._positions, single._positions)
            assert np.array_equal(context._masses, single._masses)
            assert np.array_equal(context.candidates, single.candidates)


class TestEngineEquivalence:
    """The builder and the per-tuple reference choose identical splits and
    count identical work."""

    def _assert_engines_agree(self, dataset, strategy):
        tuples_result = TupleReferenceBuilder(strategy=strategy).build(dataset)
        columnar_result = TreeBuilder(strategy=strategy).build(dataset)
        assert (
            tuples_result.tree.structure_signature()
            == columnar_result.tree.structure_signature()
        ), strategy
        tuples_stats = tuples_result.stats.split_search
        columnar_stats = columnar_result.stats.split_search
        if strategy == "UDT-ES":
            # End-point sampling prunes against a running threshold; a
            # last-bit dispersion difference between the two can change
            # how much work the pruning saved even though the tree is
            # identical, so the counts are compared with a small tolerance.
            assert columnar_stats.entropy_evaluations == pytest.approx(
                tuples_stats.entropy_evaluations, rel=0.02
            ), strategy
        else:
            assert columnar_stats.entropy_evaluations == tuples_stats.entropy_evaluations
            assert (
                columnar_stats.lower_bound_evaluations == tuples_stats.lower_bound_evaluations
            )
            assert (
                columnar_stats.candidate_split_points == tuples_stats.candidate_split_points
            )

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_engines_agree_on_gaussian_data(self, small_uncertain, strategy):
        self._assert_engines_agree(small_uncertain, strategy)

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_engines_agree_on_uniform_data(self, uniform_uncertain, strategy):
        self._assert_engines_agree(uniform_uncertain, strategy)

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_engines_agree_on_mixed_attributes(self, mixed_dataset, strategy):
        self._assert_engines_agree(mixed_dataset, strategy)

    @pytest.mark.slow
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    @pytest.mark.parametrize("name", ["Iris", "Glass", "Ionosphere"])
    def test_engines_agree_on_iris_like_data(self, name, strategy):
        training, _, _ = load_dataset(name, scale=0.5, seed=19)
        uncertain = inject_uncertainty(training, width_fraction=0.10, n_samples=25)
        self._assert_engines_agree(uncertain, strategy)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_engines_agree_on_ragged_pdfs(self, seed):
        dataset = _random_uncertain_dataset(seed, n_tuples=30)
        for strategy in STRATEGY_NAMES:
            self._assert_engines_agree(dataset, strategy)

    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_engines_agree_on_ragged_mixed_attributes(self, seed):
        dataset = _random_uncertain_dataset(seed, n_tuples=60, n_categorical=2)
        for strategy in STRATEGY_NAMES:
            self._assert_engines_agree(dataset, strategy)

    @pytest.mark.parametrize("seed", [9, 10])
    def test_engines_agree_on_a_mixed_table_built_from_rows(self, seed):
        """Every spec through build_dataset, with a category outside the
        declared domain.

        Against the same rows flattened from their tuples (the per-cell
        dataset), the trees are identical to the last bit.  Against the
        oracle, which walks the dataset's on-demand tuples, the splits and
        counts are identical; a leaf under two cuts of the same pdf may
        differ in its last bit (the renormalisation caveat of
        ``repro.core.columnar``).
        """
        rng = np.random.default_rng(seed)
        rows, labels = [], []
        for i in range(70):
            label = ("pos", "neg", "mid")[i % 3]
            centre = {"pos": 1.0, "neg": -1.0, "mid": 0.0}[label]
            colour = {
                "pos": {"red": 0.7, "green": 0.3},
                "neg": "green" if rng.random() < 0.6 else {"violet": 0.5, "red": 0.5},
                "mid": {"violet": 0.6, "green": 0.4} if rng.random() < 0.7 else "red",
            }[label]
            rows.append([
                centre + rng.normal(0, 0.9),
                centre + rng.normal(0, 1.2),
                float(rng.integers(-2, 3)) + centre,
                list(centre + rng.normal(0, 0.7, size=int(rng.integers(2, 7)))),
                colour,
            ])
            labels.append(label)
        spec = [gaussian(0.2, 7), uniform(0.3, 4), point(), samples(),
                categorical(domain=("red", "green"))]
        dataset = build_dataset(rows, labels, spec=spec)
        assert dataset._columnar_store.columns[4].categories == ("red", "green", "violet")
        per_cell = UncertainDataset(dataset.attributes, dataset.tuples, dataset.class_labels)
        for strategy in STRATEGY_NAMES:
            ours = TreeBuilder(strategy=strategy).build(dataset)
            flat = TreeBuilder(strategy=strategy).build(per_cell)
            assert ours.tree.structure_signature() == flat.tree.structure_signature()
            assert ours.stats.split_search == flat.stats.split_search
            oracle = TupleReferenceBuilder(strategy=strategy).build(dataset)
            _assert_same_splits(ours.tree.structure_signature(),
                                oracle.tree.structure_signature())
            assert (ours.stats.split_search.entropy_evaluations
                    == oracle.stats.split_search.entropy_evaluations)
        assert any(node.branches for node in ours.tree.iter_nodes() if not node.is_leaf)


def _assert_same_splits(ours: tuple, theirs: tuple) -> None:
    """Equal signatures, leaf probabilities to within a few ulps."""
    assert ours[0] == theirs[0] and len(ours) == len(theirs)
    if ours[0] == "leaf":
        assert ours[1] == pytest.approx(theirs[1], rel=1e-12, abs=1e-15)
        return
    for mine, ref in zip(ours[1:], theirs[1:]):
        if isinstance(mine, tuple) and mine and mine[0] in ("leaf", "num", "cat"):
            _assert_same_splits(mine, ref)
        elif isinstance(mine, tuple):  # a categorical node's (value, child) pairs
            assert [value for value, _ in mine] == [value for value, _ in ref]
            for (_, child), (_, ref_child) in zip(mine, ref):
                _assert_same_splits(child, ref_child)
        else:
            assert mine == ref


class TestBatchPrediction:
    """The batch classification path equals tuple-by-tuple classification."""

    def test_predict_batch_matches_per_tuple_predict(self, small_uncertain):
        model = UDTClassifier(strategy="UDT-GP").fit(small_uncertain)
        tree = model.tree_
        assert tree is not None
        batch = model.predict_batch(small_uncertain)
        singles = [tree.predict(item) for item in small_uncertain]
        assert batch == singles

    def test_classify_batch_matches_per_tuple_classify(self, small_uncertain):
        model = UDTClassifier(strategy="UDT-GP").fit(small_uncertain)
        tree = model.tree_
        assert tree is not None
        batch = model.predict_proba_batch(small_uncertain)
        singles = np.vstack([tree.classify(item) for item in small_uncertain])
        assert np.allclose(batch, singles, atol=1e-9)

    def test_batch_classification_with_categorical_attributes(self, mixed_dataset):
        model = UDTClassifier(strategy="UDT").fit(mixed_dataset)
        tree = model.tree_
        assert tree is not None
        batch = tree.classify_batch(mixed_dataset)
        singles = np.vstack([tree.classify(item) for item in mixed_dataset])
        assert np.allclose(batch, singles, atol=1e-9)

    def test_fractional_split_conserves_weight(self, small_uncertain):
        store = ColumnarPdfStore.from_dataset(small_uncertain)
        view = store.root_view()
        attribute = store.numerical_indices[0]
        context = store.build_context(view, attribute, small_uncertain.class_labels)
        split_point = float(np.median(context.candidates))
        left, right = store.split_numerical(view, attribute, split_point)
        total = 0.0
        for side in (left, right):
            if side is not None:
                total += side.total_weight()
        assert total == pytest.approx(view.total_weight())
