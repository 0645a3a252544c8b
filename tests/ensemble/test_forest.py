"""Unit tests for the bagged forests (:mod:`repro.ensemble`).

The load-bearing properties: training is deterministic given
``random_state`` (bit-identical probabilities, identical member trees),
parallel training equals sequential training exactly, bootstrap samples
that miss a class still vote with aligned probability columns, and the
sklearn parameter protocol (clone / get_params / set_params) holds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import UncertainDataset
from repro.ensemble import AveragingForestClassifier, UDTForestClassifier
from repro.api.spec import gaussian
from repro.exceptions import DatasetError, TreeError


@pytest.fixture(scope="module")
def arrays():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(70, 4))
    y = np.where(X[:, 0] + 0.5 * X[:, 2] > 0, "pos", "neg")
    return X, y


def small_forest(**overrides) -> UDTForestClassifier:
    options = dict(
        n_estimators=5, spec=gaussian(w=0.1, s=6), min_split_weight=4.0, random_state=9
    )
    options.update(overrides)
    return UDTForestClassifier(**options)


class TestDeterminism:
    def test_same_random_state_same_forest(self, arrays):
        X, y = arrays
        first = small_forest().fit(X, y)
        second = small_forest().fit(X, y)
        assert [t.structure_signature() for t in first.trees_] == [
            t.structure_signature() for t in second.trees_
        ]
        assert np.array_equal(first.predict_proba(X), second.predict_proba(X))

    def test_different_random_state_different_forest(self, arrays):
        X, y = arrays
        first = small_forest(random_state=9).fit(X, y)
        second = small_forest(random_state=10).fit(X, y)
        assert [t.structure_signature() for t in first.trees_] != [
            t.structure_signature() for t in second.trees_
        ]

    def test_parallel_training_matches_sequential_exactly(self, arrays):
        X, y = arrays
        sequential = small_forest(n_jobs=1).fit(X, y)
        parallel = small_forest(n_jobs=3).fit(X, y)
        assert [t.structure_signature() for t in sequential.trees_] == [
            t.structure_signature() for t in parallel.trees_
        ]
        assert sequential.tree_feature_indices_ == parallel.tree_feature_indices_
        assert np.array_equal(sequential.predict_proba(X), parallel.predict_proba(X))

    def test_parallel_matches_sequential_with_feature_subsample(self, arrays):
        X, y = arrays
        sequential = small_forest(feature_subsample="sqrt", n_jobs=1).fit(X, y)
        parallel = small_forest(feature_subsample="sqrt", n_jobs=2).fit(X, y)
        assert sequential.tree_feature_indices_ == parallel.tree_feature_indices_
        assert np.array_equal(sequential.predict_proba(X), parallel.predict_proba(X))


class TestBagging:
    def test_members_see_different_bootstrap_samples(self, arrays):
        X, y = arrays
        forest = small_forest().fit(X, y)
        signatures = {t.structure_signature() for t in forest.trees_}
        assert len(signatures) > 1  # resampling actually diversified members

    def test_no_bootstrap_no_subsample_members_are_identical(self, arrays):
        X, y = arrays
        forest = small_forest(bootstrap=False).fit(X, y)
        signatures = {t.structure_signature() for t in forest.trees_}
        assert len(signatures) == 1

    def test_feature_subsample_projects_members(self, arrays):
        X, y = arrays
        forest = small_forest(feature_subsample=2).fit(X, y)
        for tree, indices in zip(forest.trees_, forest.tree_feature_indices_):
            assert len(indices) == 2
            assert indices == sorted(indices)
            assert len(tree.attributes) == 2
        assert forest.n_features_in_ == 4  # the forest still expects full rows

    def test_probability_columns_stay_aligned_on_rare_classes(self):
        # 3 classes, one so rare that bootstrap samples routinely miss it;
        # subset()/select_attributes() preserve class_labels, so every
        # member's vote matrix must still have 3 aligned columns.
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        y = np.array(["a"] * 19 + ["b"] * 19 + ["rare"] * 2)
        forest = small_forest(n_estimators=7).fit(X, y)
        probabilities = forest.predict_proba(X)
        assert probabilities.shape == (40, 3)
        assert list(forest.classes_) == ["a", "b", "rare"]
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-9)

    def test_soft_vote_is_mean_of_member_votes(self, arrays):
        X, y = arrays
        forest = small_forest(n_estimators=3, feature_subsample=None).fit(X, y)
        dataset = forest._prepare_eval(forest.as_dataset(X[:7]))
        member_votes = [tree.classify_batch(dataset) for tree in forest.trees_]
        expected = (member_votes[0] + member_votes[1] + member_votes[2]) / 3
        assert np.array_equal(forest.predict_proba(X[:7]), expected)


class TestEstimatorProtocol:
    def test_fit_on_dataset(self, small_uncertain: UncertainDataset):
        forest = small_forest(n_estimators=3).fit(small_uncertain)
        assert forest.n_trees_ == 3
        assert forest.score(small_uncertain) > 0.5
        probabilities = forest.predict_proba(small_uncertain)
        assert probabilities.shape == (len(small_uncertain), small_uncertain.n_classes)

    def test_predict_single_tuple(self, small_uncertain: UncertainDataset):
        forest = small_forest(n_estimators=3).fit(small_uncertain)
        item = small_uncertain.tuples[0]
        label = forest.predict(item)
        assert label in small_uncertain.class_labels
        vector = forest.predict_proba(item)
        assert vector.shape == (small_uncertain.n_classes,)

    def test_empty_and_flat_row_batches(self, arrays):
        X, y = arrays
        forest = small_forest(n_estimators=3, feature_subsample="sqrt").fit(X, y)
        empty = forest.predict_proba(np.zeros((0, 4)))
        assert empty.shape == (0, 2)
        flat = forest.predict_proba(X[0])
        assert flat.shape == (1, 2)
        assert forest.predict(np.zeros((0, 4))).shape == (0,)

    def test_batch_aliases(self, arrays):
        X, y = arrays
        forest = small_forest(n_estimators=3).fit(X, y)
        labels = forest.predict_batch(X[:5])
        assert isinstance(labels, list)
        assert labels == list(forest.predict(X[:5]))
        assert np.array_equal(
            forest.predict_proba_batch(X[:5]), forest.predict_proba(X[:5])
        )

    def test_clone_and_params_roundtrip(self, arrays):
        from repro.core.estimator import clone_estimator

        X, y = arrays
        forest = small_forest(feature_subsample=0.5).fit(X, y)
        cloned = clone_estimator(forest)
        assert cloned.trees_ is None
        assert cloned.get_params(deep=False) == forest.get_params(deep=False)
        refit = cloned.fit(X, y)
        assert np.array_equal(refit.predict_proba(X), forest.predict_proba(X))

    def test_unfitted_raises(self, arrays):
        X, _ = arrays
        with pytest.raises(TreeError):
            small_forest().predict(X)
        with pytest.raises(TreeError):
            small_forest().predict_proba(X)

    def test_averaging_forest_collapses_to_means(self, small_uncertain):
        forest = AveragingForestClassifier(
            n_estimators=3, min_split_weight=4.0, random_state=9
        ).fit(small_uncertain)
        point_forest = AveragingForestClassifier(
            n_estimators=3, min_split_weight=4.0, random_state=9
        ).fit(small_uncertain.to_point_dataset())
        assert [t.structure_signature() for t in forest.trees_] == [
            t.structure_signature() for t in point_forest.trees_
        ]


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, True])
    def test_bad_n_estimators(self, arrays, bad):
        X, y = arrays
        with pytest.raises(TreeError):
            small_forest(n_estimators=bad).fit(X, y)

    @pytest.mark.parametrize("bad", [-1, 0.0, 1.5, True, "half"])
    def test_bad_feature_subsample(self, arrays, bad):
        X, y = arrays
        with pytest.raises(TreeError):
            small_forest(feature_subsample=bad).fit(X, y)

    def test_bad_random_state(self, arrays):
        X, y = arrays
        with pytest.raises(TreeError):
            small_forest(random_state=-1).fit(X, y)

    def test_empty_dataset(self, small_uncertain):
        empty = small_uncertain.replace_tuples([])
        with pytest.raises(DatasetError):
            small_forest().fit(empty)
