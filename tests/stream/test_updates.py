"""TreeUpdater: routing semantics, in-place leaf stats, local re-splits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import UDTClassifier
from repro.api.spec import gaussian
from repro.core.dataset import UncertainDataset
from repro.exceptions import TreeError
from repro.stream import TreeUpdater, UpdateReport


def prepared_batch(model, X, y):
    """The exact dataset ``model.partial_fit(X, y)`` would route."""
    return model._prepare_training(model._coerce_update(X, y))


class TestValidation:
    def test_thresholds_must_be_positive(self, fitted_tree):
        with pytest.raises(TreeError, match="resplit_gain"):
            TreeUpdater(fitted_tree.tree_, resplit_gain=0.0)
        with pytest.raises(TreeError, match="resplit_min_weight"):
            TreeUpdater(fitted_tree.tree_, resplit_min_weight=-1.0)

    def test_unknown_label_rejected(self, fitted_tree, stream_data):
        X, _ = stream_data
        with pytest.raises(TreeError, match="unknown class label"):
            fitted_tree.partial_fit(X[:3], ["zzz"] * 3)

    def test_wrong_feature_count_rejected(self, fitted_tree):
        with pytest.raises(Exception):
            fitted_tree.partial_fit([[1.0, 2.0]], ["a"])


class TestRouting:
    def test_batch_weight_is_conserved(self, fitted_tree, stream_data):
        X, y = stream_data
        updater = TreeUpdater(
            fitted_tree.tree_, fitted_tree._make_builder(),
            resplit_gain=float("inf"),
        )
        batch = prepared_batch(fitted_tree, X, y)
        report = updater.update(batch)
        assert report.n_tuples == len(X)
        # Numerical routing only renormalises mass between branches (dust
        # below _EPS aside), so the routed weight matches the batch weight.
        assert report.routed_weight == pytest.approx(len(X), rel=1e-6)
        assert report.dropped_weight == 0.0
        assert report.touched_leaves >= 1
        assert report.n_resplits == 0

    def test_leaf_stats_shift_predictions(self, fitted_tree):
        # Flood the region predicted "a" with "b" labels: without any
        # re-split the leaf distributions alone must flip the prediction.
        probe = np.zeros((1, 3))
        assert fitted_tree.predict(probe)[0] == "a"
        X = np.random.default_rng(3).normal(0.0, 0.3, size=(200, 3))
        fitted_tree.partial_fit(X, ["b"] * 200, resplit_gain=1e9)
        assert fitted_tree.predict(probe)[0] == "b"

    def test_total_training_weight_grows(self, fitted_tree, stream_data):
        X, y = stream_data
        before = fitted_tree.tree_.root
        # Sum of leaf training weights before/after (root may be internal).
        def total(node):
            if hasattr(node, "distribution"):
                return node.training_weight
            if node.is_numerical_test:
                return total(node.left) + total(node.right)
            return sum(total(child) for child in node.branches.values())
        w0 = total(before)
        fitted_tree.partial_fit(X, y, resplit_gain=1e9)
        assert total(fitted_tree.tree_.root) == pytest.approx(w0 + len(X), rel=1e-6)

    def test_update_report_merge(self):
        merged = UpdateReport(1, 1.0, 0.0, 1, 0).merge(UpdateReport(2, 2.0, 0.5, 3, 1))
        assert merged.n_tuples == 3
        assert merged.routed_weight == 3.0
        assert merged.dropped_weight == 0.5
        assert merged.touched_leaves == 4
        assert merged.n_resplits == 1


class TestResplit:
    def test_resplit_bit_identical_to_fresh_subtree_build(self, base_data):
        """The tentpole invariant: a triggered local re-split produces the
        same subtree as building it fresh on the leaf's accumulated tuples.
        """
        X0, y0 = base_data
        spec = gaussian(w=0.05, s=10)
        live = UDTClassifier(spec=spec, max_depth=4).fit(X0, y0)
        twin = UDTClassifier(spec=spec, max_depth=4).fit(X0, y0)
        assert live.tree_.structure_signature() == twin.tree_.structure_signature()

        # A two-cluster stream inside one leaf's region: separable, so the
        # gain trigger fires.
        rng = np.random.default_rng(4)
        Xs = np.vstack([
            rng.normal(4.0, 0.3, size=(15, 3)),
            rng.normal(6.0, 0.3, size=(15, 3)),
        ])
        ys = ["a"] * 15 + ["b"] * 15

        # Twin: route with re-splitting disabled to capture each touched
        # leaf's buffer and position.
        twin_updater = TreeUpdater(
            twin.tree_, twin._make_builder(), resplit_gain=float("inf")
        )
        batch = prepared_batch(twin, Xs, ys)
        twin_updater.update(batch)
        triggered = [
            state for state in twin_updater._states.values()
            if state.buffer_weight >= 4.0
            and twin_updater.subtree_builder(state.depth).root_split_gain(
                UncertainDataset(batch.attributes, state.buffer,
                                 class_labels=batch.class_labels)
            ) >= 0.01
        ]
        assert triggered, "the stream was designed to trigger at least one re-split"

        # Live: the real partial_fit path with re-splitting on.
        live.partial_fit(Xs, ys, resplit_gain=0.01, resplit_min_weight=4.0)
        report = live.last_update_report_
        assert report.n_resplits == len(triggered)

        # Swap independently built subtrees into the twin at the recorded
        # positions; whole-tree signatures must then match exactly.
        for state in triggered:
            local = UncertainDataset(
                batch.attributes, state.buffer, class_labels=batch.class_labels
            )
            fresh = twin_updater.subtree_builder(state.depth).build(local).tree.root
            if state.parent is None:
                twin.tree_.root = fresh
            elif state.parent.is_numerical_test:
                if state.slot == "left":
                    state.parent.left = fresh
                else:
                    state.parent.right = fresh
            else:
                state.parent.branches[state.slot] = fresh
        assert live.tree_.structure_signature() == twin.tree_.structure_signature()

    def test_no_resplit_below_weight_threshold(self, fitted_tree):
        rng = np.random.default_rng(5)
        Xs = np.vstack([
            rng.normal(4.0, 0.3, size=(2, 3)), rng.normal(6.0, 0.3, size=(2, 3))
        ])
        fitted_tree.partial_fit(
            Xs, ["a", "a", "b", "b"], resplit_gain=0.01, resplit_min_weight=100.0
        )
        assert fitted_tree.last_update_report_.n_resplits == 0

    def test_resplit_deepens_tree_and_improves_accuracy(self, base_data):
        X0, y0 = base_data
        model = UDTClassifier(spec=gaussian(w=0.05, s=10), max_depth=4).fit(X0, y0)
        rng = np.random.default_rng(6)
        Xs = np.vstack([
            rng.normal(4.0, 0.3, size=(20, 3)), rng.normal(6.5, 0.3, size=(20, 3))
        ])
        ys = ["a"] * 20 + ["b"] * 20
        stale_acc = model.score(Xs, ys)
        model.partial_fit(Xs, ys, resplit_gain=0.01, resplit_min_weight=4.0)
        assert model.last_update_report_.n_resplits >= 1
        assert model.score(Xs, ys) >= stale_acc
        assert model.score(Xs, ys) >= 0.9

    def test_resplit_respects_depth_budget(self, base_data):
        X0, y0 = base_data
        model = UDTClassifier(spec=gaussian(w=0.05, s=10), max_depth=3).fit(X0, y0)
        rng = np.random.default_rng(7)
        Xs = np.vstack([
            rng.normal(4.0, 0.3, size=(20, 3)), rng.normal(6.5, 0.3, size=(20, 3))
        ])
        model.partial_fit(Xs, ["a"] * 20 + ["b"] * 20,
                          resplit_gain=0.01, resplit_min_weight=4.0)

        def depth(node):
            if hasattr(node, "distribution"):
                return 0
            if node.is_numerical_test:
                return 1 + max(depth(node.left), depth(node.right))
            return 1 + max(depth(child) for child in node.branches.values())
        assert depth(model.tree_.root) <= 3


class TestResplitTrigger:
    def test_gain_matches_the_per_tuple_search(self, fitted_tree, drift_data):
        """root_split_gain searches the leaf buffer's columnar store; on the
        routed (fractional, truncated) tuples it must give exactly the gain
        of the per-tuple contexts' best split."""
        from repro.core.stats import SplitSearchStats
        from tuple_contexts import build_contexts

        X, y = drift_data
        fitted_tree.partial_fit(X, y, resplit_min_weight=1e12)
        builder = fitted_tree._make_builder()
        checked = 0
        for state in fitted_tree.tree_._stream_updater._states.values():
            local = UncertainDataset(fitted_tree.tree_.attributes, state.buffer,
                                     class_labels=fitted_tree.tree_.class_labels)
            gain = builder.root_split_gain(local)
            if gain == 0.0:
                continue
            numerical = [i for i, attribute in enumerate(local.attributes)
                         if attribute.is_numerical]
            contexts = build_contexts(local.tuples, numerical, local.class_labels)
            best = builder.strategy.find_best_split(
                contexts, builder.measure, SplitSearchStats()
            )
            class_weights = np.zeros(local.n_classes)
            for item in local.tuples:
                class_weights[local.label_index(item.label)] += item.weight
            assert gain == builder.measure.node_dispersion(class_weights) - best.dispersion
            checked += 1
        assert checked, "the drift was designed to leave a splittable leaf buffer"


class TestLineage:
    def test_partial_fit_bumps_update_generation(self, fitted_tree, stream_data):
        X, y = stream_data
        assert fitted_tree.update_generation_ == 0
        assert fitted_tree.trained_at_ is not None
        fitted_tree.partial_fit(X[:5], y[:5])
        fitted_tree.partial_fit(X[5:10], y[5:10])
        assert fitted_tree.update_generation_ == 2

    def test_refit_resets_generation(self, fitted_tree, base_data, stream_data):
        X, y = base_data
        Xs, ys = stream_data
        fitted_tree.partial_fit(Xs, ys)
        assert fitted_tree.update_generation_ == 1
        fitted_tree.fit(X, y)
        assert fitted_tree.update_generation_ == 0

    def test_partial_fit_requires_fit_first(self):
        model = UDTClassifier(spec=gaussian(w=0.05, s=10))
        with pytest.raises(Exception):
            model.partial_fit([[0.0, 0.0, 0.0]], ["a"])
