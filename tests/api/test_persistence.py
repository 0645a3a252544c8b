"""Unit tests for versioned model persistence (repro.api.persistence)."""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.api import FORMAT_VERSION, gaussian, load_model, load_tree, save_model
from repro.api.persistence import tree_from_dict, tree_to_dict
from repro.core import AveragingClassifier, DecisionTree, UDTClassifier
from repro.exceptions import PersistenceError


_FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@pytest.fixture
def fitted(small_uncertain):
    return UDTClassifier().fit(small_uncertain)


def _with_params(source, target, **changes):
    """Copy of an estimator archive with ``changes`` merged into its params."""
    with zipfile.ZipFile(source) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    payload = json.loads(members["model.json"])
    payload["params"].update(changes)
    members["model.json"] = json.dumps(payload).encode("utf-8")
    with zipfile.ZipFile(target, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    return target


class TestTreeDict:
    def test_round_trip_preserves_structure(self, fitted):
        tree = fitted.tree_
        restored = DecisionTree.from_dict(tree.to_dict())
        assert restored.structure_signature() == tree.structure_signature()
        assert restored.class_labels == tree.class_labels
        assert [a.name for a in restored.attributes] == [a.name for a in tree.attributes]

    def test_dict_is_json_serialisable(self, fitted):
        payload = json.dumps(fitted.tree_.to_dict())
        restored = DecisionTree.from_dict(json.loads(payload))
        assert restored.structure_signature() == fitted.tree_.structure_signature()

    def test_version_gate(self, fitted):
        data = fitted.tree_.to_dict()
        data["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(PersistenceError):
            tree_from_dict(data)
        data["format_version"] = "not-a-version"
        with pytest.raises(PersistenceError):
            tree_from_dict(data)

    def test_unserialisable_labels_fail_loudly(self, small_uncertain):
        model = UDTClassifier().fit(small_uncertain)
        bad = DecisionTree(
            model.tree_.root, model.tree_.attributes, class_labels=(("a", "tuple"), "x")
        )
        with pytest.raises(PersistenceError):
            tree_to_dict(bad)


class TestArchives:
    def test_tree_archive_layout(self, fitted, tmp_path):
        path = tmp_path / "tree.udt"
        fitted.tree_.save(path)
        with zipfile.ZipFile(path) as archive:
            assert sorted(archive.namelist()) == ["arrays.bin", "model.json"]
            payload = json.loads(archive.read("model.json"))
        assert payload["format_version"] == FORMAT_VERSION
        assert payload["kind"] == "decision_tree"
        assert "root" not in payload  # structure lives only under tree.root
        restored = DecisionTree.load(path)
        assert restored.structure_signature() == fitted.tree_.structure_signature()

    def test_tree_archive_layout_v2(self, fitted, tmp_path):
        """``format_version=2`` keeps the legacy npz member for old readers."""
        path = tmp_path / "tree.udt"
        fitted.tree_.save(path, format_version=2)
        with zipfile.ZipFile(path) as archive:
            assert sorted(archive.namelist()) == ["arrays.npz", "model.json"]
            assert json.loads(archive.read("model.json"))["format_version"] == 2
        restored = DecisionTree.load(path)
        assert restored.structure_signature() == fitted.tree_.structure_signature()

    def test_corrupt_archive_raises(self, tmp_path):
        path = tmp_path / "broken.udt"
        path.write_bytes(b"this is not a zip")
        with pytest.raises(PersistenceError):
            load_tree(path)

    def test_load_model_rejects_bare_tree_archives(self, fitted, tmp_path):
        path = tmp_path / "tree.udt"
        fitted.tree_.save(path)
        with pytest.raises(PersistenceError):
            load_model(path)


class TestModelArchives:
    def test_unfitted_model_cannot_be_saved(self, tmp_path):
        with pytest.raises(PersistenceError):
            save_model(UDTClassifier(), tmp_path / "nope.udt")

    def test_params_and_fitted_state_survive(self, two_class_points, tmp_path):
        X = np.array([item.mean_vector() for item in two_class_points], dtype=float)
        y = [item.label for item in two_class_points]
        model = UDTClassifier(strategy="UDT-GP", spec=gaussian(w=0.1, s=8)).fit(X, y)
        path = tmp_path / "model.udt"
        model.save(path)
        loaded = load_model(path)
        assert isinstance(loaded, UDTClassifier)
        assert loaded.strategy == "UDT-GP"
        assert loaded.spec == model.spec
        assert loaded.n_features_in_ == model.n_features_in_
        assert loaded.feature_extents_ == [
            tuple(extent) for extent in model.feature_extents_
        ]
        # Array-valued predict works on the loaded model without refitting.
        assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))

    def test_loaded_model_keeps_feature_names_for_name_keyed_specs(
        self, two_class_points, tmp_path
    ):
        class NamedArray(np.ndarray):
            columns = ("mass", "volume")

        X = np.array([item.mean_vector() for item in two_class_points], dtype=float)
        y = [item.label for item in two_class_points]
        spec = {"mass": gaussian(w=0.1, s=6), "*": gaussian(w=0.1, s=6)}
        model = UDTClassifier(spec=spec).fit(X.view(NamedArray), y)
        path = tmp_path / "named.udt"
        model.save(path)
        loaded = load_model(path)
        assert loaded.feature_names_in_ == ["mass", "volume"]
        # Bare ndarrays still resolve the name-keyed spec after loading.
        assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))

    def test_averaging_round_trip(self, small_uncertain, tmp_path):
        model = AveragingClassifier().fit(small_uncertain)
        path = tmp_path / "avg.udt"
        model.save(path)
        loaded = load_model(path)
        assert isinstance(loaded, AveragingClassifier)
        assert np.array_equal(
            loaded.predict_proba(small_uncertain), model.predict_proba(small_uncertain)
        )


class TestArchiveParams:
    """Stored constructor parameters the estimator does not take."""

    def test_unknown_parameter_is_a_persistence_error(self, fitted, tmp_path):
        fitted.save(tmp_path / "model.zip")
        path = _with_params(tmp_path / "model.zip", tmp_path / "odd.zip", max_leaf_nodes=8)
        with pytest.raises(PersistenceError, match="'max_leaf_nodes'.*UDTClassifier"):
            load_model(path)

    def test_registry_reports_unknown_parameter(self, fitted, tmp_path):
        from repro.exceptions import ServingError
        from repro.serve import ModelRegistry

        models = tmp_path / "models"
        models.mkdir()
        fitted.save(tmp_path / "model.zip")
        _with_params(tmp_path / "model.zip", models / "odd.zip", max_leaf_nodes=8)
        with pytest.raises(ServingError, match="max_leaf_nodes") as excinfo:
            ModelRegistry(models).get("odd")
        assert excinfo.value.status == 500

    @pytest.mark.parametrize("engine", ["columnar", "tuples"])
    def test_stored_engine_is_dropped_on_load(self, tmp_path, engine):
        expected = json.loads((_FIXTURES / "golden_v1_expected.json").read_text())
        path = _with_params(
            _FIXTURES / "golden_v1_model.zip", tmp_path / "golden.zip", engine=engine
        )
        model = load_model(path)
        assert "engine" not in model.get_params()
        rows = np.array([[float(cell) for cell in row] for row in expected["rows"]])
        golden = np.array(
            [[float(cell) for cell in row] for row in expected["probabilities"]]
        )
        assert np.array_equal(model.predict_proba(rows), golden)


class TestLineage:
    """``trained_at`` / ``update_generation`` in archives (ISSUE 10 satellite b)."""

    def test_lineage_round_trips(self, two_class_points, tmp_path):
        from repro.api.persistence import read_model_metadata

        model = UDTClassifier().fit(two_class_points)
        assert model.update_generation_ == 0
        assert isinstance(model.trained_at_, str) and model.trained_at_.endswith("Z")
        model.partial_fit(
            [item.mean_vector() for item in two_class_points.tuples[:5]],
            [item.label for item in two_class_points.tuples[:5]],
        )
        path = tmp_path / "lineage.udt"
        model.save(path)

        metadata = read_model_metadata(path)
        assert metadata["trained_at"] == model.trained_at_
        assert metadata["update_generation"] == 1

        loaded = load_model(path)
        assert loaded.trained_at_ == model.trained_at_
        assert loaded.update_generation_ == 1

    def test_archive_without_lineage_loads_with_defaults(
        self, two_class_points, tmp_path
    ):
        """Archives from writers predating the lineage fields stay loadable."""
        from repro.api.persistence import read_model_metadata

        model = UDTClassifier().fit(two_class_points)
        path = tmp_path / "old.udt"
        model.save(path)
        stripped = tmp_path / "stripped.udt"
        with zipfile.ZipFile(path) as source, zipfile.ZipFile(stripped, "w") as out:
            for name in source.namelist():
                data = source.read(name)
                if name == "model.json":
                    payload = json.loads(data)
                    payload.pop("trained_at", None)
                    payload.pop("update_generation", None)
                    data = json.dumps(payload).encode("utf-8")
                out.writestr(name, data)

        metadata = read_model_metadata(stripped)
        assert metadata["trained_at"] is None
        assert metadata["update_generation"] == 0
        loaded = load_model(stripped)
        assert loaded.trained_at_ is None
        assert loaded.update_generation_ == 0

    def test_lineage_in_v2_archives(self, two_class_points, tmp_path):
        from repro.api.persistence import read_model_metadata

        model = UDTClassifier().fit(two_class_points)
        path = tmp_path / "v2.udt"
        model.save(path, format_version=2)
        metadata = read_model_metadata(path)
        assert metadata["trained_at"] == model.trained_at_
        assert metadata["update_generation"] == 0
