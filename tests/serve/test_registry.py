"""Unit tests for :class:`repro.serve.registry.ModelRegistry`."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import __version__
from repro.api import FORMAT_VERSION, UDTClassifier
from repro.api.spec import gaussian
from repro.exceptions import ServingError
from repro.serve import ModelRegistry


class TestScanning:
    def test_missing_directory_fails_at_construction(self, tmp_path):
        with pytest.raises(ServingError, match="does not exist"):
            ModelRegistry(tmp_path / "nope")

    def test_names_are_file_stems(self, model_dir):
        assert ModelRegistry(model_dir).names() == ["demo"]

    def test_new_archive_appears_without_restart(self, model_dir, serving_model):
        registry = ModelRegistry(model_dir)
        assert registry.names() == ["demo"]
        serving_model.save(model_dir / "second.zip")
        assert registry.names() == ["demo", "second"]
        assert "second" in registry

    def test_deleted_archive_disappears(self, model_dir):
        registry = ModelRegistry(model_dir)
        registry.get("demo")
        (model_dir / "demo.zip").unlink()
        assert registry.names() == []
        with pytest.raises(ServingError) as excinfo:
            registry.get("demo")
        assert excinfo.value.status == 404

    def test_unknown_name_is_a_404(self, model_dir):
        with pytest.raises(ServingError) as excinfo:
            ModelRegistry(model_dir).get("missing")
        assert excinfo.value.status == 404


class TestLoading:
    def test_lazy_load(self, model_dir, serving_rows):
        registry = ModelRegistry(model_dir)
        assert registry.metadata("demo")["loaded"] is False
        model = registry.get("demo")
        assert registry.metadata("demo")["loaded"] is True
        assert model.predict_proba(serving_rows).shape == (len(serving_rows), 2)

    def test_get_is_cached(self, model_dir):
        registry = ModelRegistry(model_dir)
        assert registry.get("demo") is registry.get("demo")
        assert registry.metadata("demo")["load_count"] == 1

    def test_reload_on_mtime_change(self, model_dir, serving_rows):
        registry = ModelRegistry(model_dir)
        before = registry.get("demo")
        # Retrain on different labels and overwrite the archive in place.
        rng = np.random.default_rng(23)
        X = rng.normal(size=(40, 3))
        y = np.where(X[:, 1] > 0, "up", "down")
        retrained = UDTClassifier(spec=gaussian(w=0.1, s=6)).fit(X, y)
        retrained.save(model_dir / "demo.zip")
        _bump_mtime(model_dir / "demo.zip")
        after = registry.get("demo")
        assert after is not before
        assert sorted(after.classes_) == ["down", "up"]
        assert registry.metadata("demo")["load_count"] == 2

    def test_load_all_preloads_everything(self, model_dir, serving_model):
        serving_model.save(model_dir / "other.zip")
        registry = ModelRegistry(model_dir)
        assert registry.load_all() == ["demo", "other"]
        assert all(entry["loaded"] for entry in registry.describe())

    def test_corrupt_archive_is_a_serving_error(self, model_dir):
        (model_dir / "bad.zip").write_bytes(b"this is not a zip")
        registry = ModelRegistry(model_dir)
        with pytest.raises(ServingError) as excinfo:
            registry.get("bad")
        assert excinfo.value.status == 500

    def test_corrupt_archive_does_not_break_listing(self, model_dir):
        (model_dir / "bad.zip").write_bytes(b"this is not a zip")
        described = ModelRegistry(model_dir).describe()
        by_name = {entry["name"]: entry for entry in described}
        assert "error" in by_name["bad"]
        assert by_name["demo"]["n_features"] == 3


class TestMetadata:
    def test_metadata_fields(self, model_dir):
        meta = ModelRegistry(model_dir).metadata("demo")
        assert meta["name"] == "demo"
        assert meta["kind"] == "estimator"
        assert meta["estimator_class"] == "UDTClassifier"
        assert meta["format_version"] == FORMAT_VERSION
        assert meta["repro_version"] == __version__
        assert meta["n_features"] == 3
        assert meta["n_classes"] == 2
        assert meta["class_labels"] == ["neg", "pos"]
        assert [a["kind"] for a in meta["attributes"]] == ["numerical"] * 3

    def test_classes_are_json_scalars(self, model_dir):
        classes = ModelRegistry(model_dir).classes("demo")
        assert classes == ["neg", "pos"]
        assert all(isinstance(label, str) for label in classes)


def _bump_mtime(path) -> None:
    """Advance a file's mtime far enough that any filesystem notices."""
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10_000_000))
