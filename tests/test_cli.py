"""Unit tests for the command-line interface (``python -m repro``)."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_accuracy_defaults(self):
        args = build_parser().parse_args(["accuracy"])
        assert args.dataset == "Iris"
        assert args.error_model == "gaussian"
        assert args.widths == [0.05, 0.10]

    def test_sensitivity_parameter_choices(self):
        args = build_parser().parse_args(["sensitivity", "--parameter", "w"])
        assert args.parameter == "w"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sensitivity", "--parameter", "x"])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestCommands:
    def test_example_command(self, capsys):
        assert main(["example"]) == 0
        output = capsys.readouterr().out
        assert "AVG" in output and "UDT" in output
        assert "0.6667" in output and "1.0000" in output

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "JapaneseVowel" in output and "Iris" in output

    def test_accuracy_command_small(self, capsys):
        code = main(
            ["accuracy", "--dataset", "Iris", "--scale", "0.3", "--samples", "6",
             "--folds", "3", "--widths", "0.1"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "AVG accuracy" in output and "Iris" in output

    def test_efficiency_command_small(self, capsys):
        code = main(
            ["efficiency", "--dataset", "Iris", "--scale", "0.25", "--samples", "8"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "UDT-ES" in output and "entropy calcs" in output

    def test_sensitivity_command_width_sweep(self, capsys):
        code = main(
            ["sensitivity", "--dataset", "Iris", "--scale", "0.25", "--samples", "8",
             "--parameter", "w"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "w" in output and "entropy calcs" in output

    def test_noise_command_small(self, capsys):
        code = main(
            ["noise", "--dataset", "Iris", "--scale", "0.3", "--samples", "6",
             "--perturbations", "0.0", "--widths", "0.0", "0.1"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "UDT accuracy" in output


@pytest.fixture
def saved_model(tmp_path):
    """A tiny fitted model archive plus matching CSV rows and expectations."""
    from repro.api import UDTClassifier
    from repro.api.spec import gaussian

    rng = np.random.default_rng(13)
    X = rng.normal(size=(40, 2))
    y = np.where(X[:, 0] + X[:, 1] > 0, "hi", "lo")
    model = UDTClassifier(spec=gaussian(w=0.1, s=6), min_split_weight=4.0).fit(X, y)
    model_path = tmp_path / "model.zip"
    model.save(model_path)
    rows = rng.normal(size=(7, 2))
    return model, model_path, rows


class TestPredictCommand:
    def _write_csv(self, path, rows, header=None):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            if header:
                writer.writerow(header)
            writer.writerows(rows)

    def test_labels_match_offline_predict(self, saved_model, tmp_path, capsys):
        model, model_path, rows = saved_model
        data = tmp_path / "rows.csv"
        self._write_csv(data, rows)
        assert main(["predict", str(model_path), str(data)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "label"
        assert lines[1:] == list(model.predict(rows))

    def test_header_row_is_skipped(self, saved_model, tmp_path, capsys):
        model, model_path, rows = saved_model
        data = tmp_path / "rows.csv"
        self._write_csv(data, rows, header=["f0", "f1"])
        assert main(["predict", str(model_path), str(data)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1:] == list(model.predict(rows))

    def test_proba_columns_match_offline(self, saved_model, tmp_path, capsys):
        model, model_path, rows = saved_model
        data = tmp_path / "rows.csv"
        self._write_csv(data, rows)
        assert main(["predict", str(model_path), str(data), "--proba"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "label,p_hi,p_lo"
        parsed = np.array(
            [[float(cell) for cell in line.split(",")[1:]] for line in lines[1:]]
        )
        # repr() round-trips doubles exactly, so the CSV carries every bit.
        assert np.array_equal(parsed, model.predict_proba(rows))

    def test_wrong_column_count_is_an_error(self, saved_model, tmp_path, capsys):
        # A 3-column CSV against a 2-feature model must fail loudly, not be
        # silently regrouped into 2-feature rows.
        _, model_path, _ = saved_model
        data = tmp_path / "rows.csv"
        self._write_csv(data, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert main(["predict", str(model_path), str(data)]) == 2
        err = capsys.readouterr().err
        assert "expects exactly 2 features" in err

    def test_non_numeric_cell_is_an_error(self, saved_model, tmp_path, capsys):
        _, model_path, _ = saved_model
        data = tmp_path / "rows.csv"
        (data).write_text("1.0,2.0\n3.0,oops\n")
        assert main(["predict", str(model_path), str(data)]) == 2
        assert "non-numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_is_an_error(self, saved_model, tmp_path, capsys, cell):
        # float() parses "nan"/"inf", so these pass the CSV numeric check —
        # but scoring them would emit garbage probabilities; exit 2 instead.
        _, model_path, _ = saved_model
        data = tmp_path / "rows.csv"
        data.write_text(f"1.0,2.0\n3.0,{cell}\n")
        assert main(["predict", str(model_path), str(data)]) == 2
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert "row 2" in err

    def test_output_file(self, saved_model, tmp_path):
        _, model_path, rows = saved_model
        data = tmp_path / "rows.csv"
        out = tmp_path / "scored.csv"
        self._write_csv(data, rows)
        assert main(
            ["predict", str(model_path), str(data), "--output", str(out)]
        ) == 0
        content = out.read_text().strip().splitlines()
        assert content[0] == "label"
        assert len(content) == 1 + len(rows)


def _edited_archive(source_path, target_path, edit) -> None:
    """Copy of an archive whose ``model.json`` payload ``edit`` changed in place."""
    import json
    import zipfile

    with zipfile.ZipFile(source_path) as source:
        members = {name: source.read(name) for name in source.namelist()}
    payload = json.loads(members["model.json"])
    edit(payload)
    members["model.json"] = json.dumps(payload)
    with zipfile.ZipFile(target_path, "w") as target:
        for name, data in members.items():
            target.writestr(name, data)


def _future_archive(source_path, target_path, version: int = 99):
    """Copy of an archive with its format_version bumped past this build's."""
    _edited_archive(
        source_path, target_path, lambda payload: payload.update(format_version=version)
    )


class TestTrainForestCommand:
    def _write_training_csv(self, path, n_rows: int = 50, header: bool = True):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(n_rows, 3))
        y = np.where(X[:, 0] - X[:, 2] > 0, "up", "down")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            if header:
                writer.writerow(["a", "b", "c", "label"])
            for row, label in zip(X, y):
                writer.writerow(list(row) + [label])
        return X, y

    def test_parser_defaults(self):
        args = build_parser().parse_args(["train-forest", "d.csv", "m.zip"])
        assert args.kind == "udt"
        assert args.trees == 11
        assert args.width == 0.1
        assert not args.no_bootstrap

    def test_trains_and_saves_a_loadable_forest(self, tmp_path, capsys):
        from repro.api import load_model
        from repro.api.persistence import read_model_metadata

        data = tmp_path / "train.csv"
        X, y = self._write_training_csv(data)
        model_path = tmp_path / "forest.zip"
        assert main(
            ["train-forest", str(data), str(model_path),
             "--trees", "3", "--samples", "6", "--seed", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "3 trees" in out and "50 rows" in out
        metadata = read_model_metadata(model_path)
        assert metadata["model_kind"] == "forest"
        assert metadata["n_trees"] == 3
        model = load_model(model_path)
        assert model.score(X, y) > 0.6

    def test_same_seed_same_saved_forest(self, tmp_path):
        from repro.api import load_model

        data = tmp_path / "train.csv"
        X, _ = self._write_training_csv(data)
        first, second = tmp_path / "a.zip", tmp_path / "b.zip"
        base = ["train-forest", str(data), "--trees", "3", "--samples", "6"]
        assert main(base[:2] + [str(first)] + base[2:]) == 0
        assert main(base[:2] + [str(second)] + base[2:]) == 0
        assert np.array_equal(
            load_model(first).predict_proba(X), load_model(second).predict_proba(X)
        )

    def test_predict_serves_the_trained_forest(self, tmp_path, capsys):
        from repro.api import load_model

        data = tmp_path / "train.csv"
        X, _ = self._write_training_csv(data)
        model_path = tmp_path / "forest.zip"
        assert main(
            ["train-forest", str(data), str(model_path), "--trees", "3",
             "--samples", "6"]
        ) == 0
        capsys.readouterr()
        rows_path = tmp_path / "rows.csv"
        with open(rows_path, "w", newline="") as handle:
            csv.writer(handle).writerows(X[:5, :].tolist())
        assert main(["predict", str(model_path), str(rows_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1:] == list(load_model(model_path).predict(X[:5]))

    def test_empty_csv_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        data.write_text("")
        assert main(["train-forest", str(data), str(tmp_path / "m.zip")]) == 2
        assert "no training rows" in capsys.readouterr().err

    def test_non_finite_cell_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        data.write_text("1.0,2.0,x\n3.0,nan,y\n")
        assert main(["train-forest", str(data), str(tmp_path / "m.zip")]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_feature_subsample_parsing(self):
        from repro.cli import _parse_feature_subsample

        # "1.0" is the documented fraction meaning *all* features — it must
        # not collapse to the integer count 1 (one feature per member).
        assert _parse_feature_subsample("1.0") == 1.0
        assert isinstance(_parse_feature_subsample("1.0"), float)
        assert _parse_feature_subsample("0.5") == 0.5
        assert _parse_feature_subsample("3") == 3
        assert isinstance(_parse_feature_subsample("3"), int)
        assert _parse_feature_subsample("sqrt") == "sqrt"
        assert _parse_feature_subsample(None) is None

    def test_bad_feature_subsample_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        self._write_training_csv(data)
        assert main(
            ["train-forest", str(data), str(tmp_path / "m.zip"),
             "--feature-subsample", "-2"]
        ) == 2
        assert "feature_subsample" in capsys.readouterr().err


class TestFormatVersionGate:
    def test_predict_exits_2_naming_both_versions(self, saved_model, tmp_path, capsys):
        from repro.api import FORMAT_VERSION

        _, model_path, rows = saved_model
        future = tmp_path / "future.zip"
        _future_archive(model_path, future, version=99)
        data = tmp_path / "rows.csv"
        with open(data, "w", newline="") as handle:
            csv.writer(handle).writerows(rows.tolist())
        assert main(["predict", str(future), str(data)]) == 2
        err = capsys.readouterr().err
        assert "format version 99" in err
        assert f"version {FORMAT_VERSION}" in err
        assert "upgrade" in err

    def test_serve_exits_2_naming_the_archive(self, saved_model, tmp_path, capsys):
        _, model_path, _ = saved_model
        models = tmp_path / "models"
        models.mkdir()
        _future_archive(model_path, models / "future.zip", version=99)
        assert main(["serve", "--models", str(models), "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert "future.zip" in err
        assert "format version 99" in err

    def test_unknown_archive_parameter_exits_2_for_predict(
        self, saved_model, tmp_path, capsys
    ):
        _, model_path, rows = saved_model
        odd = tmp_path / "odd.zip"
        _edited_archive(
            model_path, odd, lambda payload: payload["params"].update(max_leaf_nodes=8)
        )
        data = tmp_path / "rows.csv"
        with open(data, "w", newline="") as handle:
            csv.writer(handle).writerows(rows.tolist())
        assert main(["predict", str(odd), str(data)]) == 2
        err = capsys.readouterr().err
        assert "max_leaf_nodes" in err
        assert "UDTClassifier" in err

    def test_corrupt_archive_still_exits_2_for_predict(self, tmp_path, capsys):
        bad = tmp_path / "bad.zip"
        bad.write_text("not a zip")
        data = tmp_path / "rows.csv"
        data.write_text("1.0\n")
        assert main(["predict", str(bad), str(data)]) == 2
        assert "cannot load" in capsys.readouterr().err


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve", "--models", "models/"])
        assert args.models == "models/"
        assert args.port == 8000
        assert args.max_batch == 64
        assert args.max_wait_ms == 2.0
        assert args.max_queue_rows is None
        assert args.request_timeout == 30.0
        assert args.workers == 1
        assert args.cache_decimals is None
        assert args.preload is False

    def test_workers_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--models", "m", "--workers", "0"])
        args = build_parser().parse_args(["serve", "--models", "m", "--workers", "4"])
        assert args.workers == 4

    def test_overload_knobs_parse(self):
        args = build_parser().parse_args(
            ["serve", "--models", "m", "--max-queue-rows", "256",
             "--max-queue-rows-per-model", "64", "--request-timeout", "2.5"]
        )
        assert args.max_queue_rows == 256
        assert args.max_queue_rows_per_model == 64
        assert args.request_timeout == 2.5
        assert build_parser().parse_args(
            ["serve", "--models", "m"]
        ).max_queue_rows_per_model is None

    @pytest.mark.parametrize(
        "flags",
        [
            ["--request-timeout", "0"],
            ["--request-timeout", "-3"],
            ["--cache-decimals", "-1"],
            ["--max-queue-rows", "0"],
            ["--max-queue-rows-per-model", "0"],
            ["--cache-size", "-1"],
            ["--max-wait-ms", "-1"],
        ],
    )
    def test_bad_knob_values_exit_2_instead_of_starting(self, tmp_path, capsys, flags):
        # The values parse (argparse cannot know the semantics); the server
        # must refuse to start with exit code 2 and a clear message.
        assert main(["serve", "--models", str(tmp_path)] + flags) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_model_directory_exits_2(self, tmp_path, capsys):
        assert main(["serve", "--models", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_models_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_max_batch_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--models", "m", "--max-batch", "0"])


class TestRouterCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["router", "--replica", "http://127.0.0.1:8001"]
        )
        assert args.replica == ["http://127.0.0.1:8001"]
        assert args.port == 8080
        assert args.health_interval == 2.0
        assert args.up_after == 2
        assert args.down_after == 2
        assert args.fanout_trees == 32
        assert args.fanout_shards == 0
        assert args.sync_source is None
        assert args.sync_dest is None
        assert args.sync_interval == 10.0

    def test_replica_is_required_and_repeatable(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["router"])
        args = build_parser().parse_args(
            ["router", "--replica", "http://a:1", "--replica", "http://b:2"]
        )
        assert args.replica == ["http://a:1", "http://b:2"]

    def test_sync_dest_without_source_exits_2(self, tmp_path, capsys):
        assert main([
            "router", "--replica", "http://127.0.0.1:1",
            "--sync-dest", str(tmp_path),
        ]) == 2
        assert "--sync-source" in capsys.readouterr().err

    def test_missing_sync_source_exits_2(self, tmp_path, capsys):
        assert main([
            "router", "--replica", "http://127.0.0.1:1",
            "--sync-source", str(tmp_path / "nope"),
            "--sync-dest", str(tmp_path / "dest"),
        ]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_bad_fanout_trees_exits_2(self, capsys):
        assert main([
            "router", "--replica", "http://127.0.0.1:1", "--fanout-trees", "1",
        ]) == 2
        assert "fanout_trees" in capsys.readouterr().err

    def test_duplicate_replicas_exit_2(self, capsys):
        assert main([
            "router", "--replica", "http://127.0.0.1:1",
            "--replica", "http://127.0.0.1:1/",
        ]) == 2
        assert "unique" in capsys.readouterr().err
