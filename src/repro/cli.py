"""Command-line interface for running the paper's experiments.

The CLI mirrors the experiment runners in :mod:`repro.eval.experiment` so a
user can regenerate any of the paper's artefacts without writing code::

    python -m repro example                      # Table 1 / Figs. 2-3 walkthrough
    python -m repro accuracy --dataset Iris      # Table 3 rows for one dataset
    python -m repro noise --dataset Segment      # Fig. 4 curves
    python -m repro efficiency --dataset Glass   # Figs. 6-7 per-algorithm costs
    python -m repro sensitivity --dataset Glass --parameter s   # Fig. 8 / Fig. 9
    python -m repro datasets                     # list the Table 2 stand-ins

Every experiment command accepts ``--scale`` and ``--samples`` to trade
fidelity for speed (the defaults finish in seconds).

Beyond the paper's experiments, the CLI fronts the production side of the
library::

    python -m repro train-forest data.csv forest.zip --trees 15   # bagging
    python -m repro predict model.zip data.csv --proba   # offline scoring
    python -m repro serve --models models/ --port 8000   # HTTP model server
    python -m repro router --replica http://127.0.0.1:8001 \
        --replica http://127.0.0.1:8002 --port 8080      # routing front tier
    python -m repro loadgen --url http://127.0.0.1:8000 --shape spike \
        --slo budgets.json --output BENCH_loadgen.json   # open-loop load + SLO gate
    python -m repro stream-train seed.zip --feed feed/ \
        --publish models/ --interval 2                   # continuous trainer
    python -m repro trace <trace-id> --target http://127.0.0.1:8080 \
        --target http://127.0.0.1:8001                   # join + print one trace tree

``predict`` and ``serve`` accept both single-tree and forest archives; an
archive written by a *newer* library (format version above this build's)
exits with status 2 and a message naming both versions.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Sequence

from repro import __version__
from repro.core import AveragingClassifier, UDTClassifier
from repro.data import table1_dataset
from repro.eval import (
    AccuracyExperiment,
    EfficiencyExperiment,
    NoiseModelExperiment,
    SensitivityExperiment,
    format_accuracy_results,
    format_efficiency_results,
    format_noise_model_results,
    format_sensitivity_results,
    format_table,
)
from repro.data.uci import TABLE2_DATASETS
from repro.obs.log import LOG_FORMATS, LOG_LEVELS

__all__ = ["build_parser", "main"]


def _positive_int(value: str) -> int:
    """argparse type for worker counts: an integer of at least 1."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {number}")
    return number


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from 'Decision Trees for Uncertain Data'.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(
        sub: argparse.ArgumentParser, default_scale: float = 0.25, jobs: bool = True
    ) -> None:
        sub.add_argument("--dataset", default="Iris", help="Table 2 dataset stand-in name")
        sub.add_argument("--scale", type=float, default=default_scale,
                         help="tuple-count scale factor (1.0 = paper-size)")
        sub.add_argument("--samples", type=int, default=30,
                         help="pdf sample count s (paper uses 100)")
        sub.add_argument("--seed", type=int, default=0, help="random seed")
        if jobs:
            sub.add_argument("--jobs", type=_positive_int, default=1,
                             help="worker count: cross-validation folds run in parallel "
                                  "processes; very large pdf stores additionally build "
                                  "per-attribute split contexts in parallel threads "
                                  "(1 = sequential)")

    def add_obs_flags(sub: argparse.ArgumentParser, *, tracing: bool = True) -> None:
        """The observability knobs shared by the serving-side commands."""
        if tracing:
            sub.add_argument("--trace-sample-rate", type=float, default=0.0,
                             metavar="RATE",
                             help="trace this fraction of requests arriving without "
                                  "an upstream trace context (0 disables minting; "
                                  "propagated sampled traces are always recorded)")
            sub.add_argument("--trace-slow-ms", type=float, default=None, metavar="MS",
                             help="also keep the trace of any request slower than "
                                  "this threshold, sampled or not")
            sub.add_argument("--trace-buffer", type=_positive_int, default=2048,
                             metavar="SPANS",
                             help="spans kept in the in-process /debug/traces ring")
            sub.add_argument("--trace-export", default=None, metavar="PATH",
                             help="append every committed span to this JSONL file")
        sub.add_argument("--log-level", choices=LOG_LEVELS, default=None,
                         help="emit structured logs at this level (unset: quiet)")
        sub.add_argument("--log-format", choices=LOG_FORMATS, default=None,
                         help="structured log encoding (default json; implies "
                              "--log-level info when only this is given)")

    subparsers.add_parser("example", help="run the Table 1 handcrafted example")
    subparsers.add_parser("datasets", help="list the Table 2 dataset stand-ins")

    accuracy = subparsers.add_parser("accuracy", help="Table 3: AVG vs UDT accuracy")
    add_common(accuracy)
    accuracy.add_argument("--widths", type=float, nargs="+", default=[0.05, 0.10],
                          help="pdf widths w (fractions of the attribute range)")
    accuracy.add_argument("--error-model", choices=("gaussian", "uniform"), default="gaussian")
    accuracy.add_argument("--folds", type=int, default=3)

    noise = subparsers.add_parser("noise", help="Fig. 4: controlled-noise study")
    add_common(noise, default_scale=0.1)
    noise.add_argument("--perturbations", type=float, nargs="+", default=[0.0, 0.05, 0.10])
    noise.add_argument("--widths", type=float, nargs="+", default=[0.0, 0.05, 0.10, 0.20])

    efficiency = subparsers.add_parser("efficiency", help="Figs. 6-7: per-algorithm cost")
    add_common(efficiency)
    efficiency.add_argument("--width", type=float, default=0.10, help="pdf width w")

    # The sensitivity sweeps time individual sequential builds, so a worker
    # count would either be ignored or corrupt the measurement — no --jobs.
    sensitivity = subparsers.add_parser("sensitivity", help="Figs. 8-9: effect of s or w")
    add_common(sensitivity, jobs=False)
    sensitivity.add_argument("--parameter", choices=("s", "w"), default="s")

    train_forest = subparsers.add_parser(
        "train-forest",
        help="train a bagged forest of uncertain trees on a CSV and save it",
    )
    train_forest.add_argument(
        "data",
        help="CSV of training rows: feature columns then the class label in "
             "the last column (a non-numeric first row is a header and is "
             "skipped)",
    )
    train_forest.add_argument("model", help="output path of the model .zip archive")
    train_forest.add_argument("--kind", choices=("udt", "avg"), default="udt",
                              help="member trees: distribution-based (udt) or "
                                   "the mean-collapsing baseline (avg)")
    train_forest.add_argument("--trees", type=_positive_int, default=11,
                              help="ensemble size (number of member trees)")
    train_forest.add_argument("--width", type=float, default=0.1,
                              help="Gaussian pdf width w as a fraction of each "
                                   "attribute's range (0 = certain point data)")
    train_forest.add_argument("--samples", type=int, default=30,
                              help="pdf sample count s (paper uses 100)")
    train_forest.add_argument("--max-depth", type=int, default=None,
                              help="depth bound of every member tree")
    train_forest.add_argument("--feature-subsample", default=None,
                              help="features per member: 'sqrt', a fraction in "
                                   "(0, 1], or an integer count (default: all)")
    train_forest.add_argument("--no-bootstrap", action="store_true",
                              help="train every member on the full dataset "
                                   "instead of a bootstrap resample")
    train_forest.add_argument("--seed", type=int, default=0,
                              help="random_state: same seed, same forest")
    train_forest.add_argument("--jobs", type=_positive_int, default=1,
                              help="worker processes for member training "
                                   "(results are identical to --jobs 1)")
    train_forest.add_argument("--format-version", type=int, default=None,
                              choices=(2, 3), metavar="{2,3}",
                              help="persistence format of the saved archive: "
                                   "3 (default) stores an mmap-able array "
                                   "block, 2 writes arrays.npz for older "
                                   "deployments")

    predict = subparsers.add_parser(
        "predict", help="offline scoring: apply a saved model to a CSV of rows"
    )
    predict.add_argument("model", help="path to a model .zip saved with model.save()")
    predict.add_argument("data", help="CSV of feature rows (a non-numeric first row "
                                      "is treated as a header and skipped)")
    predict.add_argument("--proba", action="store_true",
                         help="emit per-class probabilities besides the labels")
    predict.add_argument("--output", default=None,
                         help="write the CSV result here instead of stdout")

    serve = subparsers.add_parser(
        "serve", help="HTTP model server with micro-batched inference"
    )
    serve.add_argument("--models", required=True,
                       help="directory of model .zip archives (file stem = model name)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="listening port (0 binds an ephemeral port)")
    serve.add_argument("--max-batch", type=_positive_int, default=64,
                       help="rows per coalesced predict_batch call")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="upper bound on how long the coalescer lingers for "
                            "more requests; it lingers only while other "
                            "requests are being admitted, so a lone request "
                            "is answered at once")
    serve.add_argument("--max-queue-rows", type=int, default=None,
                       help="admission-control bound on queued rows; beyond it new "
                            "requests are rejected with HTTP 429 + Retry-After "
                            "(default: 8 x max-batch)")
    serve.add_argument("--max-queue-rows-per-model", type=int, default=None,
                       help="per-model admission quota on queued rows, so one "
                            "hot model cannot starve the others' admission "
                            "budget (default: half of max-queue-rows)")
    serve.add_argument("--request-timeout", type=float, default=30.0, metavar="SECONDS",
                       help="per-request inference deadline; a request that "
                            "exceeds it is answered 504 and, if still queued, "
                            "cancelled so its rows are never classified")
    serve.add_argument("--workers", type=_positive_int, default=1,
                       help="shard coalesced batches across N model-serving "
                            "processes (1 = the in-process engine; outputs are "
                            "bit-identical either way)")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="LRU prediction-cache entries per model (0 disables)")
    serve.add_argument("--cache-decimals", type=int, default=None,
                       help="round cache keys to this many decimals instead of "
                            "exact feature bytes (absorbs sub-ulp client jitter)")
    serve.add_argument("--preload", action="store_true",
                       help="load every model at startup instead of on first request")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    add_obs_flags(serve)

    router = subparsers.add_parser(
        "router",
        help="routing front tier over serving replicas: health checks, "
             "consistent-hash model routing, registry sync, drain-on-deploy",
    )
    router.add_argument("--replica", action="append", required=True, metavar="URL",
                        help="base URL of one serving replica (repeatable)")
    router.add_argument("--host", default="127.0.0.1")
    router.add_argument("--port", type=int, default=8080,
                        help="listening port (0 binds an ephemeral port)")
    router.add_argument("--health-interval", type=float, default=2.0, metavar="SECONDS",
                        help="period of the /healthz poll over the replicas")
    router.add_argument("--health-timeout", type=float, default=1.0, metavar="SECONDS",
                        help="per-probe timeout")
    router.add_argument("--up-after", type=_positive_int, default=2,
                        help="consecutive successful probes before a down "
                             "replica rejoins the ring")
    router.add_argument("--down-after", type=_positive_int, default=2,
                        help="consecutive failed probes before a healthy "
                             "replica leaves the ring")
    router.add_argument("--fanout-trees", type=int, default=32, metavar="N",
                        help="forest models with at least N member trees are "
                             "sharded across replicas and reduced at the "
                             "router (results stay bit-identical)")
    router.add_argument("--fanout-shards", type=int, default=0, metavar="N",
                        help="shard a fanned-out forest across at most N "
                             "replicas (0 = every in-service replica)")
    router.add_argument("--timeout", type=float, default=30.0, metavar="SECONDS",
                        help="per-request timeout on upstream replica calls")
    router.add_argument("--sync-source", default=None, metavar="DIR",
                        help="source-of-truth directory of model archives to "
                             "replicate into each --sync-dest")
    router.add_argument("--sync-dest", action="append", default=None, metavar="DIR",
                        help="one replica's model directory to keep in sync "
                             "(repeatable; requires --sync-source)")
    router.add_argument("--sync-interval", type=float, default=10.0, metavar="SECONDS",
                        help="period of the background registry sync loop "
                             "(0 syncs once at startup only)")
    router.add_argument("--verbose", action="store_true",
                        help="log every HTTP request to stderr")
    add_obs_flags(router)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="open-loop load generation against a running serve instance, "
             "with optional SLO gating",
    )
    loadgen.add_argument("--url", default="http://127.0.0.1:8000",
                         help="base URL of the serving instance to drive")
    loadgen.add_argument("--shape", action="append", default=None, metavar="NAME",
                         help="traffic shape to run (repeatable; default: steady); "
                              "one of: steady, spike, diurnal, hotkey, drift")
    loadgen.add_argument("--rate", type=float, default=30.0,
                         help="base arrival rate in requests/second (shapes "
                              "multiply it over time)")
    loadgen.add_argument("--duration", type=float, default=5.0, metavar="SECONDS",
                         help="length of each shape's run")
    loadgen.add_argument("--users", type=_positive_int, default=8,
                         help="concurrent user threads executing the schedule")
    loadgen.add_argument("--spawn-rate", type=float, default=None, metavar="PER_SECOND",
                         help="ramp users in at N users/second instead of all at once")
    loadgen.add_argument("--think-time", type=float, default=0.0, metavar="SECONDS",
                         help="mean exponential pause per user between requests")
    loadgen.add_argument("--timeout", type=float, default=10.0, metavar="SECONDS",
                         help="per-request client timeout")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="fixes the arrival schedule, model picks and rows")
    loadgen.add_argument("--model", action="append", default=None, metavar="NAME",
                         help="restrict traffic to these models (repeatable; "
                              "default: every model the server lists)")
    loadgen.add_argument("--slo", default=None, metavar="BUDGETS_JSON",
                         help="per-shape SLO budgets file; any violated budget "
                              "makes the command exit 1")
    loadgen.add_argument("--output", default=None, metavar="PATH",
                         help="write the BENCH_loadgen.json artifact here")
    loadgen.add_argument("--trace-sample-rate", type=float, default=0.0, metavar="RATE",
                         help="mint a sampled trace id on this fraction of requests; "
                              "the ids land in the report for joining against the "
                              "servers' /debug/traces buffers")
    add_obs_flags(loadgen, tracing=False)

    stream_train = subparsers.add_parser(
        "stream-train",
        help="continuous trainer: tail a feed directory of labelled rows, "
             "apply incremental updates to a saved model, and atomically "
             "publish fresh snapshots into a serving model directory",
    )
    stream_train.add_argument(
        "model",
        help="seed model .zip archive to update incrementally (single tree "
             "or forest; must already be fitted)",
    )
    stream_train.add_argument("--feed", required=True, metavar="DIR",
                              help="feed directory of append-only *.csv "
                                   "(features..., label) or *.jsonl "
                                   "({\"features\": [...], \"label\": ...}) files")
    stream_train.add_argument("--publish", required=True, metavar="DIR",
                              help="model directory to publish snapshots into — "
                                   "point it at a replica's --models dir (or a "
                                   "router's --sync-source) for hot reload")
    stream_train.add_argument("--name", default=None,
                              help="published model name (default: the seed "
                                   "archive's file stem)")
    stream_train.add_argument("--interval", type=float, default=2.0,
                              metavar="SECONDS",
                              help="cadence of the poll/update/publish cycle")
    stream_train.add_argument("--iterations", type=int, default=0, metavar="N",
                              help="stop after N cycles (0 = run until "
                                   "interrupted)")
    stream_train.add_argument("--min-batch", type=_positive_int, default=1,
                              help="buffer feed rows until at least this many "
                                   "are pending before applying an update")
    stream_train.add_argument("--resplit-gain", type=float, default=0.01,
                              metavar="GAIN",
                              help="entropy-gain threshold above which a leaf's "
                                   "accumulated tuples trigger a local re-split")
    stream_train.add_argument("--resplit-min-weight", type=float, default=8.0,
                              metavar="WEIGHT",
                              help="minimum accumulated tuple weight before a "
                                   "leaf is considered for re-splitting")
    stream_train.add_argument("--refresh-every", type=int, default=0, metavar="N",
                              help="after every N applied updates, retrain the "
                                   "worst-scoring forest members on the recent "
                                   "window (0 disables; forests only)")
    stream_train.add_argument("--refresh-fraction", type=float, default=0.25,
                              help="fraction of forest members each refresh "
                                   "retrains (the worst-scoring ones)")
    stream_train.add_argument("--reservoir", type=_positive_int, default=4096,
                              metavar="ROWS",
                              help="recent-window tuples kept for member "
                                   "refreshes (forests only)")
    stream_train.add_argument("--format-version", type=int, default=None,
                              choices=(2, 3), metavar="{2,3}",
                              help="persistence format of published snapshots")
    add_obs_flags(stream_train)

    trace = subparsers.add_parser(
        "trace",
        help="fetch /debug/traces from routers/replicas, join the buffers on "
             "trace id, and pretty-print span trees",
    )
    trace.add_argument("trace_id", nargs="?", default=None,
                       help="print this trace's joined span tree "
                            "(omit to list recent traces instead)")
    trace.add_argument("--target", action="append", required=True, metavar="URL",
                       help="base URL of one router or replica whose "
                            "/debug/traces to fetch (repeatable)")
    trace.add_argument("--model", default=None,
                       help="only traces touching this model")
    trace.add_argument("--min-ms", type=float, default=None, metavar="MS",
                       help="only traces at least this long")
    trace.add_argument("--limit", type=_positive_int, default=20,
                       help="most recent traces to list per target")
    trace.add_argument("--timeout", type=float, default=5.0, metavar="SECONDS",
                       help="per-target fetch timeout")

    return parser


def _read_csv_rows(path: str) -> list:
    """Feature rows of a CSV file; a non-numeric first row is a header."""
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        return []

    def numeric(row: list) -> bool:
        try:
            [float(cell) for cell in row]
            return True
        except ValueError:
            return False

    if not numeric(rows[0]):
        rows = rows[1:]
    return [[float(cell) for cell in row] for row in rows]


def _parse_feature_subsample(value):
    """CLI encoding of the forest's feature_subsample knob.

    Integer literals ("3") are counts; anything with a decimal point
    ("1.0", "0.5") stays a fraction — so "--feature-subsample 1.0" means
    all features, exactly like feature_subsample=1.0 in the Python API.
    """
    if value is None or value == "sqrt":
        return value
    try:
        return int(value)
    except ValueError:
        return float(value)


def _read_labelled_csv(path: str) -> tuple:
    """``(X, y)`` from a CSV whose last column is the class label.

    A first row whose feature cells are not all numeric is treated as a
    header and skipped; labels are kept as strings.
    """
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        return [], []

    def numeric_features(row: list) -> bool:
        try:
            [float(cell) for cell in row[:-1]]
            return True
        except ValueError:
            return False

    if not numeric_features(rows[0]):
        rows = rows[1:]
    if any(len(row) < 2 for row in rows):
        raise ValueError("every row needs at least one feature and a label")
    X = [[float(cell) for cell in row[:-1]] for row in rows]
    y = [row[-1] for row in rows]
    return X, y


def _run_train_forest(args) -> int:
    import numpy as np

    from repro.api.spec import first_non_finite_row, gaussian, point
    from repro.ensemble import AveragingForestClassifier, UDTForestClassifier
    from repro.exceptions import ReproError

    try:
        X, y = _read_labelled_csv(args.data)
    except ValueError as exc:
        print(f"error: cannot read {args.data}: {exc}", file=sys.stderr)
        return 2
    if not X:
        print(f"error: {args.data} contains no training rows", file=sys.stderr)
        return 2
    matrix = np.asarray(X, dtype=float)
    bad_row = first_non_finite_row(matrix)
    if bad_row is not None:
        print(
            f"error: {args.data} contains a non-finite feature value (NaN or "
            f"Inf) in data row {bad_row + 1}; clean the input before training",
            file=sys.stderr,
        )
        return 2
    forest_class = UDTForestClassifier if args.kind == "udt" else AveragingForestClassifier
    spec = gaussian(w=args.width, s=args.samples) if args.width > 0 else point()
    try:
        model = forest_class(
            n_estimators=args.trees,
            spec=spec,
            max_depth=args.max_depth,
            n_jobs=args.jobs,
            random_state=args.seed,
            bootstrap=not args.no_bootstrap,
            feature_subsample=_parse_feature_subsample(args.feature_subsample),
        ).fit(matrix, y)
        model.save(args.model, format_version=args.format_version)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"trained {args.kind} forest of {model.n_trees_} trees on "
        f"{len(matrix)} rows x {model.n_features_in_} features "
        f"(classes: {', '.join(str(label) for label in model.classes_)}); "
        f"saved to {args.model}"
    )
    return 0


def _run_predict(args) -> int:
    import numpy as np

    from repro.api import load_model
    from repro.api.spec import first_non_finite_row
    from repro.exceptions import PersistenceError

    try:
        model = load_model(args.model)
    except PersistenceError as exc:
        # Covers corrupt archives and — via FormatVersionError's message,
        # which names the archive's version and the library version
        # required — models written by a newer library.  Exit 2, no
        # traceback.
        print(f"error: cannot load {args.model}: {exc}", file=sys.stderr)
        return 2
    try:
        rows = _read_csv_rows(args.data)
    except ValueError as exc:
        print(f"error: {args.data} contains a non-numeric cell: {exc}", file=sys.stderr)
        return 2
    classes = [
        label.item() if hasattr(label, "item") else label for label in model.classes_
    ]
    n_features = len(model.feature_names_in_)
    widths = {len(row) for row in rows}
    if widths and widths != {n_features}:
        print(
            f"error: {args.data} has rows of {sorted(widths)} columns but the "
            f"model expects exactly {n_features} features per row",
            file=sys.stderr,
        )
        return 2
    matrix = np.asarray(rows, dtype=float).reshape(-1, n_features)
    bad_row = first_non_finite_row(matrix)
    if bad_row is not None:
        # Same rule the server enforces before enqueueing: NaN/Inf features
        # would silently turn into garbage probabilities.
        print(
            f"error: {args.data} contains a non-finite feature value (NaN or "
            f"Inf) in data row {bad_row + 1}; clean the input before scoring",
            file=sys.stderr,
        )
        return 2
    probabilities = model.predict_proba(matrix)
    labels = [classes[index] for index in np.argmax(probabilities, axis=1)]

    handle = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.writer(handle)
        if args.proba:
            writer.writerow(["label"] + [f"p_{label}" for label in classes])
            for label, distribution in zip(labels, probabilities):
                writer.writerow([label] + [repr(float(p)) for p in distribution])
        else:
            writer.writerow(["label"])
            for label in labels:
                writer.writerow([label])
    finally:
        if args.output:
            handle.close()
    return 0


def _check_archive_versions(models_dir) -> "str | None":
    """Error message if any archive needs a newer library, else ``None``.

    Runs before the server binds: serving a directory with an archive this
    build cannot ever load should fail loudly at startup (exit 2, naming
    the archive and both versions), not 500 on its first request.
    """
    from pathlib import Path

    from repro.api.persistence import read_model_metadata
    from repro.exceptions import FormatVersionError, PersistenceError

    directory = Path(models_dir)
    if not directory.is_dir():
        return None  # create_server reports missing directories itself
    for path in sorted(directory.glob("*.zip")):
        try:
            read_model_metadata(path)
        except FormatVersionError as exc:
            return f"cannot serve {path.name}: {exc}"
        except PersistenceError:
            # Other damage (corrupt zip, bad JSON) keeps the current
            # behaviour: the registry lists the error and healthy
            # neighbours still serve.
            continue
    return None


def _configure_obs_logging(args) -> None:
    """Turn structured logging on when either ``--log-*`` flag was given."""
    if args.log_level is None and args.log_format is None:
        return
    from repro.obs.log import configure_logging

    configure_logging(args.log_level or "info", args.log_format or "json")


def _shutdown_on_sigterm() -> None:
    """Route SIGTERM through the KeyboardInterrupt shutdown path.

    `kill <pid>` is the documented way to stop a background server, but the
    default SIGTERM action skips ``finally`` blocks and finalizers — which
    would leak the shared-memory segments the serving registry publishes
    for its worker pool.  Raising KeyboardInterrupt instead lets
    ``server.close()`` unlink them exactly like Ctrl-C does.
    """
    import signal

    def _handler(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _handler)
    except ValueError:
        pass  # not the main thread (embedded use); keep the default action


def _run_serve(args) -> int:
    from repro.exceptions import ServingError
    from repro.serve import create_server

    _configure_obs_logging(args)
    version_error = _check_archive_versions(args.models)
    if version_error is not None:
        print(f"error: {version_error}", file=sys.stderr)
        return 2
    try:
        server = create_server(
            args.models,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_queue_rows=args.max_queue_rows,
            max_queue_rows_per_model=args.max_queue_rows_per_model,
            cache_size=args.cache_size,
            cache_decimals=args.cache_decimals,
            request_timeout_s=args.request_timeout,
            workers=args.workers,
            preload=args.preload,
            verbose=args.verbose,
            trace_sample_rate=args.trace_sample_rate,
            trace_slow_ms=args.trace_slow_ms,
            trace_buffer=args.trace_buffer,
            trace_export=args.trace_export,
        )
    except ServingError as exc:
        # Bad knob values (request-timeout <= 0, negative cache sizes, a
        # missing model directory, ...) must fail loudly at startup, not
        # start a server that 504s or crashes on its first request.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = server.registry.names()
    print(f"serving {len(names)} model(s) on {server.url}", flush=True)
    for name in names:
        print(f"  - {name}", flush=True)
    _shutdown_on_sigterm()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _run_router(args) -> int:
    from repro.exceptions import ServingError
    from repro.router import create_router

    _configure_obs_logging(args)
    if args.sync_dest and not args.sync_source:
        print("error: --sync-dest requires --sync-source", file=sys.stderr)
        return 2
    try:
        server = create_router(
            args.replica,
            host=args.host,
            port=args.port,
            health_interval_s=args.health_interval,
            health_timeout_s=args.health_timeout,
            up_after=args.up_after,
            down_after=args.down_after,
            fanout_trees=args.fanout_trees,
            fanout_shards=args.fanout_shards,
            upstream_timeout_s=args.timeout,
            sync_source=args.sync_source,
            sync_dests=args.sync_dest or (),
            sync_interval_s=args.sync_interval,
            verbose=args.verbose,
            trace_sample_rate=args.trace_sample_rate,
            trace_slow_ms=args.trace_slow_ms,
            trace_buffer=args.trace_buffer,
            trace_export=args.trace_export,
        )
    except (ServingError, ValueError) as exc:
        # Bad knob values and an unreadable sync source must fail loudly at
        # startup, exactly like `repro serve` does.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    topology = server.router.describe()
    in_service = topology["ring_size"]
    print(
        f"routing {len(args.replica)} replica(s) ({in_service} in service) "
        f"on {server.url}",
        flush=True,
    )
    for state in topology["replicas"]:
        verdict = "up" if state["healthy"] else "down"
        print(f"  - {state['url']} [{verdict}]", flush=True)
    _shutdown_on_sigterm()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _run_loadgen(args) -> int:
    from repro.exceptions import ReproError, ServingError
    from repro.loadgen import (
        SHAPE_NAMES,
        LoadGenerator,
        check_slo,
        load_budgets,
        make_shape,
        summarize,
        write_loadgen_report,
    )

    _configure_obs_logging(args)
    shape_names = args.shape or ["steady"]
    try:
        shapes = [make_shape(name) for name in shape_names]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    budgets = None
    if args.slo is not None:
        try:
            budgets = load_budgets(args.slo)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        unknown = set(budgets) - set(SHAPE_NAMES) - {"*"}
        if unknown:
            print(f"error: SLO budgets name unknown shape(s) {sorted(unknown)}",
                  file=sys.stderr)
            return 2
    if args.rate <= 0 or args.duration <= 0:
        print("error: --rate and --duration must be positive", file=sys.stderr)
        return 2

    try:
        generator = LoadGenerator(
            args.url,
            users=args.users,
            spawn_rate=args.spawn_rate,
            think_time_s=args.think_time,
            timeout_s=args.timeout,
            seed=args.seed,
            trace_sample_rate=args.trace_sample_rate,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    records = []
    for shape in shapes:
        print(f"running shape {shape.name!r}: rate={args.rate:g} rps, "
              f"duration={args.duration:g}s, users={args.users}", flush=True)
        try:
            run = generator.run(
                shape, rate=args.rate, duration_s=args.duration, models=args.model
            )
        except ServingError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        records.append(summarize(run))

    rows = [
        (
            record["shape"],
            f"{record['offered_rate']:.1f}",
            f"{record['achieved_rate']:.1f}",
            f"{record['latency_ms']['p50']:.1f}",
            f"{record['latency_ms']['p95']:.1f}",
            f"{record['latency_ms']['p99']:.1f}",
            f"{record['rate_429']:.3f}",
            f"{record['error_rate']:.3f}",
        )
        for record in records
    ]
    print(format_table(
        ("shape", "offered/s", "achieved/s", "p50 ms", "p95 ms", "p99 ms",
         "429 rate", "error rate"),
        rows,
    ))

    n_sampled = sum(record["traces"]["n_sampled"] for record in records)
    if n_sampled:
        print(f"sampled {n_sampled} trace id(s); worth chasing:", flush=True)
        for record in records:
            for sample in record["traces"]["samples"][:3]:
                print(
                    f"  - {sample['trace_id']}  shape={record['shape']} "
                    f"model={sample['model']} status={sample['status']} "
                    f"{sample['latency_ms']:.1f} ms",
                    flush=True,
                )

    if args.output is not None:
        path = write_loadgen_report(
            records,
            args.output,
            params={
                "url": args.url,
                "rate": args.rate,
                "duration_s": args.duration,
                "users": args.users,
                "spawn_rate": args.spawn_rate,
                "think_time_s": args.think_time,
                "seed": args.seed,
                "shapes": shape_names,
                "trace_sample_rate": args.trace_sample_rate,
            },
        )
        print(f"wrote {path}", flush=True)

    if budgets is not None:
        violations = check_slo(records, budgets)
        if violations:
            for violation in violations:
                print(f"SLO VIOLATION: {violation}", file=sys.stderr)
            return 1
        print(f"SLO check passed for {len(records)} shape(s)", flush=True)
    return 0


def _run_stream_train(args) -> int:
    from pathlib import Path

    from repro.api import load_model
    from repro.exceptions import PersistenceError, ReproError
    from repro.stream import ContinuousTrainer, FeedTailer

    _configure_obs_logging(args)
    try:
        model = load_model(args.model)
    except PersistenceError as exc:
        print(f"error: cannot load {args.model}: {exc}", file=sys.stderr)
        return 2

    # Trainer cycles are always-sampled spans; without an export sink (the
    # trainer runs no HTTP surface to expose /debug/traces) tracing would
    # buffer invisibly, so a Tracer is only built when --trace-export asks
    # for one.
    tracer = None
    if args.trace_export is not None:
        from repro.obs import Tracer

        tracer = Tracer(
            "stream-train",
            slow_ms=args.trace_slow_ms,
            buffer_size=args.trace_buffer,
            export_path=args.trace_export,
        )

    name = args.name or Path(args.model).stem
    try:
        trainer = ContinuousTrainer(
            model,
            FeedTailer(args.feed),
            args.publish,
            name,
            interval_s=args.interval,
            min_batch=args.min_batch,
            refresh_every=args.refresh_every,
            refresh_fraction=args.refresh_fraction,
            resplit_gain=args.resplit_gain,
            resplit_min_weight=args.resplit_min_weight,
            reservoir_size=args.reservoir,
            format_version=args.format_version,
            tracer=tracer,
        )
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(
        f"stream-training {name!r}: feed={args.feed} publish={args.publish} "
        f"interval={args.interval:g}s", flush=True
    )

    def on_cycle(result) -> None:
        state = "published" if result.published else "idle"
        print(
            f"cycle {result.cycle}: rows={result.rows} "
            f"updated={'yes' if result.updated else 'no'} "
            f"refreshed={result.refreshed or '-'} {state} "
            f"gen={result.generation} ({result.duration_s * 1000.0:.1f} ms)",
            flush=True,
        )

    _shutdown_on_sigterm()
    try:
        trainer.run(
            iterations=None if args.iterations == 0 else args.iterations,
            on_cycle=on_cycle,
        )
    except KeyboardInterrupt:
        pass
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = trainer.describe()
    print(
        f"stopped after {summary['cycles']} cycle(s): "
        f"{summary['rows_ingested']} row(s) ingested, "
        f"{summary['updates_applied']} update(s), "
        f"{summary['publications']} snapshot(s) published", flush=True
    )
    return 0


def _run_trace(args) -> int:
    """Join ``/debug/traces`` across targets; list traces or print one tree."""
    import json
    import time as time_module
    import urllib.error
    import urllib.parse
    import urllib.request

    from repro.obs.trace import format_trace_tree

    params: "dict[str, str]" = {"limit": str(args.limit)}
    if args.trace_id:
        params["trace_id"] = args.trace_id
    if args.model:
        params["model"] = args.model
    if args.min_ms is not None:
        params["min_ms"] = str(args.min_ms)
    query = urllib.parse.urlencode(params)

    merged: "dict[str, dict]" = {}
    reached = 0
    for target in args.target:
        url = f"{target.rstrip('/')}/debug/traces?{query}"
        try:
            with urllib.request.urlopen(url, timeout=args.timeout) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"warning: cannot fetch {url}: {exc}", file=sys.stderr)
            continue
        reached += 1
        for entry in payload.get("traces", []):
            known = merged.get(entry["trace_id"])
            if known is None:
                merged[entry["trace_id"]] = {
                    "trace_id": entry["trace_id"],
                    "start_s": entry["start_s"],
                    "duration_ms": entry["duration_ms"],
                    "spans": {
                        span["span_id"]: span for span in entry["spans"]
                    },
                }
                continue
            known["start_s"] = min(known["start_s"], entry["start_s"])
            known["duration_ms"] = max(known["duration_ms"], entry["duration_ms"])
            for span in entry["spans"]:
                known["spans"].setdefault(span["span_id"], span)
    if reached == 0:
        print("error: no target answered /debug/traces", file=sys.stderr)
        return 2

    if args.trace_id:
        entry = merged.get(args.trace_id)
        if entry is None:
            print(
                f"error: trace {args.trace_id!r} not found on any target "
                f"(buffers are bounded rings — it may have been evicted)",
                file=sys.stderr,
            )
            return 1
        print(f"trace {entry['trace_id']}  ({len(entry['spans'])} spans)")
        print(format_trace_tree(entry["spans"].values()))
        return 0

    if not merged:
        print("no traces buffered on the targets (is tracing sampled on?)")
        return 0
    entries = sorted(merged.values(), key=lambda e: e["start_s"], reverse=True)
    rows = []
    for entry in entries[: args.limit]:
        spans = list(entry["spans"].values())
        services = sorted({span.get("service", "?") for span in spans})
        models = sorted(
            {span["model"] for span in spans if span.get("model")}
        )
        started = time_module.strftime(
            "%H:%M:%S", time_module.localtime(entry["start_s"])
        )
        rows.append(
            (
                entry["trace_id"],
                started,
                f"{entry['duration_ms']:.1f}",
                len(spans),
                ",".join(services),
                ",".join(models) or "-",
            )
        )
    print(format_table(
        ("trace id", "start", "ms", "spans", "services", "models"), rows
    ))
    return 0


def _run_example() -> None:
    data = table1_dataset()
    avg = AveragingClassifier().fit(data)
    udt = UDTClassifier(strategy="UDT", post_prune=False, min_split_weight=1e-6).fit(data)
    print("Table 1 example — accuracy on the six training tuples")
    print(format_table(
        ("classifier", "accuracy", "paper"),
        [("AVG", f"{avg.score(data):.4f}", "2/3"), ("UDT", f"{udt.score(data):.4f}", "1.0")],
    ))
    print("\nDistribution-based tree:")
    print(udt.tree_.to_text())


def _run_datasets() -> None:
    rows = [
        (
            spec.name,
            spec.n_training,
            spec.n_test if spec.has_test_split else "-",
            spec.n_attributes,
            spec.n_classes,
            "raw samples" if spec.repeated_measurements else
            ("integer" if spec.integer_domain else "real"),
        )
        for spec in TABLE2_DATASETS
    ]
    print(format_table(("dataset", "train", "test", "attributes", "classes", "domain"), rows))


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro``."""
    args = build_parser().parse_args(argv)

    if args.command == "example":
        _run_example()
    elif args.command == "datasets":
        _run_datasets()
    elif args.command == "train-forest":
        return _run_train_forest(args)
    elif args.command == "predict":
        return _run_predict(args)
    elif args.command == "serve":
        return _run_serve(args)
    elif args.command == "router":
        return _run_router(args)
    elif args.command == "loadgen":
        return _run_loadgen(args)
    elif args.command == "stream-train":
        return _run_stream_train(args)
    elif args.command == "trace":
        return _run_trace(args)
    elif args.command == "accuracy":
        experiment = AccuracyExperiment(
            args.dataset, scale=args.scale, n_samples=args.samples,
            n_folds=args.folds, seed=args.seed, n_jobs=args.jobs,
        )
        results = experiment.run(
            width_fractions=tuple(args.widths), error_models=(args.error_model,)
        )
        print(format_accuracy_results(results))
    elif args.command == "noise":
        experiment = NoiseModelExperiment(
            args.dataset, scale=args.scale, n_samples=args.samples, n_folds=3,
            seed=args.seed, n_jobs=args.jobs,
        )
        results = experiment.run(
            perturbation_fractions=tuple(args.perturbations),
            width_fractions=tuple(args.widths),
        )
        print(format_noise_model_results(results))
    elif args.command == "efficiency":
        experiment = EfficiencyExperiment(
            args.dataset, scale=args.scale, n_samples=args.samples,
            width_fraction=args.width, seed=args.seed, n_jobs=args.jobs,
        )
        print(format_efficiency_results(experiment.run()))
    elif args.command == "sensitivity":
        experiment = SensitivityExperiment(args.dataset, scale=args.scale, seed=args.seed)
        if args.parameter == "s":
            results = experiment.sweep_samples(sample_counts=(25, 50, 75, 100))
        else:
            results = experiment.sweep_widths(width_fractions=(0.02, 0.05, 0.10, 0.20),
                                              n_samples=args.samples)
        print(format_sensitivity_results(results))
    return 0
