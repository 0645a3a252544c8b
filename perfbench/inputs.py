"""Seeded inputs of every workload, generated here rather than by the program.

The training tables follow the Table-2 stand-in recipe of ``repro.data.uci``
(class-conditional Gaussian clusters plus intrinsic measurement noise,
re-quantised for integer-domain shapes), copied so that a change to
``repro.data`` cannot move the benchmark.  The cluster centres of a shape
depend only on its name.  The benchmark draws its training tables with a
fixed seed, as the paper's tables are fixed: fresh tables per seed change
tree sizes by up to 20 %.  ``--seed`` draws every other input here.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: Intrinsic measurement error of the stand-ins: sigma_j = 0.1 * |A_j| / 4.
_INTRINSIC_NOISE = 0.10


@dataclass(frozen=True)
class Shape:
    """Rows x attributes x classes of one Table-2 dataset."""

    name: str
    n_rows: int
    n_attributes: int
    n_classes: int
    separation: float = 2.5
    integer_domain: bool = False


GLASS = Shape("Glass", 214, 9, 6, separation=2.0)
IONOSPHERE = Shape("Ionosphere", 351, 32, 2)
VEHICLE = Shape("Vehicle", 846, 18, 4, integer_domain=True)


def _rng(seed: int, *keys: str) -> np.random.Generator:
    """Generator for one named input stream of one seed."""
    return np.random.default_rng([int(seed)] + [zlib.crc32(key.encode()) for key in keys])


def make_table(shape: Shape, seed: int):
    """``(X, y)``: the labelled rows of ``shape`` drawn with ``seed``."""
    n_rows = shape.n_rows
    centres = np.random.default_rng(zlib.crc32(shape.name.encode())).normal(
        0.0, shape.separation, size=(shape.n_classes, shape.n_attributes)
    )
    rng = _rng(seed, "table", shape.name)
    labels = np.arange(n_rows) % shape.n_classes
    rng.shuffle(labels)
    values = centres[labels] + rng.normal(0.0, 1.0, size=(n_rows, shape.n_attributes))
    if shape.integer_domain:
        low, high = values.min(axis=0), values.max(axis=0)
        values = np.round((values - low) / np.where(high > low, high - low, 1.0) * 100.0)
    spans = values.max(axis=0) - values.min(axis=0)
    sigma = _INTRINSIC_NOISE * np.where(spans > 0, spans, 1.0) / 4.0
    values = values + rng.normal(0.0, 1.0, size=values.shape) * sigma
    if shape.integer_domain:
        values = np.round(values)
    return values, [f"C{label}" for label in labels]


def _jittered(X: np.ndarray, n_rows: int, seed: int, stream: str):
    """``(rows, picks)``: jittered copies of ``n_rows`` seeded picks of ``X``'s rows."""
    rng = _rng(seed, "query", stream)
    picks = rng.integers(0, X.shape[0], size=n_rows)
    spans = X.max(axis=0) - X.min(axis=0)
    return X[picks] + rng.normal(0.0, 0.05, size=(n_rows, X.shape[1])) * spans, picks


def query_rows(X: np.ndarray, n_rows: int, seed: int, stream: str) -> np.ndarray:
    """``n_rows`` unlabelled rows near the training rows of ``X``."""
    return _jittered(X, n_rows, seed, stream)[0]


def stream_rows(X: np.ndarray, y: list, n_rows: int, seed: int, *,
                drift_quantile: float | None):
    """Labelled stream rows near ``X``, drifting in one region unless ``None``.

    With a ``drift_quantile``, rows whose first attribute lies above that
    quantile of ``X`` carry the next class label instead of their own, so
    the leaves covering that region receive conflicting mass and the
    streaming updater re-splits them.  Integer-domain tables stay on their
    integer grid.
    """
    rows, picks = _jittered(X, n_rows, seed, "stream")
    if np.all(X == np.round(X)):
        rows = np.round(rows)
    labels = [y[pick] for pick in picks]
    if drift_quantile is None:
        return rows, labels
    classes = sorted(set(y))
    threshold = np.quantile(X[:, 0], drift_quantile)
    return rows, [
        classes[(classes.index(label) + 1) % len(classes)] if row[0] > threshold else label
        for row, label in zip(rows, labels)
    ]


def serving_rows(X: np.ndarray, n_rows: int, seed: int, *, hot_share: float, hot_rows: int):
    """Single-row request payloads: a ``hot_share`` of them repeat a small hot set.

    Repeats are exact copies of one of ``hot_rows`` rows, so the server's
    response cache hits on them; every other row is distinct.
    """
    rng = _rng(seed, "serve")
    fresh = query_rows(X, n_rows, seed, "serve-fresh")
    hot = query_rows(X, hot_rows, seed, "serve-hot")
    repeat = rng.random(n_rows) < hot_share
    fresh[repeat] = hot[rng.integers(0, hot_rows, size=int(repeat.sum()))]
    return fresh


def poisson_offsets(n_requests: int, rate: float, seed: int) -> np.ndarray:
    """Due times (seconds from the start) of ``n_requests`` Poisson arrivals."""
    gaps = _rng(seed, "arrivals").exponential(1.0 / rate, size=n_requests)
    return np.cumsum(gaps) - gaps[0]
