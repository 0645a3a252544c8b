"""``split_numerical`` counts and positions against a whole-column reference.

:meth:`~repro.core.columnar.ColumnarPdfStore.split_numerical` counts each
tuple's live samples at or below the split point over the whole column when
the node holds at least half of the store's tuples, and over the node's own
live ranges otherwise; views map each live sample to its tuple's position
with a dense lookup.  Neither may change a value: the reference here counts with
one prefix sum over the whole column at every node, maps positions with a
binary search, and sorts every child's live samples afresh.  The
stores are ragged — a ``samples`` column with unequal sample counts, a
narrow-support gaussian column built cell by cell, gaussian rows and a
categorical column — and views are reached through chains of numerical and
categorical splits, so both sides of the size rule are compared.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.api import build_dataset, categorical, gaussian, samples
from repro.core.columnar import ColumnarPdfStore

#: Store attributes: gaussian rows, samples, narrow support, categorical.
_GAUSSIAN, _SAMPLES, _NARROW, _CATEGORY = range(4)


def _ragged_store(seed: int, n_rows: int, s: int) -> "tuple[ColumnarPdfStore, tuple]":
    """Gaussian rows of ``s`` samples, then three small ragged columns."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for i in range(n_rows):
        label = ("a", "b", "c")[i % 3]
        centre = {"a": -1.0, "b": 0.0, "c": 1.0}[label]
        rows.append([
            centre + rng.normal(0, 0.8),
            list(centre + rng.normal(0, 0.6, size=1 + (3 * i) % 8)),
            # Near 2**53 the float spacing is 2, so a support of width ~4
            # repeats grid points and the column is built cell by cell.
            2.0**53 + 2.0 * float(rng.integers(0, 20)),
            {"x": 0.7, "y": 0.3} if label == "a" else ("y" if rng.random() < 0.5 else "z"),
        ])
        labels.append(label)
    rows[0][_NARROW], rows[1][_NARROW] = 2.0**53, 2.0**53 + 40.0  # extent 40
    spec = [gaussian(w=0.3, s=s), samples(), gaussian(w=0.1, s=7), categorical()]
    dataset = build_dataset(rows, labels, spec=spec)
    store = ColumnarPdfStore.from_dataset(dataset)
    narrow = np.diff(store.columns[_NARROW].offsets)
    assert narrow.min() < 7 and np.ptp(np.diff(store.columns[_SAMPLES].offsets)) > 0
    return store, tuple(dataset.class_labels)


def _reference_split(store, view, attribute_index, split_point, weight_eps):
    """``(tuple_ids, weights, starts, stops)`` per side, or ``None``: the
    whole-column prefix-sum count at every node."""
    row = store.row_of(attribute_index)
    column = store.columns[attribute_index]
    starts, stops = view.starts[row], view.stops[row]
    below = np.cumsum(column.values <= split_point)
    counts = below[stops - 1] - np.where(starts > 0, below[np.maximum(starts - 1, 0)], 0)
    boundary = starts + counts
    segment_base = column.offsets[view.tuple_ids]
    mass_before = np.where(
        starts > segment_base, column.local_cum[np.maximum(starts - 1, 0)], 0.0
    )
    retained = column.local_cum[stops - 1] - mass_before
    left_mass = np.where(
        counts > 0, column.local_cum[np.maximum(boundary - 1, 0)] - mass_before, 0.0
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        p_left = np.clip(left_mass / retained, 0.0, 1.0)
    p_left = np.where(counts <= 0, 0.0, np.where(counts >= stops - starts, 1.0, p_left))
    sides = []
    for weights, is_left in ((view.weights * p_left, True), (view.weights * (1.0 - p_left), False)):
        keep = weights > weight_eps
        if not keep.any():
            sides.append(None)
            continue
        side_starts, side_stops = view.starts[:, keep].copy(), view.stops[:, keep].copy()
        (side_stops if is_left else side_starts)[row] = boundary[keep]
        sides.append((view.tuple_ids[keep], weights[keep], side_starts, side_stops))
    return sides


def _sorted_afresh(store, view):
    """A view's ``_sorted`` state, by sorting its live samples afresh."""
    base = store._fused_columns().base
    flats, counts, tuples = [], [], []
    for row, column in enumerate(store._columns):
        starts, stops = view.starts[row], view.stops[row]
        flat = np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)])
        tuple_ids = np.repeat(view.tuple_ids, stops - starts)
        order = np.argsort(column.values[flat], kind="stable")  # ties by flat index
        flats.append(flat[order] + base[row])
        counts.append(flat.size)
        tuples.append(tuple_ids[order])
    return np.concatenate(flats), np.array(counts), np.concatenate(tuples)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _check_view(store, view) -> None:
    """The view's inherited order and lookup positions against the reference."""
    for ours, theirs in zip(view._sorted, _sorted_afresh(store, view)):
        assert _same(ours, theirs)
    assert _same(view._positions(), np.searchsorted(view.tuple_ids, view._sorted[2]))


def _check_split(store, view, attribute_index, split_point, weight_eps, sides_seen):
    """Split like the engine and the reference; return the engine's children."""
    sides_seen.add(2 * view.n_tuples >= store.n_tuples)
    children = store.split_numerical(view, attribute_index, split_point, weight_eps=weight_eps)
    for child, reference in zip(children, _reference_split(
            store, view, attribute_index, split_point, weight_eps)):
        assert (child is None) == (reference is None)
        if child is None:
            continue
        for ours, theirs in zip((child.tuple_ids, child.weights, child.starts, child.stops),
                                reference):
            assert _same(ours, theirs)
        _check_view(store, child)
    return children


def _split_point(store, view, attribute_index, quantile: float) -> float:
    row = store.row_of(attribute_index)
    column = store.columns[attribute_index]
    live = np.sort(np.concatenate([
        column.values[a:b] for a, b in zip(view.starts[row], view.stops[row])
    ]))
    return float(live[min(int(quantile * live.size), live.size - 1)])


_STEP = st.tuples(
    st.sampled_from((_GAUSSIAN, _SAMPLES, _NARROW, _CATEGORY)),
    st.floats(0.0, 1.0),
    st.integers(0, 7),  # which child to follow
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(6, 40),
    extra_samples=st.integers(0, 16),
    weight_eps=st.sampled_from((0.0, 1e-9)),
    steps=st.lists(_STEP, min_size=1, max_size=6),
)
def test_split_numerical_matches_a_whole_column_prefix_sum(
    seed, n_rows, extra_samples, weight_eps, steps
):
    store, class_labels = _ragged_store(seed, n_rows, 8 + extra_samples)
    root = store.root_view()
    store.build_contexts(root, class_labels)  # the root's sorted order
    _check_view(store, root)
    sides_seen: set = set()

    # The root holds every tuple (the prefix-sum side).  Left children at
    # the lower quartile hold ever fewer, until one holds under half of the
    # store's tuples (the node's own ranges).
    view = root
    for _ in range(12):
        if 2 * view.n_tuples < store.n_tuples:
            break
        view, _ = _check_split(store, view, _GAUSSIAN, _split_point(store, view, _GAUSSIAN, 0.25),
                               weight_eps, sides_seen)
    _check_split(store, view, _GAUSSIAN, _split_point(store, view, _GAUSSIAN, 0.5),
                 weight_eps, sides_seen)
    assert sides_seen == {True, False}

    for attribute_index, quantile, pick in steps:
        if attribute_index == _CATEGORY:
            children = list(
                store.split_categorical(view, _CATEGORY, weight_eps=weight_eps).values()
            )
            for child in children:
                _check_view(store, child)
        else:
            children = [child for child in _check_split(
                store, view, attribute_index,
                _split_point(store, view, attribute_index, quantile), weight_eps, sides_seen,
            ) if child is not None]
        if not children:
            break
        view = children[pick % len(children)]
