"""Per-tuple split contexts: the reference the store's contexts are tested against.

:meth:`repro.core.columnar.ColumnarPdfStore.build_contexts` builds every
split context of a node from flat, presorted column arrays.  The functions
here build the same :class:`~repro.core.splits.AttributeSplitContext` the
direct way, walking one :class:`~repro.core.dataset.UncertainTuple` at a
time and sorting its samples, so tests and the per-tuple oracle
(``tests/property/reference_builder.py``) can hand contexts to the split
strategies without going through the store.  Import it as ``tuple_contexts``
from any test directory (``tests/`` is on the path through its
``conftest.py``).
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.core.dataset import UncertainTuple
from repro.core.splits import AttributeSplitContext
from repro.exceptions import SplitError


def tuple_context(
    attribute_index: int,
    tuples: Sequence[UncertainTuple],
    class_labels: Sequence[Hashable],
) -> AttributeSplitContext:
    """The split context of one numerical attribute over (fractional) tuples."""
    if not tuples:
        raise SplitError("cannot build a split context for an empty tuple set")
    label_to_index = {label: i for i, label in enumerate(class_labels)}
    positions, masses, classes = [], [], []
    end_points: set[float] = set()
    all_uniform = True
    for item in tuples:
        pdf = item.pdf(attribute_index)
        if item.label is None:
            raise SplitError("training tuples must carry a class label")
        positions.append(pdf.xs)
        masses.append(pdf.masses * item.weight)
        classes.append(np.full(pdf.xs.size, label_to_index[item.label], dtype=np.int64))
        end_points.update((pdf.low, pdf.high))
        all_uniform = all_uniform and pdf.kind in ("uniform", "point")
    flat = np.concatenate(positions)
    order = np.argsort(flat, kind="stable")
    return AttributeSplitContext.from_arrays(
        attribute_index=attribute_index,
        class_labels=class_labels,
        positions=flat[order],
        masses=np.concatenate(masses)[order],
        classes=np.concatenate(classes)[order],
        end_points=np.array(sorted(end_points)),
        all_uniform=all_uniform,
    )


def build_contexts(
    tuples: Sequence[UncertainTuple],
    numerical_attribute_indices: Sequence[int],
    class_labels: Sequence[Hashable],
) -> list[AttributeSplitContext]:
    """One :func:`tuple_context` per numerical attribute."""
    return [
        tuple_context(attribute_index, tuples, class_labels)
        for attribute_index in numerical_attribute_indices
    ]
