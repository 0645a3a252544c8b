"""Per-attribute split-search machinery.

Finding the best split point of a numerical attribute requires, for many
candidate values ``z``, the weighted per-class tuple counts on each side of
``z`` (Definitions 5 and 6 of the paper).  :class:`AttributeSplitContext`
precomputes, for one attribute and one set of (fractional) tuples, the
per-class sorted sample positions and their cumulative weighted masses, so
that the counts for any batch of candidates are obtained with a binary
search rather than by re-integrating every pdf.

The context also exposes the interval end points ``Q_j`` (the pdf domain
boundaries, Section 5.1) and the full candidate list (every distinct pdf
sample position), which the pruning strategies consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.core.dispersion import DispersionMeasure
from repro.exceptions import SplitError

__all__ = [
    "AttributeSplitContext",
    "CandidateSplit",
    "prepare_sweep_group",
]

@dataclass(frozen=True)
class CandidateSplit:
    """Result of a split search.

    Attributes
    ----------
    attribute_index:
        Position of the attribute in the dataset schema; ``None`` when no
        valid split exists.
    split_point:
        The numerical threshold ``z`` of the binary test ``A <= z`` (``None``
        for categorical splits and when no split exists).
    dispersion:
        Value of the dispersion measure for the chosen split (lower is
        better).
    categorical:
        ``True`` when the split is a multiway categorical split.
    """

    attribute_index: int | None
    split_point: float | None
    dispersion: float
    categorical: bool = False

    @property
    def is_valid(self) -> bool:
        return self.attribute_index is not None


class AttributeSplitContext:
    """Precomputed split-search state for one numerical attribute.

    Contexts are built from presorted flat sample arrays with
    :meth:`from_arrays`, by the columnar store
    (:meth:`~repro.core.columnar.ColumnarPdfStore.build_contexts`) in tree
    construction.
    """

    __slots__ = (
        "attribute_index",
        "class_labels",
        "_positions",
        "_masses",
        "_classes",
        "_cum_by_class",
        "_left_sizes_pad",
        "_sweep_cache",
        "_sweep_group",
        "_candidate_idx",
        "_end_points",
        "_end_point_bounds",
        "total_counts",
        "candidates",
        "all_uniform",
        "n_sample_points",
    )

    @classmethod
    def from_arrays(
        cls,
        *,
        attribute_index: int,
        class_labels: Sequence[Hashable],
        positions: np.ndarray,
        masses: np.ndarray,
        classes: np.ndarray,
        end_points: np.ndarray | None = None,
        end_point_bounds: tuple[np.ndarray, np.ndarray] | None = None,
        candidates: np.ndarray | None = None,
        candidate_idx: np.ndarray | None = None,
        total_counts: np.ndarray | None = None,
        all_uniform: bool = False,
    ) -> "AttributeSplitContext":
        """Build a context from presorted flat sample arrays.

        ``positions`` must be sorted ascending (stably, ties in tuple order)
        with ``masses`` the effective weighted mass and ``classes`` the class
        index of each sample.  Either the sorted distinct ``end_points`` or
        ``end_point_bounds`` (the raw per-tuple ``(lows, highs)`` arrays,
        deduplicated lazily on first use) must be given.  ``candidates``
        (with the matching right-searchsorted ``candidate_idx``) and the
        per-class ``total_counts`` can be supplied when the caller already
        computed them in a fused batch.  No validation or copying is
        performed — this is the fast path used by the columnar store
        (:mod:`repro.core.columnar`).
        """
        self = object.__new__(cls)
        self.attribute_index = attribute_index
        self.class_labels = tuple(class_labels)
        self._init_from_sorted(
            positions, masses, classes,
            end_points=end_points, end_point_bounds=end_point_bounds,
            candidates=candidates, candidate_idx=candidate_idx,
            total_counts=total_counts, all_uniform=all_uniform,
        )
        return self

    def _init_from_sorted(
        self,
        positions: np.ndarray,
        masses: np.ndarray,
        classes: np.ndarray,
        *,
        end_points: np.ndarray | None,
        end_point_bounds: tuple[np.ndarray, np.ndarray] | None,
        candidates: np.ndarray | None,
        all_uniform: bool,
        candidate_idx: np.ndarray | None = None,
        total_counts: np.ndarray | None = None,
    ) -> None:
        n_classes = len(self.class_labels)
        self._positions = positions
        self._masses = masses
        self._classes = classes
        # The per-class cumulative matrix, the sweep accumulators and the
        # sorted end-point set are derived lazily: plain candidate
        # evaluation only ever touches the sweep arrays, the interval
        # machinery only the matrix and end points.
        self._cum_by_class = None
        self._left_sizes_pad = None
        self._sweep_cache = {}
        self._sweep_group = {}
        self._end_points = end_points
        self._end_point_bounds = end_point_bounds
        if end_points is None and end_point_bounds is None:
            raise SplitError("either end_points or end_point_bounds is required")
        if total_counts is None:
            total_counts = np.bincount(classes, weights=masses, minlength=n_classes)
        self.total_counts = total_counts
        self.all_uniform = all_uniform
        self.n_sample_points = int(positions.size)
        self._candidate_idx = candidate_idx
        if candidates is None:
            # Candidate split points: every distinct sample position except
            # those at or beyond the global maximum end point, which would
            # leave the "right" subset empty.
            if positions.size:
                upper = (
                    float(end_points[-1]) if end_points is not None
                    else float(end_point_bounds[1].max())
                )
                distinct = np.empty(positions.size, dtype=bool)
                distinct[0] = True
                np.not_equal(positions[1:], positions[:-1], out=distinct[1:])
                unique_positions = positions[distinct]
                keep = unique_positions < upper
                candidates = unique_positions[keep]
                # Right-searchsorted index of each candidate, known for free
                # from the distinct scan: the sorted run of candidate j ends
                # where the next distinct value starts.
                first_occurrence = np.flatnonzero(distinct)
                run_ends = np.empty(first_occurrence.size, dtype=np.int64)
                run_ends[:-1] = first_occurrence[1:]
                run_ends[-1] = positions.size
                self._candidate_idx = run_ends[: candidates.size]
            else:
                candidates = positions
        self.candidates = candidates

    @property
    def end_points(self) -> np.ndarray:
        """Sorted distinct pdf-domain end points ``Q_j`` (Section 5.1)."""
        if self._end_points is None:
            lows, highs = self._end_point_bounds
            self._end_points = np.unique(np.concatenate([lows, highs]))
        return self._end_points

    # -- count queries -------------------------------------------------------

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)

    @property
    def n_candidates(self) -> int:
        return int(self.candidates.size)

    def _matrix(self) -> np.ndarray:
        """Per-class cumulative matrix, built on first use.

        Row ``i`` holds, per class, the weighted mass at or before sample
        ``i`` — one binary search into ``_positions`` then yields the counts
        for every class at once.
        """
        if self._cum_by_class is None:
            scattered = np.zeros((self._positions.size, self.n_classes))
            if self._positions.size:
                scattered[np.arange(self._positions.size), self._classes] = self._masses
            self._cum_by_class = np.cumsum(scattered, axis=0)
        return self._cum_by_class

    def left_counts(self, split_points: np.ndarray, *, inclusive: bool = True) -> np.ndarray:
        """Weighted per-class counts on the left of each split point.

        With ``inclusive=True`` (the default) the counts cover the mass at or
        below the split point (the ``<=`` test of the decision tree); with
        ``inclusive=False`` they cover the mass strictly below it, which the
        interval machinery uses to classify open intervals ``(a, b)``.

        Returns an array of shape ``(len(split_points), n_classes)``.
        """
        zs = np.asarray(split_points, dtype=float)
        side = "right" if inclusive else "left"
        idx = np.searchsorted(self._positions, zs, side=side)
        result = self._matrix()[np.maximum(idx - 1, 0)]
        result[idx == 0] = 0.0
        return result

    # -- sweep-accelerated dispersion -----------------------------------------

    def _sweep_arrays(self, measure: DispersionMeasure) -> tuple[np.ndarray, np.ndarray]:
        """``(inner_left_pad, inner_right_pad)`` accumulators for ``measure``.

        ``inner_left_pad[i]`` is ``sum_c f(left count of class c)`` after the
        first ``i`` sorted samples (``f`` the measure's sweep transform), and
        ``inner_right_pad[i]`` the matching right-side sum.  Built in O(n)
        once per (context, measure) by :func:`prepare_sweep_group` — a
        standalone context simply forms a group of one, which yields the
        same accumulators bit for bit.
        """
        cached = self._sweep_cache.get(measure.name)
        if cached is not None:
            return cached
        if measure.name not in self._sweep_group:
            prepare_sweep_group([self], measure)
        grouped = self._sweep_group.get(measure.name)
        if grouped is None:
            # Empty context (prepare_sweep_group filters those out): no
            # samples, so the accumulators are just the zero-sample pads.
            reverse_total = float(measure.sweep_transform(self.total_counts).sum())
            arrays = (np.zeros(1), np.full(1, reverse_total))
        else:
            group, index = grouped
            arrays = group.materialize_pads(index)
        self._sweep_cache[measure.name] = arrays
        return arrays

    def _left_sizes(self) -> np.ndarray:
        """Padded running total mass: ``_left_sizes_pad[i]`` after i samples."""
        if self._left_sizes_pad is None:
            for group, index in self._sweep_group.values():
                self._left_sizes_pad = group.materialize_left_sizes(index)
                return self._left_sizes_pad
            pad = np.empty(self._positions.size + 1)
            pad[0] = 0.0
            np.cumsum(self._masses, out=pad[1:])
            self._left_sizes_pad = pad
        return self._left_sizes_pad

    def dispersion_profile(
        self, split_points: np.ndarray, measure: DispersionMeasure
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(left_sizes, dispersion)`` of the splits at the given points.

        Uses the measure's sorted-sweep evaluation when available (entropy
        and Gini), falling back to the per-class count matrix otherwise.
        The caller is responsible for counting these evaluations in its
        :class:`~repro.core.stats.SplitSearchStats`.
        """
        zs = np.asarray(split_points, dtype=float)
        if zs.size == 0:
            return np.empty(0), np.empty(0)
        if not measure.supports_sweep:
            left = self.left_counts(zs)
            return left.sum(axis=1), measure.split_dispersion_batch(left, self.total_counts)
        if split_points is self.candidates and self._candidate_idx is not None:
            idx = self._candidate_idx
        else:
            idx = np.searchsorted(self._positions, zs, side="right")
        inner_left, inner_right = self._sweep_arrays(measure)
        left_sizes = self._left_sizes()[idx]
        grand_total = float(self.total_counts.sum())
        right_sizes = np.maximum(grand_total - left_sizes, 0.0)
        dispersion = measure.sweep_dispersion(
            left_sizes, inner_left[idx], right_sizes, inner_right[idx], grand_total
        )
        return left_sizes, dispersion


def prepare_sweep_group(
    contexts: Sequence[AttributeSplitContext], measure: DispersionMeasure
) -> None:
    """Populate every context's sweep accumulators in one fused pass.

    Equivalent to calling :meth:`AttributeSplitContext._sweep_arrays` on each
    context, but the per-(attribute, class) grouped cumulative sums run once
    over the concatenation of all contexts' samples — a node with ``k``
    numerical attributes pays one set of numpy calls instead of ``k``.  The
    per-context accumulators are recovered by rebasing each context's slice
    on its segment start, which perturbs only the last floating-point bits
    relative to a standalone per-context sum; because *every* strategy, on
    store-built and per-tuple contexts alike, obtains its sweep arrays
    through this same function, they all keep seeing identical dispersion
    values.

    Contexts already carrying cached arrays for ``measure`` are left alone.
    No-op for measures without sweep support and for groups of fewer than
    two uncached contexts.
    """
    if not measure.supports_sweep:
        return
    todo = [
        context
        for context in contexts
        if measure.name not in context._sweep_cache
        and measure.name not in context._sweep_group
        and context._positions.size
    ]
    if not todo:
        return
    k = len(todo)
    n_classes = todo[0].n_classes
    sizes = np.array([context._positions.size for context in todo], dtype=np.int64)
    bases = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(sizes, out=bases[1:])
    total_size = int(bases[-1])
    masses = np.concatenate([context._masses for context in todo])
    classes = np.concatenate([context._classes for context in todo])
    context_of = np.repeat(np.arange(k, dtype=np.int64), sizes)

    # Group the samples by (context, class); within a group the running
    # per-class count is a plain cumulative sum (see the per-context
    # implementation in AttributeSplitContext._sweep_arrays).
    key = context_of * n_classes + classes
    counts = np.bincount(key, minlength=k * n_classes)
    group_starts = np.cumsum(counts) - counts
    order = np.argsort(key, kind="stable")
    grouped_run = np.cumsum(masses[order])
    before_group = np.concatenate(([0.0], grouped_run))[group_starts]
    new_grouped = grouped_run - np.repeat(before_group, counts)
    totals = np.concatenate([context.total_counts for context in todo])
    totals_grouped = np.repeat(totals, counts)

    transform = measure.sweep_transform
    t_new = transform(new_grouped)
    t_reverse = transform(totals_grouped - new_grouped)
    t_totals = transform(totals)

    live = counts > 0
    live_starts = group_starts[live]
    t_prev = np.empty(total_size)
    t_reverse_prev = np.empty(total_size)
    t_prev[0] = 0.0
    t_prev[1:] = t_new[:-1]
    t_prev[live_starts] = 0.0
    t_reverse_prev[0] = 0.0
    t_reverse_prev[1:] = t_reverse[:-1]
    t_reverse_prev[live_starts] = t_totals[live]

    deltas = np.empty((2, total_size))
    deltas[0, order] = t_new - t_prev
    deltas[1, order] = t_reverse - t_reverse_prev
    accumulated = np.cumsum(deltas, axis=1)
    reverse_totals = t_totals.reshape(k, n_classes).sum(axis=1)
    left_run = np.cumsum(masses)
    grand_totals = np.array([float(context.total_counts.sum()) for context in todo])

    group = _SweepGroup(accumulated, left_run, bases, reverse_totals, grand_totals)
    for index, context in enumerate(todo):
        context._sweep_group[measure.name] = (group, index)


class _SweepGroup:
    """One node's sweep accumulators, fused over all attribute contexts.

    Holds the un-rebased running sums of :func:`prepare_sweep_group`;
    context ``i`` occupies ``[bases[i], bases[i + 1])``.  The batched
    exhaustive search gathers candidate values straight from these arrays
    (:meth:`gather`); the per-context pad arrays used by
    ``dispersion_profile`` are materialised on demand with the exact same
    rebasing arithmetic, so both access paths yield bitwise-equal values.
    """

    __slots__ = ("accumulated", "left_run", "bases", "reverse_totals", "grand_totals")

    def __init__(
        self,
        accumulated: np.ndarray,
        left_run: np.ndarray,
        bases: np.ndarray,
        reverse_totals: np.ndarray,
        grand_totals: np.ndarray,
    ) -> None:
        self.accumulated = accumulated
        self.left_run = left_run
        self.bases = bases
        self.reverse_totals = reverse_totals
        self.grand_totals = grand_totals

    def materialize_pads(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Rebuild one context's ``(inner_left_pad, inner_right_pad)``."""
        accumulated = self.accumulated
        start, stop = int(self.bases[index]), int(self.bases[index + 1])
        size = stop - start
        inner_left = np.empty(size + 1)
        inner_right = np.empty(size + 1)
        inner_left[0] = 0.0
        inner_left[1:] = accumulated[0, start:stop]
        reverse_total = float(self.reverse_totals[index])
        inner_right[0] = reverse_total
        inner_right[1:] = accumulated[1, start:stop]
        inner_right[1:] += reverse_total
        if start:
            inner_left[1:] -= accumulated[0, start - 1]
            inner_right[1:] -= accumulated[1, start - 1]
        return inner_left, inner_right

    def materialize_left_sizes(self, index: int) -> np.ndarray:
        """Rebuild one context's padded running total mass."""
        start, stop = int(self.bases[index]), int(self.bases[index + 1])
        pad = np.empty(stop - start + 1)
        pad[0] = 0.0
        pad[1:] = self.left_run[start:stop]
        if start:
            pad[1:] -= self.left_run[start - 1]
        return pad

    def gather(
        self, member_indices: "list[int]", local_idx_parts: "list[np.ndarray]"
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(left_sizes, inner_left, inner_right, grand_total)`` per candidate.

        ``local_idx_parts[j]`` holds the (1-based) right-searchsorted sample
        indices of member ``member_indices[j]``'s candidates.  Produces the
        same values as indexing each context's materialised pad arrays, with
        one fused gather per output instead of per-context ones.
        """
        counts = [part.size for part in local_idx_parts]
        rows = np.array(member_indices, dtype=np.int64)
        flat = np.concatenate(local_idx_parts) - 1
        flat += np.repeat(self.bases[rows], counts)
        base_left = np.where(rows > 0, self.left_run[np.maximum(self.bases[rows] - 1, 0)], 0.0)
        base_il = np.where(
            rows > 0, self.accumulated[0][np.maximum(self.bases[rows] - 1, 0)], 0.0
        )
        base_ir = np.where(
            rows > 0, self.accumulated[1][np.maximum(self.bases[rows] - 1, 0)], 0.0
        )
        left_sizes = self.left_run[flat] - np.repeat(base_left, counts)
        inner_left = self.accumulated[0][flat] - np.repeat(base_il, counts)
        inner_right = (
            self.accumulated[1][flat] + np.repeat(self.reverse_totals[rows], counts)
        ) - np.repeat(base_ir, counts)
        grand_total = np.repeat(self.grand_totals[rows], counts)
        return left_sizes, inner_left, inner_right, grand_total
