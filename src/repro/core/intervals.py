"""End-point intervals and their classification (Section 5.1).

The end points of the tuples' pdf domains partition an attribute's range
into disjoint intervals ``(q_i, q_{i+1}]``.  Theorems 1–3 of the paper show
that the interiors of *empty* and *homogeneous* intervals never need to be
searched, and that heterogeneous intervals can be discarded wholesale when a
dispersion lower bound proves them suboptimal.

:class:`IntervalTable` is that partition as columns (arrays), used by the
split strategies; building it and computing all per-interval statistics is
fully vectorised, which keeps the bookkeeping cost per interval far below
the cost of a dispersion evaluation (as in the paper, where interval
handling is cheap relative to entropy computations).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.splits import AttributeSplitContext

__all__ = [
    "IntervalKind",
    "IntervalTable",
    "build_interval_table",
    "classify_counts",
]

#: Weighted counts below this value are treated as zero mass.
_EPS = 1e-12


class IntervalKind(enum.Enum):
    """Classification of an end-point interval (Definitions 2–4)."""

    EMPTY = "empty"
    HOMOGENEOUS = "homogeneous"
    HETEROGENEOUS = "heterogeneous"


def classify_counts(inside_counts: np.ndarray) -> IntervalKind:
    """Classify a single interval from the per-class mass it contains."""
    nonzero = np.count_nonzero(np.asarray(inside_counts) > _EPS)
    if nonzero == 0:
        return IntervalKind.EMPTY
    if nonzero == 1:
        return IntervalKind.HOMOGENEOUS
    return IntervalKind.HETEROGENEOUS


class IntervalTable:
    """Columnar description of the end-point intervals of one attribute.

    All arrays are aligned by interval index ``i`` (interval ``(lows[i],
    highs[i]]``).  ``candidate_start`` / ``candidate_stop`` delimit the
    interval's *interior* candidate split points inside
    ``context.candidates``.
    """

    __slots__ = (
        "context",
        "lows",
        "highs",
        "left_counts",
        "inside_counts",
        "open_counts",
        "right_counts",
        "is_empty",
        "is_homogeneous",
        "is_heterogeneous",
        "candidate_start",
        "candidate_stop",
    )

    def __init__(self, context: AttributeSplitContext, end_points: np.ndarray) -> None:
        self.context = context
        qs = np.asarray(end_points, dtype=float)
        if qs.size < 2:
            self.lows = np.empty(0)
            self.highs = np.empty(0)
            n_classes = context.n_classes
            self.left_counts = np.empty((0, n_classes))
            self.inside_counts = np.empty((0, n_classes))
            self.open_counts = np.empty((0, n_classes))
            self.right_counts = np.empty((0, n_classes))
            self.is_empty = np.empty(0, dtype=bool)
            self.is_homogeneous = np.empty(0, dtype=bool)
            self.is_heterogeneous = np.empty(0, dtype=bool)
            self.candidate_start = np.empty(0, dtype=int)
            self.candidate_stop = np.empty(0, dtype=int)
            return
        counts_at = context.left_counts(qs)
        counts_below = context.left_counts(qs, inclusive=False)
        totals = context.total_counts
        self.lows = qs[:-1]
        self.highs = qs[1:]
        self.left_counts = counts_at[:-1]
        # Mass in (low, high]: drives the Eq. 3 / Eq. 4 lower bounds.
        self.inside_counts = np.clip(counts_at[1:] - counts_at[:-1], 0.0, None)
        # Mass in the open interval (low, high): an interval whose open part
        # carries no mass is *empty* — interior split points cannot change the
        # partition at all (Theorem 1), regardless of any mass sitting exactly
        # on the right end point.
        self.open_counts = np.clip(counts_below[1:] - counts_at[:-1], 0.0, None)
        self.right_counts = np.clip(totals[None, :] - counts_at[1:], 0.0, None)
        open_nonzero = (self.open_counts > _EPS).sum(axis=1)
        # Homogeneity must be judged on the half-open mass (low, high]: the
        # concavity argument of Theorem 2 requires that *all* mass moving
        # between the sides along the path from `low` to `high` (including the
        # mass at `high` itself) belongs to one class.
        closed_nonzero = (self.inside_counts > _EPS).sum(axis=1)
        self.is_empty = open_nonzero == 0
        self.is_homogeneous = (~self.is_empty) & (closed_nonzero <= 1)
        self.is_heterogeneous = ~(self.is_empty | self.is_homogeneous)
        candidates = context.candidates
        # Interior candidates are strictly inside (low, high); the end points
        # themselves are evaluated separately by every strategy.
        self.candidate_start = np.searchsorted(candidates, self.lows, side="right")
        self.candidate_stop = np.searchsorted(candidates, self.highs, side="left")

    @property
    def n_intervals(self) -> int:
        return int(self.lows.size)

    @property
    def interior_sizes(self) -> np.ndarray:
        """Number of interior candidates per interval."""
        return self.candidate_stop - self.candidate_start

    def gather_interiors(self, mask: np.ndarray) -> np.ndarray:
        """All interior candidate split points of the intervals selected by ``mask``."""
        candidates = self.context.candidates
        pieces = [
            candidates[start:stop]
            for start, stop, keep in zip(self.candidate_start, self.candidate_stop, mask)
            if keep and stop > start
        ]
        if not pieces:
            return np.empty(0)
        return np.concatenate(pieces)

    def kinds(self) -> list[IntervalKind]:
        """Per-interval :class:`IntervalKind` labels (for inspection/tests)."""
        result: list[IntervalKind] = []
        for empty, homogeneous in zip(self.is_empty, self.is_homogeneous):
            if empty:
                result.append(IntervalKind.EMPTY)
            elif homogeneous:
                result.append(IntervalKind.HOMOGENEOUS)
            else:
                result.append(IntervalKind.HETEROGENEOUS)
        return result


def build_interval_table(
    context: AttributeSplitContext,
    end_points: np.ndarray | None = None,
) -> IntervalTable:
    """Build the columnar interval table of an attribute.

    ``end_points`` defaults to the attribute's full end-point set ``Q_j``;
    UDT-ES passes a sampled subset to obtain coarser intervals.
    """
    qs = context.end_points if end_points is None else np.asarray(end_points, dtype=float)
    return IntervalTable(context, qs)
