"""Probability density functions over bounded intervals.

The paper represents the value of an uncertain numerical attribute not by a
single number but by a pdf ``f`` that is non-zero only inside a bounded
interval ``[a, b]`` (Section 3.2).  Following the paper's "numerical
approach", a pdf is stored as a set of *s* sample points together with the
probability mass carried by each point — i.e. a discrete approximation of the
continuous density.  Storing the cumulative distribution alongside the
samples makes the integrations required by tree construction (the "left
probability" ``p_L`` of a split) a cheap array lookup.

The central class is :class:`SampledPdf`.  Factory helpers build the pdf
shapes used throughout the paper's experiments:

* :meth:`SampledPdf.uniform` — quantisation-style error model,
* :meth:`SampledPdf.gaussian` — truncated Gaussian measurement-error model
  (the Gaussian is chopped at both ends and renormalised, footnote 5),
* :meth:`SampledPdf.point` — a degenerate point-mass pdf (certain data),
* :meth:`SampledPdf.from_samples` — empirical pdf built from repeated
  measurements (used for the JapaneseVowel-style data).

All pdfs are immutable; operations such as :meth:`SampledPdf.truncate_left`
return new objects.

:class:`PdfRows` is the same data for a whole column of cells at once: the
``*_rows`` factories take arrays of cell parameters and return the arrays
that the scalar factories would store, bit for bit, as equal-length rows.
They exist so array inputs can skip per-cell objects altogether (see
:func:`repro.api.spec.build_dataset`); a factory returns ``None`` whenever
some cell would not come out as a regular grid of that length (a support
narrower than its value's spacing, a non-finite position), and the caller
then goes back to the scalar factories, which also raise their usual errors.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.exceptions import PdfError

__all__ = ["Pdf", "SampledPdf", "PdfRows"]

#: Numerical tolerance used when validating that probability masses sum to 1.
_MASS_TOLERANCE = 1e-9


class PdfRows(NamedTuple):
    """Equal-length pdfs, one per row: what :class:`SampledPdf` would hold.

    ``xs``, ``masses`` and ``cumulative`` are C-contiguous ``(n_cells,
    n_samples)`` arrays whose row ``i`` equals the ``xs`` / ``masses`` /
    ``cumulative`` of cell ``i``'s :class:`SampledPdf`; ``kind`` is their
    common tag.
    """

    xs: np.ndarray
    masses: np.ndarray
    cumulative: np.ndarray
    kind: str


def _linspace_rows(lows: np.ndarray, highs: np.ndarray, n: int) -> np.ndarray:
    """Row ``i`` is ``np.linspace(lows[i], highs[i], n)`` (``n >= 2``), bit for bit.

    ``np.linspace(lows, highs, n, axis=1)`` is no substitute: it switches
    every row to its zero-step formula as soon as one row's step underflows
    to zero, and returns a strided array whose row sums differ from the
    scalar calls' in the last bit.  Here every row uses the non-zero-step
    formula and the result is C-contiguous.  (A row whose step does
    underflow comes out as ``lows[i]`` repeated, then ``highs[i]``; the
    scalar call repeats points there as well, so the row constructor
    rejects that row either way.)
    """
    steps = (highs - lows) / (n - 1)
    xs = np.multiply.outer(steps, np.arange(n, dtype=float))
    xs += lows[:, None]
    xs[:, -1] = highs
    return xs


def _normalised_rows(xs: np.ndarray, masses: np.ndarray, kind: str) -> "PdfRows | None":
    """The row-wise :class:`SampledPdf` constructor for grids of 2+ points.

    ``masses`` must be finite and is normalised in place.  ``None`` when a
    row of ``xs`` is not strictly increasing, since the scalar constructor
    would then reorder or merge it (or raise): a NaN or infinite grid point
    always breaks the order, because a grid's first point is ``0 * step +
    low``, which is NaN whenever the step or ``low`` is not finite.
    """
    if not (xs[:, 1:] > xs[:, :-1]).all():
        return None
    totals = masses.sum(axis=1)
    if not (totals > 0.0).all():
        return None
    masses /= totals[:, None]
    cumulative = np.cumsum(masses, axis=1)
    cumulative[:, -1] = 1.0
    return PdfRows(xs, masses, cumulative, kind)


class Pdf:
    """Abstract interface of a bounded probability density function.

    Concrete pdfs expose a discrete view (sample positions and masses), the
    cumulative distribution, the mean, and truncation operations used when a
    tuple is split into fractional tuples at a decision-tree node.
    """

    __slots__ = ()

    @property
    def low(self) -> float:
        """Lower end point ``a`` of the pdf's support."""
        raise NotImplementedError

    @property
    def high(self) -> float:
        """Upper end point ``b`` of the pdf's support."""
        raise NotImplementedError

    @property
    def xs(self) -> np.ndarray:
        """Sorted sample positions of the discrete approximation."""
        raise NotImplementedError

    @property
    def masses(self) -> np.ndarray:
        """Probability mass carried by each sample position (sums to 1)."""
        raise NotImplementedError

    def mean(self) -> float:
        """Expected value of the pdf."""
        raise NotImplementedError

    def prob_leq(self, z: float) -> float:
        """Probability mass in ``(-inf, z]`` — the ``p_L`` of a split at ``z``."""
        raise NotImplementedError

    def truncate_left(self, z: float) -> "Pdf":
        """Pdf conditioned on the value being ``<= z`` (renormalised)."""
        raise NotImplementedError

    def truncate_right(self, z: float) -> "Pdf":
        """Pdf conditioned on the value being ``> z`` (renormalised)."""
        raise NotImplementedError


class SampledPdf(Pdf):
    """A pdf approximated by a finite set of weighted sample points.

    Parameters
    ----------
    xs:
        Sample positions.  They need not be sorted or unique; the constructor
        sorts them and merges duplicates.
    masses:
        Non-negative probability mass per sample position.  The masses are
        normalised to sum to one unless ``normalise=False`` is passed, in
        which case they must already sum to one.
    kind:
        A free-form tag describing how the pdf was generated (``"uniform"``,
        ``"gaussian"``, ``"point"``, ``"empirical"``, or ``"custom"``).  The
        tag is metadata only, except that split-finding strategies may use
        ``kind == "uniform"`` to apply Theorem 3 (end points suffice).

    Raises
    ------
    PdfError
        If no sample point is given, any mass is negative, or the total mass
        is zero (or, with ``normalise=False``, not equal to one).
    """

    __slots__ = ("_xs", "_masses", "_cumulative", "_mean", "kind")

    def __init__(
        self,
        xs: Iterable[float],
        masses: Iterable[float],
        *,
        kind: str = "custom",
        normalise: bool = True,
    ) -> None:
        xs_arr = np.asarray(list(xs) if not isinstance(xs, np.ndarray) else xs, dtype=float)
        mass_arr = np.asarray(
            list(masses) if not isinstance(masses, np.ndarray) else masses, dtype=float
        )
        if xs_arr.ndim != 1 or mass_arr.ndim != 1:
            raise PdfError("sample positions and masses must be one-dimensional")
        if xs_arr.size == 0:
            raise PdfError("a pdf needs at least one sample point")
        if xs_arr.shape != mass_arr.shape:
            raise PdfError(
                f"positions and masses differ in length ({xs_arr.size} vs {mass_arr.size})"
            )
        if np.any(~np.isfinite(xs_arr)) or np.any(~np.isfinite(mass_arr)):
            raise PdfError("sample positions and masses must be finite")
        if np.any(mass_arr < 0):
            raise PdfError("probability masses must be non-negative")

        order = np.argsort(xs_arr, kind="stable")
        xs_arr = xs_arr[order]
        mass_arr = mass_arr[order]

        # Merge duplicate positions so that the cdf is a proper step function.
        if xs_arr.size > 1 and np.any(np.diff(xs_arr) == 0.0):
            unique_xs, inverse = np.unique(xs_arr, return_inverse=True)
            merged = np.zeros_like(unique_xs)
            np.add.at(merged, inverse, mass_arr)
            xs_arr, mass_arr = unique_xs, merged

        total = float(mass_arr.sum())
        if total <= 0.0:
            raise PdfError("total probability mass must be positive")
        if normalise:
            mass_arr = mass_arr / total
        elif abs(total - 1.0) > _MASS_TOLERANCE:
            raise PdfError(f"masses must sum to 1 (got {total!r})")

        self._xs = xs_arr
        self._masses = mass_arr
        self._cumulative = np.cumsum(mass_arr)
        # Guard against floating point drift in the final cumulative value.
        self._cumulative[-1] = 1.0
        self._mean = float(np.dot(xs_arr, mass_arr))
        self.kind = kind

    # -- basic properties -------------------------------------------------

    @property
    def low(self) -> float:
        return float(self._xs[0])

    @property
    def high(self) -> float:
        return float(self._xs[-1])

    @property
    def xs(self) -> np.ndarray:
        return self._xs

    @property
    def masses(self) -> np.ndarray:
        return self._masses

    @property
    def cumulative(self) -> np.ndarray:
        """Cumulative masses aligned with :attr:`xs` (last entry is 1)."""
        return self._cumulative

    @property
    def n_samples(self) -> int:
        """Number of distinct sample positions."""
        return int(self._xs.size)

    @property
    def is_point(self) -> bool:
        """Whether the pdf is a degenerate point mass."""
        return self._xs.size == 1

    def mean(self) -> float:
        return self._mean

    def variance(self) -> float:
        """Variance of the discrete approximation."""
        centred = self._xs - self._mean
        return float(np.dot(centred * centred, self._masses))

    # -- probability queries ----------------------------------------------

    def prob_leq(self, z: float) -> float:
        """Probability mass located at positions ``<= z``."""
        idx = int(np.searchsorted(self._xs, z, side="right"))
        if idx == 0:
            return 0.0
        return float(self._cumulative[idx - 1])

    def prob_between(self, a: float, b: float) -> float:
        """Probability mass in the half-open interval ``(a, b]``."""
        if b < a:
            raise PdfError(f"invalid interval ({a!r}, {b!r}]")
        return self.prob_leq(b) - self.prob_leq(a)

    # -- truncation (fractional tuples) -----------------------------------

    def truncate_left(self, z: float) -> "SampledPdf":
        """Return the pdf conditioned on the value being ``<= z``.

        This is the pdf inherited by the "left" fractional tuple when the
        parent tuple is split at ``z`` (Section 3.2).  Raises
        :class:`PdfError` if the left part carries no probability mass.
        """
        idx = int(np.searchsorted(self._xs, z, side="right"))
        if idx == 0:
            raise PdfError(f"no probability mass at or below split point {z!r}")
        return self._renormalised(slice(None, idx))

    def truncate_right(self, z: float) -> "SampledPdf":
        """Return the pdf conditioned on the value being ``> z``."""
        idx = int(np.searchsorted(self._xs, z, side="right"))
        if idx >= self._xs.size:
            raise PdfError(f"no probability mass above split point {z!r}")
        return self._renormalised(slice(idx, None))

    def _renormalised(self, samples: slice) -> "SampledPdf":
        """``SampledPdf(xs[samples], masses[samples])``, without re-sorting.

        A slice of sorted, merged samples is still sorted and merged, so of
        the constructor's work only the normalisation is left; it is done
        with the same operations, so the result is bit-identical.
        """
        masses = self._masses[samples]
        total = float(masses.sum())
        if total <= 0.0:
            raise PdfError("total probability mass must be positive")
        masses = masses / total
        cumulative = np.cumsum(masses)
        cumulative[-1] = 1.0
        return SampledPdf._adopt(self._xs[samples], masses, cumulative, self.kind)

    def split_at(self, z: float) -> tuple[float, "SampledPdf | None", "SampledPdf | None"]:
        """Split the pdf at ``z`` into left/right conditional pdfs.

        Returns a triple ``(p_left, left_pdf, right_pdf)``.  A side with zero
        probability mass is returned as ``None`` rather than raising, which
        is the common case during tree construction when the split point lies
        outside the pdf's support.
        """
        p_left = self.prob_leq(z)
        left = self.truncate_left(z) if p_left > 0.0 else None
        right = self.truncate_right(z) if p_left < 1.0 else None
        return p_left, left, right

    # -- factories ---------------------------------------------------------

    @classmethod
    def point(cls, value: float) -> "SampledPdf":
        """Degenerate pdf placing all mass on a single value."""
        return cls([value], [1.0], kind="point")

    @classmethod
    def uniform(cls, low: float, high: float, n_samples: int = 100) -> "SampledPdf":
        """Uniform pdf over ``[low, high]`` sampled at ``n_samples`` points.

        Used by the paper to model quantisation noise.  A zero-width interval
        degenerates to a point mass.
        """
        if high < low:
            raise PdfError(f"invalid support [{low!r}, {high!r}]")
        if n_samples < 1:
            raise PdfError("n_samples must be at least 1")
        if high == low or n_samples == 1:
            return cls.point((low + high) / 2.0)
        xs = np.linspace(low, high, n_samples)
        masses = np.full(n_samples, 1.0 / n_samples)
        return cls(xs, masses, kind="uniform")

    @classmethod
    def gaussian(
        cls,
        mean: float,
        std: float,
        low: float | None = None,
        high: float | None = None,
        n_samples: int = 100,
    ) -> "SampledPdf":
        """Truncated Gaussian pdf.

        The Gaussian is restricted to ``[low, high]`` (defaulting to
        ``mean ± 2·std``, matching the paper's choice of a standard deviation
        equal to a quarter of the interval width) and renormalised, as
        described in footnote 5 of the paper.
        """
        if std < 0:
            raise PdfError("standard deviation must be non-negative")
        if std == 0:
            return cls.point(mean)
        if low is None:
            low = mean - 2.0 * std
        if high is None:
            high = mean + 2.0 * std
        if high <= low:
            raise PdfError(f"invalid support [{low!r}, {high!r}]")
        if n_samples < 1:
            raise PdfError("n_samples must be at least 1")
        if n_samples == 1:
            return cls.point(mean)
        xs = np.linspace(low, high, n_samples)
        z = (xs - mean) / std
        density = np.exp(-0.5 * z * z)
        total = float(density.sum())
        if total <= 0.0:
            # The support lies far in the Gaussian tail; fall back to uniform
            # mass so the pdf remains well defined.
            return cls.uniform(low, high, n_samples)
        return cls(xs, density / total, kind="gaussian")

    # -- the same factories, one row per cell --------------------------------

    @staticmethod
    def point_rows(values: np.ndarray) -> "PdfRows | None":
        """:meth:`point` of every value, as rows (``None`` if one is not finite)."""
        if not np.isfinite(values).all():
            return None
        xs = np.array(values, dtype=float).reshape(-1, 1)  # a copy: never alias X
        ones = np.ones_like(xs)
        return PdfRows(xs, ones, ones.copy(), "point")

    @classmethod
    def uniform_rows(cls, lows: np.ndarray, highs: np.ndarray, n_samples: int) -> "PdfRows | None":
        """:meth:`uniform` of every ``(lows[i], highs[i])``, as rows, or ``None``.

        ``None`` when a support is empty or inverted, since that cell would
        be a point mass (or an error) instead of ``n_samples`` points.
        """
        if not (highs >= lows).all():
            return None
        if n_samples == 1:
            return cls.point_rows((lows + highs) / 2.0)
        if not (highs > lows).all():
            return None
        masses = np.full((lows.size, n_samples), 1.0 / n_samples)
        return _normalised_rows(_linspace_rows(lows, highs, n_samples), masses, "uniform")

    @classmethod
    def gaussian_rows(
        cls,
        means: np.ndarray,
        std: float,
        lows: np.ndarray,
        highs: np.ndarray,
        n_samples: int,
    ) -> "PdfRows | None":
        """:meth:`gaussian` of every ``means[i]`` on ``[lows[i], highs[i]]``, as rows.

        All cells share ``std`` and ``n_samples``.  ``None`` when some cell
        would not come out as an ``n_samples``-point grid (see
        :class:`PdfRows`).
        """
        if std == 0:
            return cls.point_rows(means)
        if not (highs > lows).all():
            return None
        if n_samples == 1:
            return cls.point_rows(means)
        xs = _linspace_rows(lows, highs, n_samples)
        # The scalar factory's exp(-0.5 * z * z) with z = (xs - mean) / std,
        # in place: the same elementwise operations in the same order.
        z = xs - means[:, None]
        z /= std
        density = np.multiply(z, -0.5)
        density *= z
        np.exp(density, out=density)
        totals = density.sum(axis=1)
        if not (totals > 0.0).all():
            return None
        density /= totals[:, None]
        return _normalised_rows(xs, density, "gaussian")

    @classmethod
    def _adopt(
        cls, xs: np.ndarray, masses: np.ndarray, cumulative: np.ndarray, kind: str
    ) -> "SampledPdf":
        """Wrap arrays already in this class's normal form, without copying.

        The arrays must be what the constructor would store (sorted,
        merged, normalised, last cumulative entry 1); they are adopted
        as they are, so read-only views of shared storage stay shared.
        """
        pdf = cls.__new__(cls)
        pdf._xs = xs
        pdf._masses = masses
        pdf._cumulative = cumulative
        pdf._mean = float(np.dot(xs, masses))
        pdf.kind = kind
        return pdf

    @classmethod
    def from_samples(
        cls,
        samples: Sequence[float] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> "SampledPdf":
        """Empirical pdf built from repeated measurements.

        Each measurement contributes equal mass (or the given ``weights``).
        This mirrors how the paper models the JapaneseVowel data set, whose
        attributes carry 7–29 raw samples each.
        """
        samples_arr = np.asarray(samples, dtype=float)
        if samples_arr.size == 0:
            raise PdfError("at least one sample is required")
        if weights is None:
            masses = np.full(samples_arr.size, 1.0 / samples_arr.size)
        else:
            masses = np.asarray(weights, dtype=float)
        return cls(samples_arr, masses, kind="empirical")

    # -- dunder helpers -----------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SampledPdf(kind={self.kind!r}, support=[{self.low:.4g}, {self.high:.4g}], "
            f"n_samples={self.n_samples}, mean={self._mean:.4g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampledPdf):
            return NotImplemented
        return (
            self._xs.shape == other._xs.shape
            and bool(np.allclose(self._xs, other._xs))
            and bool(np.allclose(self._masses, other._masses))
        )

    def __hash__(self) -> int:
        return hash((self._xs.tobytes(), self._masses.tobytes()))
