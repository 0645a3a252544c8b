"""Declarative uncertainty specs: plain arrays in, :class:`UncertainDataset` out.

The paper's data model wants every numerical attribute value to be a pdf, so
historically callers had to hand-assemble ``UncertainTuple`` objects before
they could train anything.  This module closes that gap: a *spec* describes,
per column, how a raw value becomes a distribution, and :func:`build_dataset`
applies it to an ``(n, k)`` array.

Column specs (create them with the lowercase builder functions):

* :func:`gaussian` — the paper's random-noise model: a truncated Gaussian of
  domain width ``w`` (a fraction of the attribute's value range) centred at
  the value, with ``s`` sample points and a standard deviation of a quarter
  of the domain width (footnote 5).
* :func:`uniform` — the quantisation-noise model: a uniform pdf of the same
  domain width.
* :func:`point` — certain data; the value becomes a point mass.
* :func:`samples` — the value already *is* a distribution: a sequence of raw
  repeated measurements (JapaneseVowel style), an ``(xs, masses)`` pair, or
  a ready-made :class:`~repro.core.pdf.Pdf`.
* :func:`categorical` — the value is a category, a ``{category: probability}``
  mapping, or a :class:`~repro.core.categorical.CategoricalDistribution`.

A *table* spec is either one column spec (applied to every column), a
sequence with one entry per column, or a ``{column: spec}`` mapping keyed by
index or attribute name (``"*"`` sets the default for unlisted columns).

Every table is built column by column straight into the
:class:`~repro.core.columnar.ColumnarPdfStore` that training and batch
classification read, and the dataset builds its per-tuple objects only when
asked for them:

* a :func:`gaussian`, :func:`uniform` or :func:`point` column comes out of
  a few whole-column NumPy passes (:meth:`ColumnSpec.pdf_rows`), whatever
  the other columns of the table are.  The arrays are bit-identical to
  building every cell with :meth:`ColumnSpec.feature_for`, which remains
  the path of the odd column whose supports are too narrow for its values
  to form a regular grid;
* a :func:`samples` column concatenates its cells' pdfs, and keeps the cells;
* a :func:`categorical` column becomes a tuples x categories probability
  matrix, and keeps the cells.

A NaN or infinite number in a numerical column raises
:class:`~repro.exceptions.PdfError` naming its row and column, before any
arithmetic.

The ``w``-scaled specs reproduce :func:`repro.data.uncertainty.inject_uncertainty`
exactly: ``build_dataset(X, y, spec=gaussian(w, s))`` equals
``inject_uncertainty(UncertainDataset.from_points(X, y), ...)`` tree-for-tree
(``inject_uncertainty`` itself delegates to these specs).

All specs implement ``get_params`` / ``set_params``, so they can sit inside
an estimator's parameter set and survive :func:`sklearn.base.clone` and
``GridSearchCV`` grids (``spec__w=...``).
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.categorical import CategoricalDistribution
from repro.core.columnar import _AttributeColumn, _CategoricalColumn
from repro.core.dataset import Attribute, UncertainDataset
from repro.core.params import ParamsMixin
from repro.core.pdf import Pdf, PdfRows, SampledPdf
from repro.exceptions import PdfError, SpecError

__all__ = [
    "ColumnSpec",
    "GaussianSpec",
    "UniformSpec",
    "PointSpec",
    "SamplesSpec",
    "CategoricalSpec",
    "gaussian",
    "uniform",
    "point",
    "samples",
    "categorical",
    "build_dataset",
    "resolve_table_spec",
    "column_extents",
    "dataset_extents",
    "spec_to_dict",
    "spec_from_dict",
    "first_non_finite_row",
]


def first_non_finite_row(matrix) -> "int | None":
    """Index of the first row containing a NaN/Inf cell, or ``None``.

    The shared detection rule behind both rejection points for non-finite
    features: the serving engine's pre-enqueue validation (HTTP 400) and the
    offline ``repro predict`` command (exit 2).  A non-finite cell cannot be
    scaled into a pdf honestly, so scoring it would produce garbage
    probabilities without any error.
    """
    finite = np.isfinite(matrix).all(axis=1)
    if finite.all():
        return None
    return int(np.argmin(finite))


class ColumnSpec(ParamsMixin):
    """Base class of per-column uncertainty specs.

    Subclasses declare their configuration as explicit ``__init__`` keyword
    arguments stored verbatim under the same attribute names; the
    ``get_params`` / ``set_params`` pair (from
    :class:`~repro.core.params.ParamsMixin`, raising :class:`SpecError` for
    unknown names) is derived from the signature, which is exactly the
    contract :func:`sklearn.base.clone` relies on.  Parameter validation
    runs both at construction and after every ``set_params``, so invalid
    values arriving through nested grids (``spec__w=-0.3``) fail loudly.
    """

    _invalid_param_exception = SpecError

    #: Whether :meth:`feature_for` needs the attribute's value-range extent.
    needs_extent = False

    #: Whether the column is categorical (affects the dataset schema).
    is_categorical = False

    def feature_for(self, value, extent: float | None):
        """Turn one raw cell value into a feature (pdf or distribution)."""
        raise NotImplementedError

    def pdf_rows(self, values: np.ndarray, extent: float | None) -> PdfRows | None:
        """:meth:`feature_for` of a whole column of numbers, as pdf rows.

        Returns the arrays of every cell's pdf at once (bit-identical to
        :meth:`feature_for`), or ``None`` when the column has to be built
        cell by cell — always, unless a spec knows its pdfs' shape.
        """
        return None

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({inner})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.get_params() == other.get_params()

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.get_params().items()))))


class _WidthScaledSpec(ColumnSpec):
    """Shared ``w``/``s`` handling of the range-scaled error models."""

    needs_extent = True

    def __init__(self, w: float = 0.1, s: int = 100) -> None:
        self.w = w
        self.s = s
        self._validate_params()

    def _validate_params(self) -> None:
        if self.w < 0:
            raise SpecError(f"width fraction w must be non-negative, got {self.w!r}")
        if self.s < 1:
            raise SpecError(f"sample count s must be at least 1, got {self.s!r}")

    def _support(self, centre, extent: float | None):
        """``(domain_width, low, high)`` around ``centre`` (a value or an
        array of them), or ``None`` when the cells are point masses."""
        domain_width = self.w * (extent or 0.0)
        if domain_width <= 0 or self.w == 0:
            return None
        return domain_width, centre - domain_width / 2.0, centre + domain_width / 2.0


class GaussianSpec(_WidthScaledSpec):
    """Truncated-Gaussian error model of relative width ``w`` (paper Sec. 4.3)."""

    def feature_for(self, value, extent: float | None) -> SampledPdf:
        mean = float(value)
        support = self._support(mean, extent)
        if support is None:
            return SampledPdf.point(mean)
        domain_width, low, high = support
        return SampledPdf.gaussian(mean, domain_width / 4.0, low, high, self.s)

    def pdf_rows(self, values: np.ndarray, extent: float | None) -> PdfRows | None:
        support = self._support(values, extent)
        if support is None:
            return SampledPdf.point_rows(values)
        domain_width, lows, highs = support
        return SampledPdf.gaussian_rows(values, domain_width / 4.0, lows, highs, self.s)


class UniformSpec(_WidthScaledSpec):
    """Uniform (quantisation-noise) error model of relative width ``w``."""

    def feature_for(self, value, extent: float | None) -> SampledPdf:
        mean = float(value)
        support = self._support(mean, extent)
        if support is None:
            return SampledPdf.point(mean)
        _, low, high = support
        return SampledPdf.uniform(low, high, self.s)

    def pdf_rows(self, values: np.ndarray, extent: float | None) -> PdfRows | None:
        support = self._support(values, extent)
        if support is None:
            return SampledPdf.point_rows(values)
        _, lows, highs = support
        return SampledPdf.uniform_rows(lows, highs, self.s)


class PointSpec(ColumnSpec):
    """Certain (point-valued) numerical data."""

    def feature_for(self, value, extent: float | None) -> SampledPdf:
        return SampledPdf.point(float(value))

    def pdf_rows(self, values: np.ndarray, extent: float | None) -> PdfRows | None:
        return SampledPdf.point_rows(values)


class SamplesSpec(ColumnSpec):
    """The cell already carries a distribution.

    Accepted cell values: a :class:`~repro.core.pdf.Pdf` (passed through), an
    ``(xs, masses)`` pair of equal-length sequences, or a flat sequence of
    raw repeated measurements (each contributing equal mass).
    """

    def feature_for(self, value, extent: float | None) -> Pdf:
        if isinstance(value, Pdf):
            return value
        if (
            isinstance(value, tuple)
            and len(value) == 2
            and not np.isscalar(value[0])
        ):
            xs, masses = value
            return SampledPdf(np.asarray(xs, dtype=float), np.asarray(masses, dtype=float))
        if np.isscalar(value):
            return SampledPdf.point(float(value))
        return SampledPdf.from_samples(np.asarray(value, dtype=float))


class CategoricalSpec(ColumnSpec):
    """Uncertain categorical column.

    Accepted cell values: a plain category (certain), a
    ``{category: probability}`` mapping, or a
    :class:`~repro.core.categorical.CategoricalDistribution`.  The attribute
    domain is ``domain`` when given, otherwise the union of categories
    observed in the column.
    """

    is_categorical = True

    def __init__(self, domain: Sequence[Hashable] | None = None) -> None:
        self.domain = domain

    def feature_for(self, value, extent: float | None) -> CategoricalDistribution:
        if isinstance(value, CategoricalDistribution):
            return value
        if isinstance(value, Mapping):
            return CategoricalDistribution(value)
        return CategoricalDistribution.certain(value)


def gaussian(w: float = 0.1, s: int = 100) -> GaussianSpec:
    """Gaussian error model: domain width ``w`` (range fraction), ``s`` samples."""
    return GaussianSpec(w=w, s=s)


def uniform(w: float = 0.1, s: int = 100) -> UniformSpec:
    """Uniform error model: domain width ``w`` (range fraction), ``s`` samples."""
    return UniformSpec(w=w, s=s)


def point() -> PointSpec:
    """Certain point-valued data (the degenerate spec)."""
    return PointSpec()


def samples() -> SamplesSpec:
    """Cells carry explicit sample points / repeated measurements."""
    return SamplesSpec()


def categorical(domain: Sequence[Hashable] | None = None) -> CategoricalSpec:
    """Uncertain categorical column over ``domain`` (inferred when omitted)."""
    return CategoricalSpec(domain=domain)


#: Registry used by :mod:`repro.api.persistence` to round-trip spec objects.
SPEC_CLASSES = {
    cls.__name__: cls
    for cls in (GaussianSpec, UniformSpec, PointSpec, SamplesSpec, CategoricalSpec)
}


def spec_to_dict(spec) -> dict:
    """JSON-able encoding of a column spec or table spec."""
    if isinstance(spec, ColumnSpec):
        params = {
            k: (list(v) if isinstance(v, (tuple, np.ndarray)) else v)
            for k, v in spec.get_params().items()
        }
        return {"kind": type(spec).__name__, "params": params}
    if isinstance(spec, Mapping):
        return {
            "kind": "mapping",
            "items": [[key, spec_to_dict(value)] for key, value in spec.items()],
        }
    if isinstance(spec, Sequence):
        return {"kind": "sequence", "items": [spec_to_dict(item) for item in spec]}
    raise SpecError(f"cannot serialise spec of type {type(spec).__name__}")


def spec_from_dict(data: dict):
    """Inverse of :func:`spec_to_dict`."""
    kind = data.get("kind")
    if kind == "mapping":
        return {key: spec_from_dict(value) for key, value in data["items"]}
    if kind == "sequence":
        return [spec_from_dict(item) for item in data["items"]]
    cls = SPEC_CLASSES.get(kind)
    if cls is None:
        raise SpecError(f"unknown spec kind {kind!r}")
    return cls(**data["params"])


# -- table-level resolution ---------------------------------------------------


def resolve_table_spec(
    spec,
    n_columns: int,
    attribute_names: Sequence[str] | None = None,
) -> list[ColumnSpec]:
    """Expand a table spec into one :class:`ColumnSpec` per column.

    ``spec`` may be ``None`` (all columns :func:`point`), a single column
    spec (applied to every column), a sequence of ``n_columns`` specs, or a
    mapping keyed by column index or attribute name, with ``"*"`` naming the
    default for unlisted columns.
    """
    if n_columns < 1:
        raise SpecError("a dataset needs at least one column")
    if spec is None:
        return [PointSpec() for _ in range(n_columns)]
    if isinstance(spec, ColumnSpec):
        return [spec for _ in range(n_columns)]
    if isinstance(spec, Mapping):
        name_to_index: dict[str, int] = {}
        if attribute_names is not None:
            name_to_index = {name: i for i, name in enumerate(attribute_names)}
        default = spec.get("*", PointSpec())
        if not isinstance(default, ColumnSpec):
            raise SpecError("the '*' default must be a column spec")
        columns: list[ColumnSpec] = [default] * n_columns
        for key, value in spec.items():
            if key == "*":
                continue
            if not isinstance(value, ColumnSpec):
                raise SpecError(f"spec for column {key!r} is not a column spec: {value!r}")
            if isinstance(key, (int, np.integer)):
                index = int(key)
            elif key in name_to_index:
                index = name_to_index[key]
            elif name_to_index:
                raise SpecError(
                    f"unknown spec column {key!r}; use an index in [0, {n_columns}) "
                    f"or one of {list(name_to_index)}"
                )
            else:
                raise SpecError(
                    f"unknown spec column {key!r}: no column names are available here, "
                    f"so name-keyed specs cannot be resolved — use an index in "
                    f"[0, {n_columns}), or provide names (attribute_names= on "
                    "build_dataset, or a DataFrame-style X with .columns)"
                )
            if not 0 <= index < n_columns:
                raise SpecError(f"spec column index {index} out of range for {n_columns} columns")
            columns[index] = value
        return columns
    if isinstance(spec, Sequence):
        columns = list(spec)
        if len(columns) != n_columns:
            raise SpecError(
                f"spec sequence has {len(columns)} entries, expected {n_columns}"
            )
        for entry in columns:
            if not isinstance(entry, ColumnSpec):
                raise SpecError(f"spec sequence entry is not a column spec: {entry!r}")
        return columns
    raise SpecError(f"cannot interpret spec of type {type(spec).__name__}")


# -- extents ------------------------------------------------------------------


def _representative(colspec: ColumnSpec, value) -> float:
    """Point representative of one cell, used only to compute value ranges."""
    if isinstance(value, Pdf):
        return value.mean()
    return float(value)


def column_extents(
    rows: Sequence[Sequence], colspecs: Sequence[ColumnSpec]
) -> list[tuple[float, float] | None]:
    """Per-column ``(min, max)`` of the point representatives.

    Only computed for columns whose spec scales with the attribute range
    (``needs_extent``); other columns get ``None``.  Matches how
    :func:`repro.data.uncertainty.attribute_ranges` scales the error models.
    ``rows`` may be a 2-D float array.
    """
    extents: list[tuple[float, float] | None] = []
    for index, colspec in enumerate(colspecs):
        if not colspec.needs_extent:
            extents.append(None)
            continue
        if isinstance(rows, np.ndarray):
            values = rows[:, index].tolist()
        else:
            values = [_representative(colspec, row[index]) for row in rows]
        if not values:
            raise SpecError("cannot compute column extents of an empty array")
        extents.append((min(values), max(values)))
    return extents


def dataset_extents(dataset: UncertainDataset) -> list[tuple[float, float] | None]:
    """Per-attribute ``(min, max)`` of the pdf means of an existing dataset.

    Categorical attributes get ``None``.  This is what an estimator records
    as ``feature_extents_`` when fitted on a ready-made dataset, so that
    later array-valued ``predict`` calls scale their pdfs consistently.
    """
    extents: list[tuple[float, float] | None] = []
    for index, attribute in enumerate(dataset.attributes):
        if not attribute.is_numerical or not len(dataset):
            extents.append(None)
            continue
        means = [item.pdf(index).mean() for item in dataset]
        extents.append((min(means), max(means)))
    return extents


# -- the builder --------------------------------------------------------------


def _reject_non_finite(matrix: np.ndarray, attribute_names: Sequence[str] | None) -> None:
    """Raise :class:`PdfError` naming the first NaN/Inf cell of ``matrix``."""
    row = first_non_finite_row(matrix)
    if row is None:
        return
    column = int(np.argmin(np.isfinite(matrix[row])))
    name = attribute_names[column] if attribute_names is not None else f"A{column + 1}"
    raise PdfError(
        f"row {row}, column {column} ({name!r}) is {float(matrix[row, column])!r}: "
        "a pdf cell must be finite"
    )


def _takes_numbers(colspec: ColumnSpec) -> bool:
    """Whether the column's cells are plain numbers (not samples or categories)."""
    return not colspec.is_categorical and not isinstance(colspec, SamplesSpec)


def _as_rows(X, colspecs: Sequence[ColumnSpec]) -> "tuple[np.ndarray | list, np.ndarray]":
    """Normalise ``X`` into rows, validating the shape.

    Returns ``(rows, numbers)``: ``numbers`` is the ``(n_rows, n_columns)``
    float array of the number columns (other columns hold zeros).  A table
    of plain numbers comes back as that array twice, every other table as a
    list of rows plus the array.
    """
    n_columns = len(colspecs)
    if all(_takes_numbers(colspec) for colspec in colspecs):
        array = np.asarray(X, dtype=float)
        if array.ndim != 2:
            raise SpecError(
                f"X must be a 2-D array of shape (n_rows, {n_columns}); "
                f"got ndim={array.ndim}.  Wrap a single row as X[None, :]."
            )
        if array.shape[1] != n_columns:
            raise SpecError(
                f"X has {array.shape[1]} columns but the spec describes {n_columns}"
            )
        return array, array
    iloc = getattr(X, "iloc", None)
    if iloc is not None:
        # DataFrame-style input: iterate positionally (list(X) would yield
        # column names) and drop the label index so row[j] is positional.
        rows: list = [list(iloc[position]) for position in range(len(X))]
    else:
        rows = list(X)
    for position, row in enumerate(rows):
        if len(row) != n_columns:
            raise SpecError(
                f"row {position} has {len(row)} values but the spec describes {n_columns}"
            )
    numbers = np.zeros((len(rows), n_columns))
    for index, colspec in enumerate(colspecs):
        if _takes_numbers(colspec):
            numbers[:, index] = [row[index] for row in rows]
    return rows, numbers


def _infer_domain(colspec: CategoricalSpec, rows: Sequence[Sequence], index: int):
    if colspec.domain is not None:
        return tuple(colspec.domain)
    seen: dict[Hashable, None] = {}
    for row in rows:
        value = row[index]
        if isinstance(value, CategoricalDistribution):
            for category in value.support:
                seen.setdefault(category, None)
        elif isinstance(value, Mapping):
            for category in value:
                seen.setdefault(category, None)
        else:
            seen.setdefault(value, None)
    if not seen:
        raise SpecError(f"cannot infer a categorical domain for empty column {index}")
    return tuple(sorted(seen, key=repr))


def _resolve_table(
    X,
    spec,
    attribute_names: Sequence[str] | None,
) -> tuple["np.ndarray | list", np.ndarray, list[ColumnSpec]]:
    """Shared front half of :func:`build_dataset`: rows, numbers, column specs.

    Determines the column count, expands the table spec, and normalises
    ``X`` into validated rows and the float array of its number columns
    (see :func:`_as_rows`) — so every consumer (dataset building, extent
    computation) sees exactly the same interpretation of the input.  A NaN
    or infinite number raises :class:`~repro.exceptions.PdfError` here,
    before any arithmetic.
    """
    shape = getattr(X, "shape", None)
    if (
        spec is not None
        and not isinstance(spec, (ColumnSpec, Mapping, str, bytes))
        and isinstance(spec, Sequence)
    ):
        n_columns = len(spec)
    elif shape is not None and len(shape) == 2:
        # ndarray / DataFrame fast path (DataFrame X[0] would be a column).
        n_columns = int(shape[1])
    else:
        try:
            first_row = X[0] if hasattr(X, "__getitem__") else next(iter(X))
        except (IndexError, StopIteration):
            raise SpecError("cannot build a dataset from an empty X") from None
        try:
            n_columns = len(first_row)
        except TypeError:
            raise SpecError(
                "X must be 2-D (rows of feature values); wrap a single row as [row]"
            ) from None
    if attribute_names is not None and len(attribute_names) != n_columns:
        raise SpecError(
            f"attribute_names has {len(attribute_names)} entries, expected {n_columns}"
        )
    colspecs = resolve_table_spec(spec, n_columns, attribute_names)
    rows, numbers = _as_rows(X, colspecs)
    _reject_non_finite(numbers, attribute_names)
    return rows, numbers, colspecs


def compute_extents(
    X,
    *,
    spec=None,
    attribute_names: Sequence[str] | None = None,
) -> list[tuple[float, float] | None]:
    """The per-column ``(min, max)`` ranges :func:`build_dataset` would use.

    Computed from the *raw* cell values (their point representatives), not
    from any discretised pdfs — estimators record exactly these as
    ``feature_extents_`` so predict-time array conversion is bit-identical
    to training conversion.
    """
    _, numbers, colspecs = _resolve_table(X, spec, attribute_names)
    return column_extents(numbers, colspecs)


def build_dataset(
    X,
    y: Sequence[Hashable] | None = None,
    *,
    spec=None,
    attribute_names: Sequence[str] | None = None,
    class_labels: Sequence[Hashable] | None = None,
    extents: Sequence[tuple[float, float] | None] | None = None,
) -> UncertainDataset:
    """Build an :class:`UncertainDataset` from arrays plus a declarative spec.

    Parameters
    ----------
    X:
        ``(n_rows, n_columns)`` array-like.  Cells may be plain numbers or,
        for :func:`samples` / :func:`categorical` columns, richer values
        (see the spec classes).
    y:
        Class labels, one per row (``None`` for unlabelled test data).
    spec:
        Table spec (see :func:`resolve_table_spec`).  ``None`` means all
        columns are certain point values.
    attribute_names:
        Column names (default ``A1..Ak``); also the keys usable in a
        mapping-style spec.
    class_labels:
        Optional explicit class-label ordering.
    extents:
        Per-column ``(min, max)`` value ranges used to scale ``w``-relative
        specs.  Computed from ``X`` itself when omitted; pass the training
        extents here (see :func:`compute_extents`) to transform test data
        consistently with training.

    Raises :class:`~repro.exceptions.PdfError` naming the row and column of
    the first NaN or infinite number in a numerical column.
    """
    rows, numbers, colspecs = _resolve_table(X, spec, attribute_names)
    n_columns = len(colspecs)
    if y is not None and len(y) != len(rows):
        raise SpecError(f"y has {len(y)} labels but X has {len(rows)} rows")

    if attribute_names is None:
        attribute_names = [f"A{j + 1}" for j in range(n_columns)]
    attributes = []
    for index, (name, colspec) in enumerate(zip(attribute_names, colspecs)):
        if colspec.is_categorical:
            assert isinstance(colspec, CategoricalSpec)
            attributes.append(Attribute.categorical(name, _infer_domain(colspec, rows, index)))
        else:
            attributes.append(Attribute.numerical(name))

    if extents is None:
        extents = column_extents(numbers, colspecs)
    elif len(extents) != n_columns:
        raise SpecError(f"extents has {len(extents)} entries, expected {n_columns}")
    widths = [
        (extent[1] - extent[0]) if extent is not None else None for extent in extents
    ]

    columns: list = [
        colspec.pdf_rows(numbers[:, index], widths[index]) if _takes_numbers(colspec) else None
        for index, colspec in enumerate(colspecs)
    ]
    per_cell = [index for index, column in enumerate(columns) if column is None]
    cells: list[list] = [[] for _ in per_cell]
    if per_cell:
        # Row by row, so the first failing cell raises, as a per-cell build would.
        for row in rows:
            for column_cells, index in zip(cells, per_cell):
                column_cells.append(colspecs[index].feature_for(row[index], widths[index]))
    for column_cells, index in zip(cells, per_cell):
        if colspecs[index].is_categorical:
            columns[index] = _CategoricalColumn.from_cells(attributes[index].domain, column_cells)
        else:
            columns[index] = _AttributeColumn.from_pdfs(
                column_cells, keep_cells=isinstance(colspecs[index], SamplesSpec)
            )
    labels = [None] * len(rows) if y is None else [y[i] for i in range(len(rows))]
    return UncertainDataset.from_pdf_rows(attributes, columns, labels, class_labels)
