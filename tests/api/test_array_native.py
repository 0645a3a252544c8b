"""Array-native datasets: whole-column pdfs, on-demand objects, lazy sorting.

Every table — ``gaussian`` / ``uniform`` / ``point`` columns built in
whole-column passes, ``samples`` and ``categorical`` columns built cell by
cell — goes straight into a :class:`~repro.core.columnar.ColumnarPdfStore`
(bit-identity with the per-cell path is pinned by
``tests/property/test_array_native_equivalence.py``).  These tests pin what
the one path must *not* do — build tuple objects, pdf objects for number
columns, or sort columns when only classifying — and how it rejects
non-finite cells.
"""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest

from repro import AveragingClassifier, UDTClassifier
from repro.api import build_dataset, categorical, gaussian, point, samples, uniform
from repro.core import CategoricalDistribution, SampledPdf, UncertainDataset, UncertainTuple
from repro.core.columnar import ColumnarPdfStore, _AttributeColumn
from repro.core.pdf import _linspace_rows
from repro.ensemble import AveragingForestClassifier, UDTForestClassifier
from repro.exceptions import PdfError


def _table(n_rows: int = 60, seed: int = 0):
    rng = np.random.default_rng(seed)
    y = np.arange(n_rows) % 3
    X = rng.normal(0.0, 1.0, size=(n_rows, 4)) + y[:, None]
    return X, y


#: One column of each of the five specs.
MIXED_SPEC = [gaussian(0.1, 6), uniform(0.2, 4), point(), samples(), categorical(("lo", "hi"))]


def _mixed_table(n_rows: int = 60, seed: int = 0):
    """Rows of ``MIXED_SPEC``: three number columns, measurements, a category.

    The category tells the classes apart best ("mid" lies outside the
    domain), so the tree tests it.
    """
    X, y = _table(n_rows, seed)
    category = ["lo", {"hi": 0.8, "lo": 0.2}, "mid"]
    rows = [
        [*row[:3], [row[3] - 0.1, row[3], row[3] + 0.2], category[label]]
        for row, label in zip(X.tolist(), y)
    ]
    return rows, y


def _spy(monkeypatch, cls, *, adopt: bool = False) -> list:
    """Record every ``cls`` instance created (and ``_adopt`` calls, if asked)."""
    created = []
    init = cls.__init__

    def spy_init(instance, *args, **kwargs):
        created.append(instance)
        init(instance, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", spy_init)
    if adopt:
        original = cls._adopt.__func__

        def spy_adopt(owner, *args):
            created.append(owner)
            return original(owner, *args)

        monkeypatch.setattr(cls, "_adopt", classmethod(spy_adopt))
    return created


def test_linspace_rows_equal_numpy_linspace_row_by_row():
    rng = np.random.default_rng(3)
    lows = np.concatenate([rng.normal(0, 10, 50), [1e16, -2.5, 0.0]])
    highs = lows + np.concatenate([rng.uniform(0, 3, 50), [1e3, 1e-12, 5e-324 * 400]])
    for n in (2, 3, 100):
        rows = _linspace_rows(lows, highs, n)
        assert rows.flags.c_contiguous
        for row, low, high in zip(rows, lows, highs):
            assert row.tobytes() == np.linspace(low, high, n).tobytes()


class TestArrayNativePath:
    @pytest.mark.parametrize("spec", [gaussian(0.1, 20), uniform(0.2, 5), point(),
                                      [gaussian(0.1, 3), uniform(0.1, 1), point(), gaussian(0.0)]])
    def test_numerical_tables_skip_per_cell_objects(self, spec):
        X, y = _table()
        dataset = build_dataset(X, y, spec=spec)
        assert dataset._tuples is None
        assert len(dataset) == len(X)
        assert dataset.class_labels == (0, 1, 2)
        assert "n_tuples=60" in repr(dataset)
        assert dataset._tuples is None  # len() and repr() build nothing
        store = ColumnarPdfStore.from_dataset(dataset)
        assert store is dataset._columnar_store

    @pytest.mark.parametrize("spec", [{2: samples()}, {0: categorical()}])
    def test_samples_and_categorical_tables_are_store_backed(self, spec):
        X, y = _table()
        X = X.tolist()
        if 0 in spec:
            for row in X:
                row[0] = "lo" if row[0] < 1 else "hi"
        dataset = build_dataset(X, y, spec=spec)
        assert dataset._tuples is None
        store = dataset._columnar_store
        assert store.categorical_indices == ((0,) if 0 in spec else ())
        # Cell-built columns hand their cells to the on-demand tuples.
        cells = store.columns[next(iter(spec))].cells
        assert [item.features[next(iter(spec))] for item in dataset.tuples] == cells
        assert dataset.tuples[3].features[next(iter(spec))] is cells[3]

    def test_categories_outside_the_domain_get_their_own_column(self):
        rows = [["red"], [{"violet": 0.5, "blue": 0.5}], ["blue"], [{"teal": 1.0}]]
        dataset = build_dataset(rows, [0, 1, 0, 1], spec=categorical(("blue", "red")))
        column = dataset._columnar_store.columns[0]
        assert column.categories == ("blue", "red", "violet", "teal")
        assert column.probabilities.tolist() == [
            [0.0, 1.0, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]

    def test_tuples_are_read_only_views_of_the_store(self):
        X, y = _table()
        dataset = build_dataset(X, y, spec=gaussian(0.1, 10))
        column = dataset._columnar_store.columns[2]
        pdf = dataset.tuples[7].pdf(2)
        assert np.shares_memory(pdf.xs, column.values)
        assert np.shares_memory(pdf.masses, column.masses)
        with pytest.raises(ValueError):
            pdf.xs[0] = 0.0
        assert dataset.tuples[7].label == y[7]
        assert dataset.tuples is dataset.tuples  # built once

    def test_pickling_ships_the_tuples(self):
        X, y = _table()
        dataset = build_dataset(X, y, spec=uniform(0.1, 4))
        restored = pickle.loads(pickle.dumps(dataset))
        assert isinstance(restored, UncertainDataset)
        assert restored._columnar_store is None
        assert [t.label for t in restored] == list(y)
        assert np.array_equal(restored.tuples[5].pdf(1).xs, dataset.tuples[5].pdf(1).xs)


class TestPredictBuildsNothingPerCell:
    """Regression guard: classifying arrays makes no pdf object and no sort."""

    def test_predict_proba_on_arrays(self, monkeypatch):
        X, y = _table()
        tree = UDTClassifier(spec=gaussian(0.1, 10)).fit(X, y)
        forest = UDTForestClassifier(spec=gaussian(0.1, 10), n_estimators=3,
                                     random_state=0).fit(X, y)
        created, sorted_columns = [], []
        init, adopt, sort = (SampledPdf.__init__, SampledPdf._adopt.__func__,
                             _AttributeColumn.sorted_view)

        # Both ways a SampledPdf comes to be: the constructor and _adopt.
        def spy_init(pdf, *args, **kwargs):
            created.append(pdf)
            init(pdf, *args, **kwargs)

        def spy_adopt(cls, *args):
            created.append(cls)
            return adopt(cls, *args)

        def spy_sort(column):
            sorted_columns.append(column)
            return sort(column)

        monkeypatch.setattr(SampledPdf, "__init__", spy_init)
        monkeypatch.setattr(SampledPdf, "_adopt", classmethod(spy_adopt))
        monkeypatch.setattr(_AttributeColumn, "sorted_view", spy_sort)
        queries = X[:17] + 0.1
        tree.predict_proba(queries)
        tree.predict(queries[:1])
        forest.predict_proba(queries)
        forest.member_votes(queries)
        assert created == []
        assert sorted_columns == []

    def test_training_sorts_each_column_once(self, monkeypatch):
        X, y = _table()
        original = _AttributeColumn.sorted_view
        calls = []

        def spy(column):
            calls.append(column._sorted is None)
            return original(column)

        monkeypatch.setattr(_AttributeColumn, "sorted_view", spy)
        UDTClassifier(spec=gaussian(0.1, 10)).fit(X, y)
        assert calls.count(True) == X.shape[1]


class TestOnePath:
    """Fit and predict read the store for every spec: no tuple objects."""

    def test_fit_and_predict_on_a_mix_of_every_spec(self, monkeypatch):
        rows, y = _mixed_table()
        tuples = _spy(monkeypatch, UncertainTuple)
        model = UDTClassifier(spec=MIXED_SPEC).fit(rows, y)
        model.predict_proba(rows[:17])
        model.predict(rows[:1])
        assert any(not node.is_leaf and not node.is_numerical_test
                   for node in model.tree_.iter_nodes())
        assert tuples == []

    def test_sequential_forest_with_bootstrap_and_feature_subsets(self, monkeypatch):
        rows, y = _mixed_table()
        tuples = _spy(monkeypatch, UncertainTuple)
        forest = UDTForestClassifier(spec=MIXED_SPEC, n_estimators=4, bootstrap=True,
                                     feature_subsample="sqrt", oob_score=True,
                                     random_state=0).fit(rows, y)
        forest.predict_proba(rows[:17])
        forest.member_votes(rows[:5])
        assert tuples == []

    @pytest.mark.parametrize(
        "make",
        [
            lambda: UDTClassifier(spec=MIXED_SPEC),
            lambda: AveragingClassifier(spec=MIXED_SPEC),
            lambda: UDTForestClassifier(spec=MIXED_SPEC, n_estimators=3, random_state=0),
            lambda: AveragingForestClassifier(spec=MIXED_SPEC, n_estimators=3, random_state=0),
        ],
        ids=["UDT", "AVG", "UDT-forest", "AVG-forest"],
    )
    def test_as_dataset_predicts_the_bits_of_the_rows(self, make):
        rows, y = _mixed_table()
        model = make().fit(rows, y)
        dataset = model.as_dataset(rows[:17])
        assert dataset._columnar_store is not None
        assert model.as_dataset(dataset) is dataset
        assert model.predict_proba(dataset).tobytes() == model.predict_proba(rows[:17]).tobytes()
        if hasattr(model, "member_votes"):
            assert model.member_votes(dataset, members=[2, 0]).tobytes() == model.member_votes(
                rows[:17], members=[2, 0]).tobytes()

    def test_number_columns_of_mixed_tables_make_no_pdf_objects(self, monkeypatch):
        rows, y = _mixed_table()
        pdfs = _spy(monkeypatch, SampledPdf, adopt=True)
        categories = _spy(monkeypatch, CategoricalDistribution)
        build_dataset(rows, y, spec=MIXED_SPEC)
        # One pdf per samples cell and one distribution per categorical cell.
        assert len(pdfs) == len(rows) and len(categories) == len(rows)

    def test_store_derived_forest_equals_the_tuple_derived_one(self):
        rows, y = _mixed_table()
        dataset = build_dataset(rows, y, spec=MIXED_SPEC)
        tuple_backed = pickle.loads(pickle.dumps(dataset))
        assert tuple_backed._columnar_store is None
        params = dict(n_estimators=5, feature_subsample="sqrt", oob_score=True, random_state=3)
        ours = UDTForestClassifier(**params).fit(dataset)
        theirs = UDTForestClassifier(**params).fit(tuple_backed)
        assert [tree.structure_signature() for tree in ours.trees_] == [
            tree.structure_signature() for tree in theirs.trees_
        ]
        assert ours.oob_score_ == theirs.oob_score_
        assert np.array_equal(ours.oob_member_scores_, theirs.oob_member_scores_,
                              equal_nan=True)
        assert ours.predict_proba(dataset).tobytes() == theirs.predict_proba(
            tuple_backed).tobytes()


class TestNonFiniteCells:
    """NaN/Inf is rejected up front, naming the row and the column."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("spec", [gaussian(0.1, 10), uniform(0.1, 10), point()],
                             ids=["gaussian", "uniform", "point"])
    @pytest.mark.parametrize("call", ["fit", "predict_proba", "partial_fit"])
    def test_rejected_before_any_arithmetic(self, bad, spec, call):
        X, y = _table()
        model = UDTClassifier(spec=spec).fit(X, y)
        X_bad = X.copy()
        X_bad[4, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PdfError, match=r"^row 4, column 2 \('A3'\) is -?(nan|inf)"):
                if call == "fit":
                    UDTClassifier(spec=spec).fit(X_bad, y)
                elif call == "predict_proba":
                    model.predict_proba(X_bad)
                else:
                    model.partial_fit(X_bad, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("call", ["fit", "predict_proba", "partial_fit"])
    def test_rejected_in_mixed_tables(self, bad, call):
        rows, y = _mixed_table()
        model = UDTClassifier(spec=MIXED_SPEC).fit(rows, y)
        bad_rows = [list(row) for row in rows]
        bad_rows[4][2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PdfError, match=r"^row 4, column 2 \('A3'\) is -?(nan|inf)"):
                if call == "fit":
                    UDTClassifier(spec=MIXED_SPEC).fit(bad_rows, y)
                elif call == "predict_proba":
                    model.predict_proba(bad_rows)
                else:
                    model.partial_fit(bad_rows, y)

    def test_message_uses_the_column_names(self):
        X, y = _table()
        X[0, 1] = np.nan
        with pytest.raises(PdfError, match=r"row 0, column 1 \('mass'\)"):
            build_dataset(X, y, spec=gaussian(), attribute_names=["a", "mass", "c", "d"])
