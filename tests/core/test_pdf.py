"""Unit tests for :mod:`repro.core.pdf`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pdf import SampledPdf
from repro.exceptions import PdfError


class TestConstruction:
    def test_basic_construction_sorts_positions(self):
        pdf = SampledPdf([3.0, 1.0, 2.0], [0.2, 0.5, 0.3])
        assert list(pdf.xs) == [1.0, 2.0, 3.0]
        assert pdf.masses[0] == pytest.approx(0.5)

    def test_masses_are_normalised_by_default(self):
        pdf = SampledPdf([0.0, 1.0], [2.0, 2.0])
        assert pdf.masses.sum() == pytest.approx(1.0)
        assert pdf.masses[0] == pytest.approx(0.5)

    def test_unnormalised_masses_rejected_when_normalise_false(self):
        with pytest.raises(PdfError):
            SampledPdf([0.0, 1.0], [0.3, 0.3], normalise=False)

    def test_exact_masses_accepted_when_normalise_false(self):
        pdf = SampledPdf([0.0, 1.0], [0.25, 0.75], normalise=False)
        assert pdf.masses[1] == pytest.approx(0.75)

    def test_duplicate_positions_are_merged(self):
        pdf = SampledPdf([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        assert pdf.n_samples == 2
        assert pdf.prob_leq(1.0) == pytest.approx(0.5)

    def test_empty_positions_rejected(self):
        with pytest.raises(PdfError):
            SampledPdf([], [])

    def test_negative_mass_rejected(self):
        with pytest.raises(PdfError):
            SampledPdf([0.0, 1.0], [-0.1, 1.1])

    def test_zero_total_mass_rejected(self):
        with pytest.raises(PdfError):
            SampledPdf([0.0, 1.0], [0.0, 0.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(PdfError):
            SampledPdf([0.0, 1.0], [1.0])

    def test_non_finite_values_rejected(self):
        with pytest.raises(PdfError):
            SampledPdf([0.0, float("nan")], [0.5, 0.5])
        with pytest.raises(PdfError):
            SampledPdf([0.0, 1.0], [0.5, float("inf")])

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(PdfError):
            SampledPdf(np.ones((2, 2)), np.ones((2, 2)))


class TestBasicProperties:
    def test_support_bounds(self):
        pdf = SampledPdf([-2.0, 0.0, 5.0], [0.2, 0.3, 0.5])
        assert pdf.low == -2.0
        assert pdf.high == 5.0

    def test_mean_of_discrete_distribution(self):
        pdf = SampledPdf([-1.0, 1.0, 10.0], [5 / 8, 1 / 8, 2 / 8])
        assert pdf.mean() == pytest.approx(2.0)

    def test_variance_of_symmetric_two_point(self):
        pdf = SampledPdf([-1.0, 1.0], [0.5, 0.5])
        assert pdf.variance() == pytest.approx(1.0)

    def test_point_pdf_flags(self):
        pdf = SampledPdf.point(3.5)
        assert pdf.is_point
        assert pdf.mean() == 3.5
        assert pdf.variance() == 0.0
        assert pdf.kind == "point"

    def test_cumulative_ends_at_one(self):
        pdf = SampledPdf([0.0, 1.0, 2.0], [0.1, 0.2, 0.7])
        assert pdf.cumulative[-1] == pytest.approx(1.0)

    def test_equality_and_hash(self):
        a = SampledPdf([0.0, 1.0], [0.5, 0.5])
        b = SampledPdf([0.0, 1.0], [0.5, 0.5])
        c = SampledPdf([0.0, 1.0], [0.4, 0.6])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a pdf"


class TestProbabilityQueries:
    def test_prob_leq_below_support(self):
        pdf = SampledPdf([1.0, 2.0], [0.5, 0.5])
        assert pdf.prob_leq(0.5) == 0.0

    def test_prob_leq_at_sample_points(self):
        pdf = SampledPdf([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        assert pdf.prob_leq(1.0) == pytest.approx(0.2)
        assert pdf.prob_leq(2.0) == pytest.approx(0.5)
        assert pdf.prob_leq(3.0) == pytest.approx(1.0)

    def test_prob_leq_between_samples(self):
        pdf = SampledPdf([1.0, 2.0], [0.4, 0.6])
        assert pdf.prob_leq(1.5) == pytest.approx(0.4)

    def test_prob_leq_above_support(self):
        pdf = SampledPdf([1.0, 2.0], [0.4, 0.6])
        assert pdf.prob_leq(100.0) == pytest.approx(1.0)

    def test_prob_between_half_open_interval(self):
        pdf = SampledPdf([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        # (1, 3] excludes the mass at 1 and includes the mass at 3.
        assert pdf.prob_between(1.0, 3.0) == pytest.approx(0.8)

    def test_prob_between_invalid_interval_raises(self):
        pdf = SampledPdf([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(PdfError):
            pdf.prob_between(3.0, 1.0)


class TestTruncation:
    def test_truncate_left_renormalises(self):
        pdf = SampledPdf([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        left = pdf.truncate_left(2.0)
        assert left.high == 2.0
        assert left.masses.sum() == pytest.approx(1.0)
        assert left.masses[0] == pytest.approx(0.4)

    def test_truncate_right_renormalises(self):
        pdf = SampledPdf([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        right = pdf.truncate_right(2.0)
        assert right.low == 3.0
        assert right.masses.sum() == pytest.approx(1.0)

    def test_truncate_left_without_mass_raises(self):
        pdf = SampledPdf([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(PdfError):
            pdf.truncate_left(0.5)

    def test_truncate_right_without_mass_raises(self):
        pdf = SampledPdf([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(PdfError):
            pdf.truncate_right(2.0)

    def test_split_at_returns_probability_and_both_sides(self):
        pdf = SampledPdf([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        p_left, left, right = pdf.split_at(2.0)
        assert p_left == pytest.approx(0.5)
        assert left is not None and right is not None
        assert left.high <= 2.0 < right.low

    def test_split_at_outside_support_returns_none_side(self):
        pdf = SampledPdf([1.0, 2.0], [0.5, 0.5])
        p_left, left, right = pdf.split_at(0.0)
        assert p_left == 0.0 and left is None and right is not None
        p_left, left, right = pdf.split_at(5.0)
        assert p_left == 1.0 and right is None and left is not None

    @pytest.mark.parametrize("seed", range(6))
    def test_truncation_equals_the_constructor_on_the_slice(self, seed):
        """Truncating skips the re-sort but must match it bit for bit."""
        rng = np.random.default_rng(seed)
        xs = np.round(rng.normal(0.0, 3.0, 40), seed % 3)  # rounding merges duplicates
        pdf = SampledPdf(xs, rng.random(40), kind="gaussian")
        for z in (pdf.xs[0], float(np.median(pdf.xs)), pdf.xs[-2]):
            idx = int(np.searchsorted(pdf.xs, z, side="right"))
            for got, samples in ((pdf.truncate_left(z), slice(None, idx)),
                                 (pdf.truncate_right(z), slice(idx, None))):
                ref = SampledPdf(pdf.xs[samples], pdf.masses[samples], kind="gaussian")
                assert got.kind == ref.kind and got.mean() == ref.mean()
                for name in ("xs", "masses", "cumulative"):
                    assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()

    def test_truncating_to_zero_mass_raises(self):
        pdf = SampledPdf([1.0, 2.0, 3.0], [0.0, 0.0, 1.0])
        with pytest.raises(PdfError, match="total probability mass must be positive"):
            pdf.truncate_left(2.0)

    def test_split_preserves_conditional_mean_decomposition(self):
        pdf = SampledPdf([0.0, 1.0, 2.0, 3.0], [0.1, 0.4, 0.3, 0.2])
        p_left, left, right = pdf.split_at(1.0)
        assert left is not None and right is not None
        recomposed = p_left * left.mean() + (1 - p_left) * right.mean()
        assert recomposed == pytest.approx(pdf.mean())


class TestFactories:
    def test_uniform_pdf_mean_and_bounds(self):
        pdf = SampledPdf.uniform(0.0, 10.0, n_samples=101)
        assert pdf.kind == "uniform"
        assert pdf.low == 0.0 and pdf.high == 10.0
        assert pdf.mean() == pytest.approx(5.0)
        assert pdf.n_samples == 101

    def test_uniform_masses_are_equal(self):
        pdf = SampledPdf.uniform(0.0, 1.0, n_samples=10)
        assert np.allclose(pdf.masses, 0.1)

    def test_uniform_zero_width_degenerates_to_point(self):
        pdf = SampledPdf.uniform(2.0, 2.0, n_samples=10)
        assert pdf.is_point and pdf.mean() == 2.0

    def test_uniform_invalid_support_raises(self):
        with pytest.raises(PdfError):
            SampledPdf.uniform(3.0, 1.0)
        with pytest.raises(PdfError):
            SampledPdf.uniform(0.0, 1.0, n_samples=0)

    def test_gaussian_pdf_centred_on_mean(self):
        pdf = SampledPdf.gaussian(5.0, 1.0, n_samples=201)
        assert pdf.kind == "gaussian"
        assert pdf.mean() == pytest.approx(5.0, abs=1e-6)
        assert pdf.low == pytest.approx(3.0)
        assert pdf.high == pytest.approx(7.0)

    def test_gaussian_mass_concentrated_near_mean(self):
        pdf = SampledPdf.gaussian(0.0, 1.0, low=-2.0, high=2.0, n_samples=401)
        central = pdf.prob_between(-1.0, 1.0)
        assert central > 0.6  # ~68 % for an untruncated Gaussian, more when truncated

    def test_gaussian_zero_std_degenerates_to_point(self):
        pdf = SampledPdf.gaussian(1.5, 0.0)
        assert pdf.is_point and pdf.mean() == 1.5

    def test_gaussian_invalid_parameters_raise(self):
        with pytest.raises(PdfError):
            SampledPdf.gaussian(0.0, -1.0)
        with pytest.raises(PdfError):
            SampledPdf.gaussian(0.0, 1.0, low=2.0, high=1.0)

    def test_gaussian_far_tail_support_falls_back_to_uniform_mass(self):
        pdf = SampledPdf.gaussian(0.0, 1e-3, low=100.0, high=101.0, n_samples=11)
        assert pdf.n_samples == 11
        assert pdf.masses.sum() == pytest.approx(1.0)

    def test_from_samples_equal_weights(self):
        pdf = SampledPdf.from_samples([3.0, 1.0, 2.0, 2.0])
        assert pdf.kind == "empirical"
        assert pdf.mean() == pytest.approx(2.0)
        assert pdf.prob_leq(2.0) == pytest.approx(0.75)

    def test_from_samples_with_weights(self):
        pdf = SampledPdf.from_samples([0.0, 1.0], weights=[1.0, 3.0])
        assert pdf.mean() == pytest.approx(0.75)

    def test_from_samples_empty_raises(self):
        with pytest.raises(PdfError):
            SampledPdf.from_samples([])
