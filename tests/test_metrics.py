"""Tests for the error, signal, image, acceptance and clustering metrics."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import clustering
from repro.metrics import (
    acceptance_curve,
    acceptance_probability,
    bit_error_metrics,
    bit_error_rate,
    characterize_error,
    error_pdf,
    error_psd,
    error_rate,
    match_labels,
    mean_absolute_error,
    mse,
    mse_db,
    mssim,
    positional_bit_error_rate,
    psnr_db,
    signal_mse,
    snr_db,
    ssim,
    success_rate,
)
from repro.operators import ExactAdder, TruncatedAdder


class TestErrorMetrics:
    def test_mse_of_constant_error(self):
        assert mse(np.full(100, 2.0)) == pytest.approx(4.0)

    def test_mse_db_of_exact(self):
        assert mse_db(np.zeros(10)) == float("-inf")

    def test_mae_and_error_rate(self):
        errors = np.array([0.0, -1.0, 3.0, 0.0])
        assert mean_absolute_error(errors) == pytest.approx(1.0)
        assert error_rate(errors) == pytest.approx(0.5)

    def test_empty_error_rejected(self):
        with pytest.raises(ValueError):
            mse(np.array([]))
        with pytest.raises(ValueError):
            error_rate(np.array([]))

    def test_bit_error_rate_complement(self):
        reference = np.array([0])
        approximate = np.array([0xFFFF])
        assert bit_error_rate(reference, approximate, 16) == pytest.approx(1.0)

    def test_positional_ber_localises_the_error(self):
        reference = np.zeros(10, dtype=np.int64)
        approximate = np.full(10, 0b100, dtype=np.int64)
        per_bit = positional_bit_error_rate(reference, approximate, 8)
        assert per_bit[2] == pytest.approx(1.0)
        assert per_bit[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("metric", (bit_error_metrics, bit_error_rate,
                                        positional_bit_error_rate))
    def test_bit_metrics_reject_mismatched_shapes(self, metric):
        # A 1-element reference used to broadcast against 4 codes.
        with pytest.raises(ValueError, match="shape"):
            metric(np.array([0]), np.array([1, 2, 3, 4]), 4)

    @pytest.mark.parametrize("metric", (bit_error_metrics, bit_error_rate,
                                        positional_bit_error_rate))
    def test_bit_metrics_reject_empty_input(self, metric):
        empty = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="no samples"):
            metric(empty, empty, 8)

    @pytest.mark.parametrize("metric", (bit_error_metrics, bit_error_rate,
                                        positional_bit_error_rate))
    @pytest.mark.parametrize("width", (0, -3))
    def test_bit_metrics_reject_widths_below_one(self, metric, width):
        with pytest.raises(ValueError, match="width"):
            metric(np.array([1, 2]), np.array([3, 4]), width)

    def test_bit_metrics_count_every_element_as_a_sample(self):
        reference = np.zeros((2, 3), dtype=np.int64)
        approximate = np.array([[1, 0, 0], [0, 3, 0]], dtype=np.int64)
        ber, positional = bit_error_metrics(reference, approximate, 2)
        assert ber == 3 / 12
        assert positional.tolist() == [2 / 6, 1 / 6]

    def test_characterize_error_of_exact_operator(self):
        report = characterize_error(ExactAdder(16), samples=2000)
        assert report.is_exact
        assert report.mse_db == float("-inf")
        assert report.ber == pytest.approx(0.0)

    def test_characterize_error_of_truncated_adder(self):
        report = characterize_error(TruncatedAdder(16, 10), samples=20_000)
        assert -62.0 < report.mse_db < -55.0
        assert report.bias > 0.0
        assert 0.0 < report.ber < 0.5
        assert report.to_dict()["operator"] == "ADDt(16,10)"

    def test_characterize_error_with_explicit_inputs(self):
        a = np.array([0, 1, 2, 3], dtype=np.int64)
        b = np.array([0, 0, 0, 0], dtype=np.int64)
        report = characterize_error(TruncatedAdder(16, 15), a=a, b=b)
        assert report.samples == 4


class TestSignalMetrics:
    def test_psnr_of_identical_signals_is_infinite(self):
        x = np.linspace(-1, 1, 64)
        assert psnr_db(x, x) == float("inf")

    def test_psnr_decreases_with_noise(self):
        rng = np.random.default_rng(0)
        x = np.sin(np.linspace(0, 6, 256))
        small = psnr_db(x, x + rng.normal(0, 1e-3, x.shape))
        large = psnr_db(x, x + rng.normal(0, 1e-1, x.shape))
        assert small > large

    def test_snr_definition(self):
        x = np.ones(100)
        noisy = x + 0.1
        assert snr_db(x, noisy) == pytest.approx(10 * np.log10(1.0 / 0.01), abs=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            signal_mse(np.zeros(3), np.zeros(4))


class TestImageMetrics:
    def test_mssim_of_identical_images(self):
        from repro.apps.images import synthetic_image

        image = synthetic_image(64).astype(np.float64)
        assert mssim(image, image) == pytest.approx(1.0)

    def test_mssim_decreases_with_distortion(self):
        from repro.apps.images import synthetic_image

        image = synthetic_image(64).astype(np.float64)
        rng = np.random.default_rng(1)
        mild = mssim(image, np.clip(image + rng.normal(0, 2, image.shape), 0, 255))
        heavy = mssim(image, np.clip(image + rng.normal(0, 40, image.shape), 0, 255))
        assert mild > heavy
        assert 0.0 < heavy < mild <= 1.0

    def test_ssim_map_shape(self):
        from repro.apps.images import synthetic_image

        image = synthetic_image(32).astype(np.float64)
        result = ssim(image, image)
        assert result.ssim_map.shape == (22, 22)

    def test_image_shape_validation(self):
        with pytest.raises(ValueError):
            mssim(np.zeros((8, 8)), np.zeros((9, 9)))
        with pytest.raises(ValueError):
            mssim(np.zeros((4, 4)), np.zeros((4, 4)))


class TestAcceptance:
    def test_exact_results_always_accepted(self):
        x = np.arange(1, 100)
        assert acceptance_probability(x, x, 0.999) == pytest.approx(1.0)

    def test_acceptance_decreases_with_threshold(self):
        rng = np.random.default_rng(2)
        x = rng.integers(100, 1000, 1000)
        noisy = x + rng.integers(-50, 50, 1000)
        curve = acceptance_curve(x, noisy, thresholds=(0.5, 0.9, 0.99))
        assert curve.probabilities[0] >= curve.probabilities[1] >= curve.probabilities[2]
        assert curve.probability_at(0.9) == curve.as_dict()[0.9]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            acceptance_probability(np.array([1]), np.array([1]), 1.5)

    def test_curve_matches_scalar_probability_on_dense_grid(self):
        """The vectorised one-pass curve is exactly the scalar metric."""
        rng = np.random.default_rng(7)
        x = rng.integers(-500, 1000, 5000)
        noisy = x + rng.integers(-80, 80, 5000)
        grid = np.linspace(0.0, 1.0, 101)
        curve = acceptance_curve(x, noisy, maa_grid=grid)
        for threshold, probability in zip(curve.thresholds,
                                          curve.probabilities):
            assert probability == acceptance_probability(x, noisy, threshold)

    def test_curve_grid_validation_and_aliases(self):
        x = np.array([1, 2, 3])
        with pytest.raises(ValueError):
            acceptance_curve(x, x, maa_grid=[0.5, 1.5])
        with pytest.raises(ValueError):
            acceptance_curve(x, x, maa_grid=[float("nan")])
        with pytest.raises(TypeError):
            acceptance_curve(x, x, maa_grid=[0.5], thresholds=[0.5])
        # Positional grid and the legacy thresholds= keyword agree.
        assert acceptance_curve(x, x, [0.9]).probabilities == \
            acceptance_curve(x, x, thresholds=[0.9]).probabilities

    def test_curve_default_grid_and_empty_input(self):
        x = np.array([10, 20])
        curve = acceptance_curve(x, x)
        assert curve.thresholds == (0.90, 0.95, 0.98, 0.99, 0.999)
        empty = acceptance_curve(np.array([]), np.array([]), maa_grid=[0.9])
        assert empty.probabilities == (0.0,)


class TestSpectral:
    def test_pdf_integrates_to_one(self):
        rng = np.random.default_rng(3)
        pdf = error_pdf(rng.normal(0, 1, 20_000), bins=51)
        widths = np.diff(pdf.bin_edges)
        assert np.sum(pdf.density * widths) == pytest.approx(1.0, abs=1e-6)
        assert pdf.probability_in(-1, 1) > 0.6

    def test_psd_of_white_noise_is_flat(self):
        rng = np.random.default_rng(4)
        psd = error_psd(rng.uniform(-1, 1, 8192), segment=512)
        assert psd.flatness() > 0.7

    def test_psd_of_tone_is_peaky(self):
        n = 8192
        tone = np.sin(2 * np.pi * 0.1 * np.arange(n))
        psd = error_psd(tone, segment=512)
        assert psd.flatness() < 0.2

    def test_psd_validation(self):
        with pytest.raises(ValueError):
            error_psd(np.array([1.0]))


class TestClustering:
    def test_success_rate_with_permuted_labels(self):
        reference = np.array([0, 0, 1, 1, 2, 2])
        permuted = np.array([2, 2, 0, 0, 1, 1])
        assert success_rate(reference, permuted) == pytest.approx(1.0)

    def test_success_rate_with_errors(self):
        reference = np.array([0, 0, 0, 1, 1, 1])
        labels = np.array([0, 0, 1, 1, 1, 1])
        assert success_rate(reference, labels) == pytest.approx(5 / 6)

    def test_match_labels_returns_reference_naming(self):
        reference = np.array([0, 0, 1, 1])
        candidate = np.array([1, 1, 0, 0])
        assert np.array_equal(match_labels(reference, candidate), reference)

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            success_rate(np.array([]), np.array([]))

    @pytest.mark.parametrize("already_matched", [False, True])
    def test_label_shape_mismatch_rejected(self, already_matched):
        # Five reference labels against one candidate label used to
        # broadcast to 0.4 on the already-matched path.
        with pytest.raises(ValueError, match="same shape"):
            success_rate(np.zeros(5, dtype=np.int64), np.zeros(1, dtype=np.int64),
                         already_matched=already_matched)

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            match_labels(np.array([0, 1, 1]), np.array([0, -1, 1]))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           keep=st.integers(min_value=0, max_value=6))
    def test_match_labels_equals_dict_remap_on_greedy_path(self, seed, keep):
        """The lookup-array remap against the per-label dict it replaced.

        Greedy matching on random labels, truncated to ``keep`` pairs so
        some candidate labels are left unmatched and keep their value.
        """
        rng = np.random.default_rng(seed)
        clusters = 6
        reference = rng.integers(0, clusters, 300)
        # Candidates use a subset of the labels, so some columns are empty.
        candidate = rng.integers(0, clusters - 2, 300)
        greedy = clustering._greedy_assignment

        def truncated(matrix):
            rows, cols = greedy(matrix)
            return rows[:keep], cols[:keep]

        rows, cols = truncated(
            clustering.confusion_matrix(reference, candidate, clusters))
        mapping = {int(col): int(row) for row, col in zip(rows, cols)}
        expected = np.array([mapping.get(int(label), int(label))
                             for label in candidate], dtype=np.int64)
        with mock.patch.object(clustering, "_hungarian", None), \
                mock.patch.object(clustering, "_greedy_assignment", truncated):
            remapped = match_labels(reference, candidate, clusters)
        assert remapped.dtype == np.int64
        assert np.array_equal(remapped, expected)

    @settings(max_examples=25)
    @given(permutation_seed=st.integers(min_value=0, max_value=1000))
    def test_success_rate_invariant_to_label_permutation(self, permutation_seed):
        rng = np.random.default_rng(permutation_seed)
        reference = rng.integers(0, 5, 200)
        permutation = rng.permutation(5)
        relabelled = permutation[reference]
        assert success_rate(reference, relabelled) == pytest.approx(1.0)
