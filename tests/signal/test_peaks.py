"""Tests for repro.signal.peaks."""

import numpy as np
import pytest

from repro.signal.peaks import (
    adaptive_threshold_peaks,
    adaptive_threshold_peaks_batch,
    count_sign_changes,
    count_sign_changes_batch,
    find_peaks_simple,
    peak_intervals_to_bpm,
    peak_intervals_to_bpm_batch,
)
from tests.signal.feature_oracle import count_sign_changes_oracle


def synthetic_pulse_train(bpm: float, fs: float = 32.0, duration_s: float = 20.0) -> np.ndarray:
    """Sharp periodic pulses at a known rate."""
    t = np.arange(0, duration_s, 1 / fs)
    phase = (t * bpm / 60.0) % 1.0
    return np.exp(-0.5 * ((phase - 0.3) / 0.05) ** 2)


class TestFindPeaksSimple:
    def test_finds_all_peaks_of_a_pulse_train(self):
        x = synthetic_pulse_train(60.0)
        peaks = find_peaks_simple(x, min_distance=10)
        # 60 BPM for 20 s -> about 20 peaks.
        assert 18 <= peaks.size <= 21

    def test_min_distance_is_enforced(self):
        x = synthetic_pulse_train(120.0)
        peaks = find_peaks_simple(x, min_distance=20)
        assert np.all(np.diff(peaks) >= 20)

    def test_min_height_filters_small_peaks(self):
        x = np.zeros(50)
        x[10] = 1.0
        x[30] = 0.2
        peaks = find_peaks_simple(x, min_height=0.5)
        assert list(peaks) == [10]

    def test_short_and_empty_signals(self):
        assert find_peaks_simple(np.array([])).size == 0
        assert find_peaks_simple(np.array([1.0, 2.0])).size == 0

    def test_rejects_bad_min_distance(self):
        with pytest.raises(ValueError):
            find_peaks_simple(np.ones(10), min_distance=0)

    def test_monotonic_signal_has_no_peaks(self):
        assert find_peaks_simple(np.arange(20.0)).size == 0


class TestAdaptiveThresholdPeaks:
    def test_detects_pulse_train_rate(self):
        fs = 32.0
        x = synthetic_pulse_train(75.0, fs=fs)
        peaks = adaptive_threshold_peaks(x, window=24)
        bpm = peak_intervals_to_bpm(peaks, fs)
        assert bpm == pytest.approx(75.0, abs=6.0)

    def test_one_peak_per_region_of_interest(self):
        x = np.zeros(100)
        x[20:25] = [1, 3, 5, 3, 1]
        x[60:65] = [1, 2, 6, 2, 1]
        peaks = adaptive_threshold_peaks(x, window=24)
        assert list(peaks) == [22, 62]

    def test_flat_signal_yields_no_peaks(self):
        assert adaptive_threshold_peaks(np.zeros(64)).size == 0

    def test_empty_signal(self):
        assert adaptive_threshold_peaks(np.array([])).size == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            adaptive_threshold_peaks(np.ones((4, 4)))


class TestAdaptiveThresholdPeaksBatch:
    """The batched detector must be bit-identical per row to the scalar one."""

    def assert_rows_identical(self, x: np.ndarray, window: int = 24) -> None:
        rows, positions = adaptive_threshold_peaks_batch(x, window=window)
        assert np.all(np.diff(rows * (x.shape[1] + 1) + positions) > 0)
        for i in range(x.shape[0]):
            np.testing.assert_array_equal(
                adaptive_threshold_peaks(x[i], window=window), positions[rows == i]
            )

    @pytest.mark.parametrize("length", [16, 64, 256])
    def test_random_batches_match_scalar(self, length):
        rng = np.random.default_rng(length)
        self.assert_rows_identical(rng.standard_normal((64, length)))

    def test_pulse_trains_match_scalar(self):
        x = np.stack(
            [synthetic_pulse_train(bpm, duration_s=8.0) for bpm in (55.0, 80.0, 140.0)]
        )
        self.assert_rows_identical(x)

    def test_edge_windows(self):
        """Flat, all-NaN and single-peak rows behave exactly like scalar."""
        x = np.zeros((4, 64))
        x[1] = np.nan
        x[2, 30] = 1.0  # a single peak
        x[3] = np.sin(np.linspace(0, 12 * np.pi, 64))
        self.assert_rows_identical(x)

    def test_tied_region_maxima_pick_the_first(self):
        """Quantized rows tie maxima inside regions; argmax takes the first."""
        rng = np.random.default_rng(7)
        x = np.round(rng.standard_normal((64, 96)) * 2)
        x[0, 40:44] = 9.0  # a flat-topped region
        rows, _ = adaptive_threshold_peaks_batch(x)
        self.assert_rows_identical(x)
        self.assert_rows_identical(x.astype(np.float32))
        assert rows.size > 0

    def test_empty_batches(self):
        rows, positions = adaptive_threshold_peaks_batch(np.zeros((0, 32)))
        assert rows.size == 0 and positions.size == 0
        rows, positions = adaptive_threshold_peaks_batch(np.zeros((3, 0)))
        assert rows.size == 0 and positions.size == 0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            adaptive_threshold_peaks_batch(np.zeros(16))


class TestPeakIntervalsToBpmBatch:
    def rows_reference(self, rows, positions, n_rows, **kwargs):
        return np.array(
            [
                peak_intervals_to_bpm(positions[rows == i], **kwargs)
                for i in range(n_rows)
            ]
        )

    def test_matches_scalar_per_row(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((50, 256))
        x[7] = 0.0  # no peaks at all
        rows, positions = adaptive_threshold_peaks_batch(x)
        batch = peak_intervals_to_bpm_batch(rows, positions, x.shape[0], fs=32.0)
        np.testing.assert_array_equal(
            batch, self.rows_reference(rows, positions, x.shape[0], fs=32.0)
        )

    def test_band_filter_matches_scalar(self):
        # Peaks engineered so some intervals fall outside the BPM band.
        rows = np.array([0, 0, 0, 1, 1, 2])
        positions = np.array([0, 1, 33, 10, 42, 5])
        batch = peak_intervals_to_bpm_batch(rows, positions, 3, fs=32.0)
        np.testing.assert_array_equal(
            batch, self.rows_reference(rows, positions, 3, fs=32.0)
        )
        assert np.isnan(batch[2])  # single peak -> no interval

    def test_no_peaks_everywhere(self):
        out = peak_intervals_to_bpm_batch(
            np.array([], dtype=int), np.array([], dtype=int), 4, fs=32.0
        )
        assert out.shape == (4,)
        assert np.all(np.isnan(out))


class TestPeakIntervalsToBpm:
    def test_exact_rate_from_uniform_peaks(self):
        fs = 32.0
        peaks = np.arange(0, 320, 32)  # one peak per second -> 60 BPM
        assert peak_intervals_to_bpm(peaks, fs) == pytest.approx(60.0)

    def test_too_few_peaks_gives_nan(self):
        assert np.isnan(peak_intervals_to_bpm(np.array([5]), 32.0))

    def test_implausible_intervals_are_discarded(self):
        fs = 32.0
        # One valid 1-second interval plus an absurd 1-sample interval.
        peaks = np.array([0, 32, 33])
        assert peak_intervals_to_bpm(peaks, fs) == pytest.approx(60.0)

    def test_all_implausible_gives_nan(self):
        peaks = np.array([0, 1, 2])
        assert np.isnan(peak_intervals_to_bpm(peaks, 32.0))


class TestCountSignChanges:
    def test_pure_sinusoid(self):
        t = np.arange(0, 4, 1 / 32)
        x = np.sin(2 * np.pi * 1.0 * t)  # 4 cycles -> ~8 derivative sign changes
        changes = count_sign_changes(x)
        assert 7 <= changes <= 9

    def test_monotonic_has_zero(self):
        assert count_sign_changes(np.arange(50.0)) == 0

    def test_constant_has_zero(self):
        assert count_sign_changes(np.full(30, 2.0)) == 0

    def test_short_signal(self):
        assert count_sign_changes(np.array([1.0, 2.0])) == 0

    def test_faster_oscillation_has_more_changes(self):
        t = np.arange(0, 8, 1 / 32)
        slow = count_sign_changes(np.sin(2 * np.pi * 0.5 * t))
        fast = count_sign_changes(np.sin(2 * np.pi * 3.0 * t))
        assert fast > slow

    @pytest.mark.parametrize(
        "x", [[0, 0, 0, 1, 0], [1, 1, 2, 1], [1, 2, 2, 1], [3, 3, 3, 2, 4]]
    )
    def test_plateaus_count_one_change(self, x):
        # Regression: a leading plateau used to count as a change of its
        # own (0 -> +1), so the first two returned 2.
        assert count_sign_changes(np.array(x, dtype=float)) == 1

    def test_leading_plateau_before_falling_step(self):
        assert count_sign_changes(np.array([5.0, 5.0, 4.0, 4.0, 6.0, 6.0])) == 1


class TestCountSignChangesBatch:
    def test_rows_match_per_row_oracle(self):
        rng = np.random.default_rng(0)
        rows = np.round(rng.normal(size=(40, 30)) * 2)  # quantized: plateaus
        rows[3] = 1.0  # constant row
        rows[5, :10] = rows[5, 10]  # leading plateau
        counts = count_sign_changes_batch(rows)
        assert counts.shape == (40,)
        assert np.array_equal(counts, [count_sign_changes_oracle(row) for row in rows])
        assert np.array_equal(counts, [count_sign_changes(row) for row in rows])
        assert counts[3] == 0

    def test_short_rows_have_no_changes(self):
        assert np.array_equal(count_sign_changes_batch(np.ones((4, 2))), np.zeros(4))
        assert count_sign_changes_batch(np.empty((0, 10))).shape == (0,)

    def test_strided_rows_accepted(self):
        x = np.random.default_rng(1).normal(size=(50, 6))
        assert np.array_equal(
            count_sign_changes_batch(x.T), count_sign_changes_batch(np.ascontiguousarray(x.T))
        )

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            count_sign_changes_batch(np.zeros(5))
