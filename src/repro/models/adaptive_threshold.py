"""Adaptive-Threshold (AT) heart-rate predictor.

The simplest model of the paper's zoo, taken from Shin et al. ("Adaptive
threshold method for the peak detection of photoplethysmographic
waveform"): the rolling mean of the PPG over a 24-sample window acts as an
adaptive threshold; contiguous regions above the threshold are regions of
interest, the maximum of each region is a peak, and the average distance
between successive peaks gives the heart rate.

The paper characterizes AT at roughly 3 k operations per 256-sample window
and 10.99 BPM MAE on PPG-DaLiA; it is the cheapest and least accurate
member of the zoo, and the one CHRIS keeps on the smartwatch for easy
(low-motion) windows.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes import resolve_dtype
from repro.models.base import FleetState, HeartRatePredictor, PredictorInfo
from repro.signal.peaks import (
    adaptive_threshold_peaks,
    adaptive_threshold_peaks_batch,
    peak_intervals_to_bpm,
    peak_intervals_to_bpm_batch,
)

#: Operation count per window used for energy modelling.  The algorithm
#: performs one rolling-mean update, one comparison, and one running-max
#: update per sample over a 256-sample window, plus the final interval
#: averaging — about 3 k elementary operations, the figure quoted in the
#: paper (Sec. III-C).
AT_OPERATIONS_PER_WINDOW = 3_000


class AdaptiveThresholdPredictor(HeartRatePredictor):
    """Peak-tracking HR estimation with a rolling-mean adaptive threshold.

    Parameters
    ----------
    fs:
        Sampling frequency of the PPG windows (Hz).
    window:
        Rolling-mean length in samples (24 in the paper).
    min_bpm, max_bpm:
        Plausibility band used to reject spurious inter-peak intervals.
    """

    # Equivalence-contract flag (REP004 requires it explicit): AT is
    # stateful (NaN fallback carries across windows), so the fleet path
    # must go through the stacked-state predict_fleet, not naive window
    # batching.
    FLEET_BATCHABLE = False
    #: Peaks are found on the PPG alone.
    READS_ACCELEROMETER = False

    def __init__(
        self,
        fs: float = 32.0,
        window: int = 24,
        min_bpm: float = 30.0,
        max_bpm: float = 220.0,
    ) -> None:
        super().__init__(fs=fs)
        if window < 2:
            raise ValueError(f"rolling-mean window must be >= 2 samples, got {window}")
        if not 0 < min_bpm < max_bpm:
            raise ValueError(f"invalid BPM band [{min_bpm}, {max_bpm}]")
        self.window = window
        self.min_bpm = min_bpm
        self.max_bpm = max_bpm
        #: Floating dtype the threshold/peak kernels run in; the window
        #: coercion below pins inputs to it, and the batched kernels
        #: inherit it (see repro.signal.peaks).  BPM conversion stays
        #: float64 (intervals come from integer peak positions).
        self._dtype = resolve_dtype(None)

    def set_inference_dtype(self, dtype) -> "AdaptiveThresholdPredictor":
        self._dtype = resolve_dtype(dtype)
        return self

    @property
    def info(self) -> PredictorInfo:
        return PredictorInfo(
            name="AT",
            n_parameters=0,
            macs_per_window=AT_OPERATIONS_PER_WINDOW,
            uses_accelerometer=False,
        )

    def predict_window(
        self,
        ppg_window: np.ndarray,
        accel_window: np.ndarray | None = None,
        **context,
    ) -> float:
        ppg_window = np.asarray(ppg_window, dtype=self._dtype)
        if ppg_window.ndim != 1:
            raise ValueError(f"AT expects a 1-D PPG window, got shape {ppg_window.shape}")
        return self._with_fallback(self._raw_window_estimate(ppg_window))

    def _raw_window_estimate(self, ppg_window: np.ndarray) -> float:
        """State-free peak-interval estimate (NaN when no valid interval).

        The scalar reference; :meth:`_raw_window_estimate_batch` is the
        vectorized twin and is pinned bit-identical per row, so the two
        can never diverge on the raw estimate.
        """
        peaks = adaptive_threshold_peaks(ppg_window, window=self.window)
        return peak_intervals_to_bpm(
            peaks, fs=self.fs, min_bpm=self.min_bpm, max_bpm=self.max_bpm
        )

    def _raw_window_estimate_batch(self, ppg_windows: np.ndarray) -> np.ndarray:  # hot-path
        """Vectorized :meth:`_raw_window_estimate` over a window batch.

        One batched threshold recurrence + region extraction for the
        whole ``(n_windows, window_len)`` stack instead of a Python loop
        per window; every row is bit-identical to the scalar estimate of
        that window (see :mod:`repro.signal.peaks`), and rows are
        independent, so any batch composition yields the same per-row
        values.
        """
        rows, positions = adaptive_threshold_peaks_batch(
            ppg_windows, window=self.window
        )
        return peak_intervals_to_bpm_batch(
            rows,
            positions,
            ppg_windows.shape[0],
            fs=self.fs,
            min_bpm=self.min_bpm,
            max_bpm=self.max_bpm,
        )

    # ---------------------------------------------------------------- batch
    def predict(  # hot-path
        self,
        ppg_windows: np.ndarray,
        accel_windows: np.ndarray | None = None,
        **context,
    ) -> np.ndarray:
        """Vectorized single-stream prediction over a window batch.

        Raw estimates come from the batched detector; the NaN fallback
        (reuse the last valid estimate, default when none exists yet) is
        a vectorized forward fill seeded from the instance state —
        value-for-value what looping :meth:`predict_window` produces.
        """
        ppg_windows = np.asarray(ppg_windows, dtype=self._dtype)
        if ppg_windows.ndim != 2:
            raise ValueError(
                f"AT expects (n, length) PPG windows, got shape {ppg_windows.shape}"
            )
        # BPM estimates are deliberately float64 regardless of the kernel
        # dtype: intervals come from integer peak positions, and the class
        # contract (see __init__) keeps the conversion in the reference
        # precision — the empty batch included.
        if ppg_windows.shape[0] == 0:
            return np.empty(0, dtype=float)  # lint-ok: REP001
        raw = self._raw_window_estimate_batch(ppg_windows)
        seed = np.nan if self._last_estimate is None else self._last_estimate
        stream = np.concatenate([[seed], raw])
        valid = ~np.isnan(stream)
        idx = np.where(valid, np.arange(stream.size, dtype=np.intp), 0)
        np.maximum.accumulate(idx, out=idx)
        filled = stream[idx]
        self._last_estimate = None if np.isnan(filled[-1]) else float(filled[-1])
        out = filled[1:]
        return np.where(np.isnan(out), self.FALLBACK_BPM, out)

    # ---------------------------------------------------------------- fleet
    def predict_fleet(  # hot-path
        self,
        ppg_windows: np.ndarray,
        accel_windows: np.ndarray | None = None,
        subject_index: np.ndarray | None = None,
        state: FleetState | None = None,
        **context,
    ) -> np.ndarray:
        """Stacked-state fused prediction over many subjects' streams.

        The raw peak-interval estimate is state-free per window; AT's
        only temporal state is the NaN fallback (no-peak windows reuse
        the last valid estimate), which is applied vectorized per state
        slot — bit-identical to per-subject replay.
        """
        if subject_index is None or state is None:
            raise TypeError("predict_fleet requires subject_index and state")
        ppg_windows = np.asarray(ppg_windows, dtype=self._dtype)
        if ppg_windows.ndim != 2:
            raise ValueError(
                f"AT expects (n, length) PPG windows, got shape {ppg_windows.shape}"
            )
        subject_index = self._check_fleet_stack(
            ppg_windows.shape[0], subject_index, state
        )
        raw = self._raw_window_estimate_batch(ppg_windows)
        out = self._with_fallback_fleet(raw, subject_index, state)
        self.reset()
        return out
