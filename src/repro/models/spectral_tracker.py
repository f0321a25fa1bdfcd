"""Frequency-domain HR baseline (extension beyond the paper's zoo).

The classical PPG literature the paper reviews (TROIKA and its followers)
estimates the heart rate from the dominant peak of the PPG spectrum,
optionally removing spectral components correlated with the accelerometer
to suppress motion artifacts.  This predictor implements a lightweight
version of that idea and is used in the reproduction as:

* a sanity check of the synthetic corpus (its accuracy must sit between
  AT's and the neural models'), and
* an additional zoo member for ablation benchmarks showing that CHRIS is
  orthogonal to the specific HR models used (Sec. III-C of the paper makes
  exactly that claim).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import FleetStack, FleetState, HeartRatePredictor, PredictorInfo
from repro.signal.spectral import HR_BAND_HZ, power_spectrum, power_spectrum_batch

#: Approximate operation count: one 1024-point FFT (~5 N log2 N real
#: operations) per channel plus the band search.
SPECTRAL_OPERATIONS_PER_WINDOW = 60_000


class SpectralHRPredictor(HeartRatePredictor):
    """Dominant-frequency HR estimation with accelerometer spectrum masking.

    Parameters
    ----------
    fs:
        Sampling frequency (Hz).
    band:
        Heart-rate search band in Hz.
    accel_suppression:
        Strength of the motion-artifact suppression: the PPG power at each
        frequency is divided by ``1 + accel_suppression * normalized
        accelerometer power``; 0 disables the masking.
    tracking_weight:
        Weight (0–1) of the previous estimate when the new dominant
        frequency jumps implausibly far; a simple tracking smoother.
    """

    # Equivalence-contract flag (REP004 requires it explicit): the
    # tracking smoother is stateful, so fleet prediction goes through the
    # stacked-state path.
    FLEET_BATCHABLE = False

    def __init__(
        self,
        fs: float = 32.0,
        band: tuple[float, float] = HR_BAND_HZ,
        accel_suppression: float = 2.0,
        tracking_weight: float = 0.5,
    ) -> None:
        super().__init__(fs=fs)
        if band[0] <= 0 or band[1] <= band[0]:
            raise ValueError(f"invalid HR band {band}")
        if accel_suppression < 0:
            raise ValueError(f"accel_suppression must be >= 0, got {accel_suppression}")
        if not 0.0 <= tracking_weight < 1.0:
            raise ValueError(f"tracking_weight must lie in [0, 1), got {tracking_weight}")
        self.band = band
        self.accel_suppression = accel_suppression
        self.tracking_weight = tracking_weight

    @property
    def info(self) -> PredictorInfo:
        return PredictorInfo(
            name="SpectralTracker",
            n_parameters=0,
            macs_per_window=SPECTRAL_OPERATIONS_PER_WINDOW,
            uses_accelerometer=True,
        )

    def predict_window(
        self,
        ppg_window: np.ndarray,
        accel_window: np.ndarray | None = None,
        **context,
    ) -> float:
        ppg_window = np.asarray(ppg_window, dtype=float)
        if ppg_window.ndim != 1:
            raise ValueError(f"expected a 1-D PPG window, got shape {ppg_window.shape}")
        freqs, ppg_power = power_spectrum(ppg_window, self.fs)

        if accel_window is not None and self.accel_suppression > 0:
            accel_window = np.asarray(accel_window, dtype=float)
            if accel_window.ndim == 1:
                accel_window = accel_window[:, None]
            accel_power = np.zeros_like(ppg_power)
            for axis in range(accel_window.shape[1]):
                _, p = power_spectrum(accel_window[:, axis], self.fs, nfft=2 * (freqs.size - 1))
                accel_power += p[: ppg_power.size]
            peak = accel_power.max()
            if peak > 0:
                ppg_power = ppg_power / (1.0 + self.accel_suppression * accel_power / peak)

        mask = (freqs >= self.band[0]) & (freqs <= self.band[1])
        band_freqs = freqs[mask]
        band_power = ppg_power[mask]
        if band_power.size == 0 or band_power.max() <= 0:
            return self._with_fallback(float("nan"))
        bpm = 60.0 * float(band_freqs[int(np.argmax(band_power))])

        # Simple tracking: damp implausible jumps relative to the previous
        # estimate (the classical trackers the paper cites do the same).
        if self._last_estimate is not None and abs(bpm - self._last_estimate) > 25.0:
            bpm = (
                self.tracking_weight * self._last_estimate
                + (1.0 - self.tracking_weight) * bpm
            )
        return self._with_fallback(bpm)

    # ---------------------------------------------------------------- fleet
    def _raw_band_peaks(  # hot-path
        self, ppg_windows: np.ndarray, accel_windows: np.ndarray | None
    ) -> np.ndarray:
        """State-free dominant-band estimates (BPM) for a batch of windows.

        Vectorized version of the state-independent half of
        :meth:`predict_window`: batched spectra, batched accelerometer
        suppression, per-row band argmax.  NaN where no positive band
        peak exists.  Each row is bit-identical to the scalar path.
        """
        ppg_windows = np.asarray(ppg_windows, dtype=float)
        if ppg_windows.ndim != 2:
            raise ValueError(
                f"expected (n, length) PPG windows, got shape {ppg_windows.shape}"
            )
        freqs, power = power_spectrum_batch(ppg_windows, self.fs)

        if accel_windows is not None and self.accel_suppression > 0:
            accel_windows = np.asarray(accel_windows, dtype=float)
            if accel_windows.ndim == 2:
                accel_windows = accel_windows[:, :, None]
            accel_power = np.zeros_like(power)
            nfft = 2 * (freqs.size - 1)
            for axis in range(accel_windows.shape[2]):  # loop-ok: per accel axis (3), spectra are batched inside
                _, p = power_spectrum_batch(
                    accel_windows[:, :, axis], self.fs, nfft=nfft
                )
                accel_power += p[:, : power.shape[1]]
            peak = accel_power.max(axis=1)
            rows = peak > 0
            if np.any(rows):
                power[rows] = power[rows] / (
                    1.0 + self.accel_suppression * accel_power[rows] / peak[rows, None]
                )

        mask = (freqs >= self.band[0]) & (freqs <= self.band[1])
        band_freqs = freqs[mask]
        band_power = power[:, mask]
        bpm = np.full(ppg_windows.shape[0], np.nan)
        if band_freqs.size:
            best = np.argmax(band_power, axis=1)
            has_peak = band_power[np.arange(best.size), best] > 0
            bpm[has_peak] = 60.0 * band_freqs[best[has_peak]]
        return bpm

    def predict_fleet(  # hot-path
        self,
        ppg_windows: np.ndarray,
        accel_windows: np.ndarray | None = None,
        subject_index: np.ndarray | None = None,
        state: FleetState | None = None,
        **context,
    ) -> np.ndarray:
        """Stacked-state fused prediction over many subjects' streams.

        The dominant-band estimate is state-free and computed for all
        windows at once; the tracking smoother and the NaN fallback are
        the only recurrences, so they run in lock-step — one vector step
        per stream position over the per-subject state slots — which is
        bit-identical to replaying each subject alone.
        """
        if subject_index is None or state is None:
            raise TypeError("predict_fleet requires subject_index and state")
        raw = self._raw_band_peaks(ppg_windows, accel_windows)
        subject_index = self._check_fleet_stack(raw.shape[0], subject_index, state)
        if raw.size == 0:
            return raw
        stack = FleetStack(subject_index, state.n_slots)
        dense = stack.stack_steps(raw)
        out = np.empty_like(dense)
        est = stack.gather_slots(state.last_estimate)
        w = self.tracking_weight
        with np.errstate(invalid="ignore"):
            for t in range(dense.shape[0]):  # loop-ok: lock-step over stream positions, vectorized across slots
                k = int(stack.widths[t])
                bpm = dense[t, :k]
                e = est[:k]
                invalid = np.isnan(bpm)
                has_last = ~np.isnan(e)
                jump = has_last & ~invalid & (np.abs(bpm - e) > 25.0)
                bpm = np.where(jump, w * e + (1.0 - w) * bpm, bpm)
                out[t, :k] = np.where(
                    invalid, np.where(has_last, e, self.FALLBACK_BPM), bpm
                )
                est[:k] = np.where(invalid, e, bpm)
        stack.scatter_slots(est, state.last_estimate)
        self.reset()
        return stack.unstack_steps(out)
