"""Signal-processing substrate used throughout the reproduction.

This package provides the DSP building blocks the paper's processing
chains rely on:

* filtering (moving average, Butterworth band-pass, FIR),
* peak detection (simple local maxima and the adaptive-threshold scheme
  used by the AT heart-rate predictor),
* spectral analysis (windowed FFT, dominant-frequency extraction in the
  heart-rate band),
* sliding-window segmentation with the paper's geometry (256-sample
  windows, 64-sample stride at 32 Hz),
* statistical feature extraction for the activity-recognition Random
  Forest (mean, energy, standard deviation, number of peaks).

Everything operates on plain :class:`numpy.ndarray` inputs so the same
functions can be used by the dataset generator, the HR models, and the
evaluation harness.
"""

from repro.signal.filters import (
    butter_bandpass,
    butter_bandpass_filter,
    detrend,
    fir_lowpass,
    moving_average,
    moving_average_batch,
    normalize,
    standardize,
)
from repro.signal.peaks import (
    adaptive_threshold_peaks,
    adaptive_threshold_peaks_batch,
    count_sign_changes,
    count_sign_changes_batch,
    find_peaks_simple,
    peak_intervals_to_bpm,
    peak_intervals_to_bpm_batch,
)
from repro.signal.spectral import (
    dominant_frequency,
    hr_from_spectrum,
    power_spectrum,
    spectral_entropy,
    welch_spectrum,
)
from repro.signal.windowing import (
    WindowSpec,
    num_windows,
    sliding_windows,
    window_start_times,
)
from repro.signal.features import (
    FEATURE_NAMES,
    accelerometer_features,
    feature_vector,
    signal_energy,
)
from repro.signal.resample import linear_resample, resample_to_rate

__all__ = [
    "butter_bandpass",
    "butter_bandpass_filter",
    "detrend",
    "fir_lowpass",
    "moving_average",
    "moving_average_batch",
    "normalize",
    "standardize",
    "adaptive_threshold_peaks",
    "adaptive_threshold_peaks_batch",
    "count_sign_changes",
    "count_sign_changes_batch",
    "find_peaks_simple",
    "peak_intervals_to_bpm",
    "peak_intervals_to_bpm_batch",
    "dominant_frequency",
    "hr_from_spectrum",
    "power_spectrum",
    "spectral_entropy",
    "welch_spectrum",
    "WindowSpec",
    "num_windows",
    "sliding_windows",
    "window_start_times",
    "FEATURE_NAMES",
    "accelerometer_features",
    "feature_vector",
    "signal_energy",
    "linear_resample",
    "resample_to_rate",
]
