"""Filtering and normalization primitives.

The heart-rate models in the paper operate on raw PPG sampled at 32 Hz.
The classical Adaptive-Threshold predictor uses a rolling mean, while the
deep models are fed standardized windows.  The dataset generator also
needs band-limited noise shaping, for which the Butterworth band-pass is
used.  All filters are implemented on top of :mod:`numpy` / :mod:`scipy`
and accept 1-D arrays (the last axis is filtered for N-D inputs where it
makes sense).
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sps

from repro.dtypes import as_floating


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Causal rolling mean with the same length as the input.

    The first ``window - 1`` samples use the mean of the samples seen so
    far (expanding window), mirroring the behaviour of the on-device
    implementation of the Adaptive-Threshold algorithm, which cannot look
    into the future.

    Parameters
    ----------
    x:
        1-D input signal.
    window:
        Number of samples of the rolling window (must be >= 1).

    Returns
    -------
    numpy.ndarray
        Array of the same shape as ``x`` holding the rolling mean.
    """
    x = as_floating(x)
    if x.ndim != 1:
        raise ValueError(f"moving_average expects a 1-D signal, got shape {x.shape}")
    # Delegate to the batched twin with a single row: one implementation
    # of the recurrence means the scalar and batched AT paths cannot
    # drift apart (their bit-identity contract rests on this).
    return moving_average_batch(x[None, :], window)[0]


def moving_average_batch(x: np.ndarray, window: int) -> np.ndarray:  # hot-path
    """Row-wise :func:`moving_average` over a ``(n_rows, length)`` batch.

    Every row is processed exactly like the scalar function processes a
    1-D signal — the cumulative sum, the expanding warm-up division and
    the steady-state difference are the same elementwise operations, so
    each output row is bit-identical to ``moving_average(x[i], window)``.

    Parameters
    ----------
    x:
        2-D batch of signals (one row per signal).
    window:
        Number of samples of the rolling window (must be >= 1).
    """
    x = as_floating(x)
    if x.ndim != 2:
        raise ValueError(f"moving_average_batch expects a 2-D batch, got shape {x.shape}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window == 1:
        return x.copy()
    length = x.shape[1]
    cumsum = np.cumsum(x, axis=1)
    out = np.empty_like(x)
    head = min(window - 1, length)
    # The warm-up divisors and the zero pad inherit the input dtype: small
    # integers are exact in float32 as in float64, so the recurrence stays
    # bit-identical per precision while never widening a float32 batch.
    out[:, :head] = cumsum[:, :head] / np.arange(1, head + 1, dtype=x.dtype)
    if length >= window:
        shifted = np.concatenate(
            [np.zeros((x.shape[0], 1), dtype=cumsum.dtype), cumsum[:, :-window]], axis=1
        )
        out[:, window - 1:] = (cumsum[:, window - 1:] - shifted) / window
    return out


def butter_bandpass(lowcut: float, highcut: float, fs: float, order: int = 4):
    """Design a Butterworth band-pass filter.

    Returns second-order sections suitable for :func:`scipy.signal.sosfiltfilt`.
    """
    nyq = 0.5 * fs
    if not 0.0 < lowcut < highcut < nyq:
        raise ValueError(
            f"band edges must satisfy 0 < lowcut < highcut < fs/2, "
            f"got lowcut={lowcut}, highcut={highcut}, fs={fs}"
        )
    sos = sps.butter(order, [lowcut / nyq, highcut / nyq], btype="band", output="sos")
    return sos


def butter_bandpass_filter(
    x: np.ndarray,
    lowcut: float,
    highcut: float,
    fs: float,
    order: int = 4,
) -> np.ndarray:
    """Zero-phase Butterworth band-pass filtering of a 1-D signal."""
    x = np.asarray(x, dtype=float)
    sos = butter_bandpass(lowcut, highcut, fs, order=order)
    # ``sosfiltfilt`` needs a minimum signal length; fall back to a causal
    # filter for very short signals (can happen in unit tests).
    min_len = 3 * (2 * order + 1)
    if x.shape[-1] <= min_len:
        return sps.sosfilt(sos, x)
    return sps.sosfiltfilt(sos, x)


def fir_lowpass(x: np.ndarray, cutoff: float, fs: float, numtaps: int = 31) -> np.ndarray:
    """FIR low-pass filter (Hamming window design), zero-phase via ``filtfilt``."""
    x = np.asarray(x, dtype=float)
    nyq = 0.5 * fs
    if not 0.0 < cutoff < nyq:
        raise ValueError(f"cutoff must lie in (0, fs/2), got {cutoff} with fs={fs}")
    taps = sps.firwin(numtaps, cutoff / nyq)
    if x.shape[-1] <= 3 * numtaps:
        return np.convolve(x, taps, mode="same")
    return sps.filtfilt(taps, [1.0], x)


def detrend(x: np.ndarray) -> np.ndarray:
    """Remove the best-fit straight line from a 1-D signal."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        return np.zeros_like(x)
    t = np.arange(x.size, dtype=x.dtype)
    slope, intercept = np.polyfit(t, x, 1)
    return x - (slope * t + intercept)


def normalize(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Scale a signal to the [-1, 1] range (max-abs normalization)."""
    x = np.asarray(x, dtype=float)
    scale = np.max(np.abs(x))
    if scale < eps:
        return np.zeros_like(x)
    return x / scale


def standardize(x: np.ndarray, axis: int = -1, eps: float = 1e-8) -> np.ndarray:
    """Zero-mean / unit-variance standardization along ``axis``.

    This is the pre-processing applied to each input window before it is
    fed to the TimePPG networks.
    """
    x = as_floating(x)
    mean = x.mean(axis=axis, keepdims=True)
    std = x.std(axis=axis, keepdims=True)
    return (x - mean) / (std + eps)
