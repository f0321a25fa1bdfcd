"""Statistical features for the activity-recognition Random Forest.

The paper selects, via grid search over common statistical features, the
following four predictors computed on the three accelerometer axes:

* mean,
* energy (mean of the squared signal),
* standard deviation,
* number of peaks (sign changes of the discrete derivative).

Each feature is computed per axis and the per-axis values are then
averaged, keeping the feature vector at 4 entries — small enough for the
LSM6DSM ML core.  The extended set adds extra candidates (used by the
grid-search reproduction in the benchmarks).

:func:`feature_vector` is the one implementation: it computes every
feature for a whole ``(n_windows, n_samples, n_axes)`` batch with array
reductions, in fixed chunks of :data:`CHUNK_WINDOWS` windows so its
temporaries stay bounded.  Each chunk is copied time-major, to
``(n_samples, windows x axes)``, and every per-axis statistic is a
reduction over its first axis.  That reduction accumulates samples
strictly in order, exactly as a per-window ``x.mean(axis=0)`` over
``(n_samples, n_axes)`` does (single-axis windows, which numpy sums
pairwise, keep one row per window instead), so a window's features are
bitwise the same whatever it is batched with.
:func:`accelerometer_features` and :func:`extended_accelerometer_features`
are one-window calls into it.
"""

from __future__ import annotations

import numpy as np

from repro.signal.peaks import count_sign_changes_batch

FEATURE_NAMES: tuple[str, ...] = ("mean", "energy", "std", "n_peaks")
"""Names of the four features used by the paper, in order."""

EXTENDED_FEATURE_NAMES: tuple[str, ...] = FEATURE_NAMES + (
    "min",
    "max",
    "range",
    "mean_abs_diff",
    "rms",
)
"""Names of the extended feature set used by the feature grid search."""

CHUNK_WINDOWS = 128
"""Windows per feature-extraction chunk.

At 256 samples x 3 axes a chunk's temporaries are ~0.8 MB each, so a
chunk's working set stays near the L2 cache and peak memory does not
grow with the batch.
"""


def signal_energy(x: np.ndarray) -> float:
    """Mean squared value of a signal (per-sample energy)."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return 0.0
    return float(np.mean(x ** 2))


def _per_axis(x: np.ndarray) -> np.ndarray:
    """Validate and reshape input to ``(n_samples, n_axes)``."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"expected a (n_samples, n_axes) array, got shape {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("feature extraction received an empty window")
    return x


def accelerometer_features(window: np.ndarray) -> np.ndarray:
    """The paper's 4-feature vector for one accelerometer window.

    Parameters
    ----------
    window:
        Array of shape ``(n_samples, 3)`` (or ``(n_samples,)`` for a
        single axis) holding raw acceleration.

    Returns
    -------
    numpy.ndarray
        Vector ``[mean, energy, std, n_peaks]`` where each entry is the
        average of the per-axis values.
    """
    return feature_vector(_per_axis(window)[None])[0]


def extended_accelerometer_features(window: np.ndarray) -> np.ndarray:
    """Extended statistical feature vector (9 entries), axis-averaged.

    Used to reproduce the paper's grid search that selected the 4 features
    of :func:`accelerometer_features` out of a larger candidate pool.
    """
    return feature_vector(_per_axis(window)[None], extended=True)[0]


def feature_vector(windows: np.ndarray, extended: bool = False) -> np.ndarray:  # hot-path
    """Feature matrix for a batch of accelerometer windows.

    Parameters
    ----------
    windows:
        Array of shape ``(n_windows, n_samples, n_axes)``.
    extended:
        When ``True``, compute the 9-feature extended set instead of the
        paper's 4 features.

    Returns
    -------
    numpy.ndarray
        ``(n_windows, n_features)`` feature matrix; ``(0, n_features)``
        for an empty batch.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim == 2:  # single-axis batch
        windows = windows[:, :, None]
    if windows.ndim != 3:
        raise ValueError(
            f"feature_vector expects (n_windows, n_samples, n_axes), got shape {windows.shape}"
        )
    if windows.shape[0] and windows.shape[1] == 0:
        raise ValueError("feature extraction received an empty window")
    n_features = len(EXTENDED_FEATURE_NAMES if extended else FEATURE_NAMES)
    out = np.empty((windows.shape[0], n_features))
    for start in range(0, windows.shape[0], CHUNK_WINDOWS):  # loop-ok: per chunk of CHUNK_WINDOWS windows, bounds temporaries
        stop = start + CHUNK_WINDOWS
        _chunk_features(windows[start:stop], extended, out[start:stop])
    return out


def _chunk_features(windows: np.ndarray, extended: bool, out: np.ndarray) -> None:  # hot-path
    """Write one chunk's axis-averaged features into ``out``.

    Per-axis statistics are reductions over the sample axis of a
    ``windows x axes`` column stack, then averaged over each window's
    axes.  The layout reproduces how numpy reduces one window: samples are
    summed strictly in order across several axes, but a lone axis is
    contiguous and summed pairwise.  So multi-axis chunks go time-major,
    ``(n_samples, columns)``, reduced over axis 0, and single-axis chunks
    stay ``(columns, n_samples)``, reduced over axis 1.
    """
    n, length, n_axes = windows.shape
    if n_axes > 1:
        axis = 0
        data = np.ascontiguousarray(windows.transpose(1, 0, 2)).reshape(length, n * n_axes)
    else:
        axis = 1
        data = windows[:, :, 0]

    def sample_mean(values: np.ndarray, count: int) -> np.ndarray:
        return np.add.reduce(values, axis=axis, keepdims=True) / count

    def axis_mean(per_column: np.ndarray) -> np.ndarray:
        return per_column.reshape(n, n_axes).mean(axis=1)

    means = sample_mean(data, length)
    energies = sample_mean(data * data, length)
    deviation = data - means
    np.multiply(deviation, deviation, out=deviation)
    stds = np.sqrt(sample_mean(deviation, length))
    n_peaks = count_sign_changes_batch(data.T if axis == 0 else data).astype(float)
    out[:, 0] = axis_mean(means)
    out[:, 1] = axis_mean(energies)
    out[:, 2] = axis_mean(stds)
    out[:, 3] = axis_mean(n_peaks)
    if not extended:
        return
    lows = data.min(axis=axis)
    highs = data.max(axis=axis)
    out[:, 4] = axis_mean(lows)
    out[:, 5] = axis_mean(highs)
    out[:, 6] = axis_mean(highs - lows)
    if length > 1:
        out[:, 7] = axis_mean(sample_mean(np.abs(np.diff(data, axis=axis)), length - 1))
    else:
        out[:, 7] = 0.0
    out[:, 8] = axis_mean(np.sqrt(energies))
