"""Sliding-window segmentation.

The paper cuts the 32 Hz PPG and accelerometer streams into windows of
256 samples (8 s) with a stride of 64 samples (2 s) before feeding them to
any HR model.  :class:`WindowSpec` captures that geometry and the helpers
here turn continuous recordings into window matrices, aligning the
ground-truth HR label with the *end* of each window (the convention used
by PPG-DaLiA, where the ECG-derived HR is reported every 2 seconds for the
preceding 8-second window).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WindowSpec:
    """Geometry of the sliding-window segmentation.

    Attributes
    ----------
    length:
        Window length in samples (paper: 256).
    stride:
        Hop between successive windows in samples (paper: 64).
    fs:
        Sampling frequency in Hz (paper: 32).
    """

    length: int = 256
    stride: int = 64
    fs: float = 32.0

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"window length must be positive, got {self.length}")
        if self.stride <= 0:
            raise ValueError(f"window stride must be positive, got {self.stride}")
        if self.fs <= 0:
            raise ValueError(f"sampling frequency must be positive, got {self.fs}")

    @property
    def duration_s(self) -> float:
        """Window duration in seconds."""
        return self.length / self.fs

    @property
    def stride_s(self) -> float:
        """Hop between windows in seconds."""
        return self.stride / self.fs

    def num_windows(self, n_samples: int) -> int:
        """Number of complete windows that fit in ``n_samples`` samples."""
        if n_samples < self.length:
            return 0
        return 1 + (n_samples - self.length) // self.stride


#: Default geometry used throughout the reproduction (the paper's setup).
DEFAULT_WINDOW_SPEC = WindowSpec(length=256, stride=64, fs=32.0)


def num_windows(n_samples: int, spec: WindowSpec = DEFAULT_WINDOW_SPEC) -> int:
    """Number of complete windows produced from ``n_samples`` samples."""
    return spec.num_windows(n_samples)


def sliding_windows(x: np.ndarray, spec: WindowSpec = DEFAULT_WINDOW_SPEC) -> np.ndarray:
    """Segment a signal into overlapping windows.

    Parameters
    ----------
    x:
        Array of shape ``(n_samples,)`` or ``(n_samples, n_channels)``.
    spec:
        Window geometry.

    Returns
    -------
    numpy.ndarray
        ``(n_windows, length)`` for 1-D input or
        ``(n_windows, length, n_channels)`` for 2-D input.  The data is
        copied, so windows can be modified independently of the source.
    """
    x = np.asarray(x)
    if x.ndim not in (1, 2):
        raise ValueError(f"sliding_windows expects 1-D or 2-D input, got shape {x.shape}")
    n = spec.num_windows(x.shape[0])
    if n == 0:
        tail_shape = (0, spec.length) if x.ndim == 1 else (0, spec.length, x.shape[1])
        return np.empty(tail_shape, dtype=x.dtype)
    # sliding_window_view puts the window axis last: move it back behind
    # the window index before copying.
    views = np.lib.stride_tricks.sliding_window_view(x, spec.length, axis=0)
    views = views[: n * spec.stride : spec.stride]
    return np.moveaxis(views, -1, 1).copy()


def window_start_times(n_samples: int, spec: WindowSpec = DEFAULT_WINDOW_SPEC) -> np.ndarray:
    """Start time (seconds) of each complete window in a recording."""
    n = spec.num_windows(n_samples)
    return np.arange(n) * spec.stride_s


def label_windows(labels: np.ndarray, spec: WindowSpec = DEFAULT_WINDOW_SPEC) -> np.ndarray:
    """Assign one label per window from a per-sample label stream.

    The label of a window is the majority per-sample label inside it (used
    for activity labels), the smallest label on a tie.  ``labels`` must be
    an integer array of per-sample annotations.  Window counts are
    differences of running per-label counts, so memory grows with the
    number of distinct labels times the stream length: meant for a handful
    of classes.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"label_windows expects 1-D labels, got shape {labels.shape}")
    n = spec.num_windows(labels.shape[0])
    if n == 0:
        return np.empty(0, dtype=labels.dtype)
    values, codes = np.unique(labels, return_inverse=True)
    running = np.zeros((labels.size + 1, values.size), dtype=np.intp)
    np.cumsum(codes[:, None] == np.arange(values.size), axis=0, out=running[1:])
    starts = np.arange(n) * spec.stride
    counts = running[starts + spec.length] - running[starts]
    return values[np.argmax(counts, axis=1)]
