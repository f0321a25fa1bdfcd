"""Per-window reference implementation of the accelerometer features.

This is the one-window-at-a-time code that ``repro.signal.features`` and
``count_sign_changes_batch`` replaced: a Python loop over windows, one
``count_sign_changes`` call per axis, and numpy's own per-window axis
reductions.  The batched kernels are pinned bitwise against it.  Its
plateau rule is the corrected one (a leading plateau takes the first
sign after it), so it is an oracle for the current semantics, not a copy
of the old leading-plateau bug.
"""

from __future__ import annotations

import numpy as np


def count_sign_changes_oracle(x: np.ndarray) -> int:
    """Sign changes of ``diff(x)``: plateaus fill forward, leading ones backward."""
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        return 0
    signs = np.sign(np.diff(x))
    nonzero = signs != 0
    if not nonzero.any():
        return 0
    idx = np.where(nonzero, np.arange(signs.size, dtype=np.intp), 0)
    np.maximum.accumulate(idx, out=idx)
    idx[: np.argmax(nonzero)] = np.argmax(nonzero)
    filled = signs[idx]
    return int(np.count_nonzero(np.diff(filled) != 0))


def _per_axis(window: np.ndarray) -> np.ndarray:
    x = np.asarray(window, dtype=float)
    return x[:, None] if x.ndim == 1 else x


def accelerometer_features_oracle(window: np.ndarray) -> np.ndarray:
    """``[mean, energy, std, n_peaks]`` of one window, axis-averaged."""
    x = _per_axis(window)
    means = x.mean(axis=0)
    energies = np.mean(x ** 2, axis=0)
    stds = x.std(axis=0)
    n_peaks = np.array(
        [count_sign_changes_oracle(x[:, i]) for i in range(x.shape[1])], dtype=float
    )
    return np.array([means.mean(), energies.mean(), stds.mean(), n_peaks.mean()])


def extended_accelerometer_features_oracle(window: np.ndarray) -> np.ndarray:
    """The 9-entry extended feature vector of one window."""
    x = _per_axis(window)
    base = accelerometer_features_oracle(x)
    mins = x.min(axis=0).mean()
    maxs = x.max(axis=0).mean()
    rng = (x.max(axis=0) - x.min(axis=0)).mean()
    mad = np.mean(np.abs(np.diff(x, axis=0)), axis=0).mean() if x.shape[0] > 1 else 0.0
    rms = np.sqrt(np.mean(x ** 2, axis=0)).mean()
    return np.concatenate([base, [mins, maxs, rng, mad, rms]])


def feature_vector_oracle(windows: np.ndarray, extended: bool = False) -> np.ndarray:
    """One oracle call per window, stacked (``(0, n_features)`` when empty)."""
    windows = np.asarray(windows, dtype=float)
    if windows.ndim == 2:
        windows = windows[:, :, None]
    extractor = (
        extended_accelerometer_features_oracle if extended else accelerometer_features_oracle
    )
    rows = [extractor(w) for w in windows]
    return np.stack(rows) if rows else np.empty((0, 9 if extended else 4))
