"""Per-sample / per-window reference loops of the synthetic-data pipeline.

``HeartRateDynamics.generate`` reads set-points and noise amplitudes from
activity lookup tables and keeps only the scalar recurrence as a loop,
``MotionArtifactModel.artifacts`` gathers the coupling factors from a
table, and ``label_windows`` takes every window's majority from running
label counts.  This module keeps the loops they replaced: an
``Activity(...)`` lookup per sample, a coupling comprehension, and an
``np.unique`` vote per window.  :func:`oracle_synthesis` swaps all three
in, so a corpus generated under it is the reference the vectorized
generator must equal array for array.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.data.activities import Activity
from repro.data.hr_dynamics import HeartRateDynamics
from repro.data.motion import ACTIVITY_MOTION_PROFILES, MotionArtifactModel
from repro.signal.filters import butter_bandpass_filter
from repro.signal.windowing import DEFAULT_WINDOW_SPEC, WindowSpec


def hr_generate_oracle(model: HeartRateDynamics, activity_labels: np.ndarray) -> np.ndarray:
    """The HR trace with an activity lookup per sample."""
    labels = np.asarray(activity_labels)
    if labels.ndim != 1:
        raise ValueError(f"activity_labels must be 1-D, got shape {labels.shape}")
    n = labels.size
    if n == 0:
        return np.empty(0)

    dt = 1.0 / model.fs
    alpha = dt / model.response_time_s
    hr = np.empty(n)
    current = model.setpoint(labels[0]) + model.rng.normal(0.0, model.variability(labels[0]))
    tracked_setpoint = current
    noise = model.rng.normal(0.0, 1.0, size=n)
    for i in range(n):
        activity = Activity(labels[i])
        target = model.setpoint(activity)
        std = model.variability(activity)
        tracked_setpoint += alpha * (target - tracked_setpoint)
        current += model.reversion_rate * dt * (tracked_setpoint - current)
        current += std * np.sqrt(dt) * 0.5 * noise[i]
        hr[i] = current
    return np.clip(hr, 35.0, 200.0)


def artifacts_oracle(
    model: MotionArtifactModel, accel: np.ndarray, activity_labels: np.ndarray
) -> np.ndarray:
    """The motion artifacts with a coupling lookup per sample."""
    accel = np.asarray(accel, dtype=float)
    labels = np.asarray(activity_labels)
    n = accel.shape[0]
    if n == 0:
        return np.empty(0)
    magnitude = np.linalg.norm(accel, axis=1)
    dynamic = magnitude - np.median(magnitude)
    if n > 40:
        dynamic = butter_bandpass_filter(dynamic, model.band_hz[0], model.band_hz[1], model.fs, order=2)
    coupling = np.array([ACTIVITY_MOTION_PROFILES[Activity(a)].artifact_coupling for a in labels])
    gain = 1.0 + model.rng.normal(0.0, model.gain_std, size=n)
    gain = np.clip(gain, 0.2, 2.5)
    return dynamic * coupling * gain


def label_windows_oracle(labels: np.ndarray, spec: WindowSpec = DEFAULT_WINDOW_SPEC) -> np.ndarray:
    """The majority label of each window, one ``np.unique`` vote at a time."""
    labels = np.asarray(labels)
    n = spec.num_windows(labels.shape[0])
    out = np.empty(n, dtype=labels.dtype)
    for i in range(n):
        start = i * spec.stride
        chunk = labels[start:start + spec.length]
        values, counts = np.unique(chunk, return_counts=True)
        out[i] = values[int(np.argmax(counts))]
    return out


@contextmanager
def oracle_synthesis():
    """Generate HR, artifacts and window labels with the reference loops."""
    with mock.patch.object(HeartRateDynamics, "generate", hr_generate_oracle), mock.patch.object(
        MotionArtifactModel, "artifacts", artifacts_oracle
    ), mock.patch("repro.data.dataset.label_windows", label_windows_oracle):
        yield
