"""Accelerometer synthesis and motion-artifact modelling.

Wrist motion has two roles in the reproduction:

1. It produces the 3-axis accelerometer trace used by the activity
   recognition Random Forest (and therefore by the CHRIS difficulty
   detector).  Each activity is modelled by a characteristic mixture of
   periodic arm motion (e.g. walking cadence), random jerks, and gravity
   orientation drift; the mixture weights are chosen so that the measured
   per-activity signal energy reproduces the paper's difficulty ordering.

2. It corrupts the PPG channel.  Motion artifacts are generated from the
   accelerometer trace itself (band-passed into the HR band, scaled by an
   activity-dependent coupling factor and with a small random gain), so
   that high-motion windows are exactly the windows whose PPG is hard to
   read — the correlation the CHRIS decision engine exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.activities import ACTIVITIES, Activity, activity_ids
from repro.signal.filters import butter_bandpass_filter


@dataclass(frozen=True)
class MotionProfile:
    """Parameters describing the wrist motion of one activity.

    Attributes
    ----------
    periodic_amplitude:
        Amplitude (in g) of the periodic arm-swing component.
    periodic_freq_hz:
        Fundamental frequency of the periodic component (steps/pedal
        strokes per second).
    jerk_rate_hz:
        Average number of random jerk events per second.
    jerk_amplitude:
        Amplitude (in g) of a jerk event.
    tremor_std:
        Standard deviation (in g) of the broadband low-amplitude motion.
    artifact_coupling:
        Scale factor mapping wrist acceleration onto PPG corruption; this
        is the knob that makes high-motion activities genuinely harder for
        the HR models.
    """

    periodic_amplitude: float
    periodic_freq_hz: float
    jerk_rate_hz: float
    jerk_amplitude: float
    tremor_std: float
    artifact_coupling: float


#: Motion profile of each activity.  The ordering of total signal energy
#: induced by these values matches :data:`repro.data.activities.ACTIVITY_DIFFICULTY`
#: (verified by ``tests/data/test_synthetic.py``).
ACTIVITY_MOTION_PROFILES: dict[Activity, MotionProfile] = {
    Activity.RESTING: MotionProfile(0.005, 0.10, 0.005, 0.02, 0.004, 0.02),
    Activity.SITTING: MotionProfile(0.01, 0.15, 0.01, 0.04, 0.008, 0.05),
    Activity.WORKING: MotionProfile(0.03, 0.30, 0.05, 0.08, 0.015, 0.10),
    Activity.DRIVING: MotionProfile(0.05, 0.40, 0.08, 0.10, 0.025, 0.15),
    Activity.LUNCH: MotionProfile(0.08, 0.50, 0.15, 0.15, 0.035, 0.22),
    Activity.CYCLING: MotionProfile(0.15, 1.20, 0.20, 0.20, 0.05, 0.35),
    Activity.WALKING: MotionProfile(0.30, 1.80, 0.25, 0.25, 0.06, 0.55),
    Activity.STAIRS: MotionProfile(0.45, 1.60, 0.40, 0.35, 0.08, 0.80),
    Activity.TABLE_SOCCER: MotionProfile(0.55, 2.50, 1.20, 0.60, 0.12, 1.10),
}

#: Artifact coupling of each activity, indexed by raw activity identifier.
_COUPLING_BY_ID = np.array(
    [ACTIVITY_MOTION_PROFILES[activity].artifact_coupling for activity in ACTIVITIES]
)


@dataclass
class AccelerometerSynthesizer:
    """Generate 3-axis wrist acceleration for a per-sample activity stream.

    The output is in g units and includes gravity projected onto the three
    axes with a slowly drifting wrist orientation, so even perfectly still
    windows have a non-zero mean on each axis (as with the real sensor).
    """

    fs: float = 32.0
    gravity_g: float = 1.0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self) -> None:
        if self.fs <= 0:
            raise ValueError(f"fs must be positive, got {self.fs}")

    def synthesize(self, activity_labels: np.ndarray) -> np.ndarray:
        """Return an ``(n_samples, 3)`` acceleration trace in g units."""
        labels = np.asarray(activity_labels)
        if labels.ndim != 1:
            raise ValueError(f"activity_labels must be 1-D, got shape {labels.shape}")
        n = labels.size
        if n == 0:
            return np.empty((0, 3))

        t = np.arange(n) / self.fs
        accel = np.zeros((n, 3))

        # Gravity with slow orientation drift.
        drift = 2.0 * np.pi * 0.01 * t + self.rng.uniform(0.0, 2 * np.pi)
        accel[:, 0] += self.gravity_g * np.cos(drift) * 0.3
        accel[:, 1] += self.gravity_g * np.sin(drift) * 0.3
        accel[:, 2] += self.gravity_g * np.sqrt(np.clip(1.0 - 0.18 * np.ones(n), 0.0, None))

        # Per-activity dynamic components, generated per contiguous segment
        # so phase stays continuous inside an activity bout.
        boundaries = np.nonzero(np.diff(labels) != 0)[0] + 1
        segments = np.split(np.arange(n), boundaries)
        for segment in segments:
            if segment.size == 0:
                continue
            activity = Activity(labels[segment[0]])
            profile = ACTIVITY_MOTION_PROFILES[activity]
            ts = t[segment]
            phase = self.rng.uniform(0.0, 2.0 * np.pi, size=3)
            for axis in range(3):
                periodic = profile.periodic_amplitude * np.sin(
                    2.0 * np.pi * profile.periodic_freq_hz * ts + phase[axis]
                )
                # Add a first harmonic to make the motion less sinusoidal.
                periodic += 0.4 * profile.periodic_amplitude * np.sin(
                    4.0 * np.pi * profile.periodic_freq_hz * ts + 2.0 * phase[axis]
                )
                tremor = self.rng.normal(0.0, profile.tremor_std, size=segment.size)
                jerks = self._jerk_train(segment.size, profile)
                accel[segment, axis] += periodic + tremor + jerks
        return accel

    def _jerk_train(self, n: int, profile: MotionProfile) -> np.ndarray:
        """Sparse random jerk events convolved with a short decay kernel."""
        expected_events = profile.jerk_rate_hz * n / self.fs
        n_events = self.rng.poisson(expected_events)
        train = np.zeros(n)
        if n_events == 0 or n == 0:
            return train
        positions = self.rng.integers(0, n, size=n_events)
        amplitudes = self.rng.normal(0.0, profile.jerk_amplitude, size=n_events)
        np.add.at(train, positions, amplitudes)
        # Exponential decay kernel of ~0.25 s, centred like mode="same"
        # but cut to n samples even for a bout shorter than the kernel.
        kernel_len = max(2, int(0.25 * self.fs))
        kernel = np.exp(-np.arange(kernel_len) / (0.1 * self.fs))
        return np.convolve(train, kernel)[(kernel_len - 1) // 2 :][:n]


@dataclass
class MotionArtifactModel:
    """Turn wrist acceleration into PPG motion artifacts.

    The artifact added to the PPG is the acceleration magnitude (minus
    gravity), band-passed into the heart-rate band so that it genuinely
    confuses frequency-domain and peak-based HR estimators, scaled by the
    activity's coupling factor and by a per-window random gain modelling
    variable optical coupling between skin and sensor.
    """

    fs: float = 32.0
    band_hz: tuple[float, float] = (0.4, 4.0)
    gain_std: float = 0.25
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def artifacts(self, accel: np.ndarray, activity_labels: np.ndarray) -> np.ndarray:
        """Per-sample PPG corruption derived from the acceleration trace."""
        accel = np.asarray(accel, dtype=float)
        labels = np.asarray(activity_labels)
        if accel.ndim != 2 or accel.shape[1] != 3:
            raise ValueError(f"accel must have shape (n, 3), got {accel.shape}")
        if labels.shape[0] != accel.shape[0]:
            raise ValueError(
                f"labels length {labels.shape[0]} does not match accel length {accel.shape[0]}"
            )
        n = accel.shape[0]
        if n == 0:
            return np.empty(0)

        magnitude = np.linalg.norm(accel, axis=1)
        dynamic = magnitude - np.median(magnitude)
        if n > 40:
            dynamic = butter_bandpass_filter(dynamic, self.band_hz[0], self.band_hz[1], self.fs, order=2)

        coupling = _COUPLING_BY_ID[activity_ids(labels)]
        gain = 1.0 + self.rng.normal(0.0, self.gain_std, size=n)
        gain = np.clip(gain, 0.2, 2.5)
        return dynamic * coupling * gain
