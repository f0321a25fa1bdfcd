"""Ground-truth heart-rate dynamics for the synthetic dataset.

Each activity is associated with a typical heart-rate range (sedentary
activities around 60–80 BPM, cycling or stair climbing well above 100
BPM).  A subject's heart rate is modelled as a mean-reverting random walk
(Ornstein–Uhlenbeck-like process, discretized at the window rate) whose
set-point depends on the current activity and on a per-subject resting
heart rate, plus a slow exponential response when the activity changes —
heart rate does not jump instantaneously when a subject starts climbing
stairs.

The resulting per-sample HR trace is both the ground truth used to score
the HR predictors and the instantaneous frequency driving the PPG pulse
synthesizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.activities import ACTIVITIES, Activity, activity_ids

#: Typical steady-state heart-rate offset (BPM, added to the subject's
#: resting HR) and short-term variability (BPM std) per activity.
ACTIVITY_HR_PROFILE: dict[Activity, tuple[float, float]] = {
    Activity.RESTING: (0.0, 1.5),
    Activity.SITTING: (4.0, 2.0),
    Activity.WORKING: (8.0, 2.5),
    Activity.DRIVING: (10.0, 2.5),
    Activity.LUNCH: (12.0, 3.0),
    Activity.CYCLING: (45.0, 5.0),
    Activity.WALKING: (30.0, 4.0),
    Activity.STAIRS: (55.0, 6.0),
    Activity.TABLE_SOCCER: (35.0, 6.0),
}

#: :data:`ACTIVITY_HR_PROFILE` as two lookup tables indexed by raw
#: activity identifier: set-point offset and variability.
_HR_OFFSET_BY_ID, _HR_STD_BY_ID = np.array(
    [ACTIVITY_HR_PROFILE[activity] for activity in ACTIVITIES]
).T.copy()


@dataclass
class HeartRateDynamics:
    """Mean-reverting heart-rate process with activity-dependent set-points.

    Parameters
    ----------
    resting_hr:
        Subject resting heart rate in BPM.
    fs:
        Sampling frequency of the generated HR trace in Hz.
    response_time_s:
        Time constant (seconds) of the exponential approach towards the
        activity set-point when the activity changes.
    reversion_rate:
        Strength of the pull towards the set-point per second (larger
        values make the HR track the set-point more tightly).
    rng:
        NumPy random generator (a fresh default generator when omitted).
    """

    resting_hr: float = 65.0
    fs: float = 32.0
    response_time_s: float = 30.0
    reversion_rate: float = 0.08
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self) -> None:
        if self.resting_hr <= 0:
            raise ValueError(f"resting_hr must be positive, got {self.resting_hr}")
        if self.fs <= 0:
            raise ValueError(f"fs must be positive, got {self.fs}")
        if self.response_time_s <= 0:
            raise ValueError(f"response_time_s must be positive, got {self.response_time_s}")

    def setpoint(self, activity: Activity | int) -> float:
        """Steady-state heart rate (BPM) for an activity."""
        offset, _ = ACTIVITY_HR_PROFILE[Activity(activity)]
        return self.resting_hr + offset

    def variability(self, activity: Activity | int) -> float:
        """Short-term HR variability (BPM standard deviation) for an activity."""
        _, std = ACTIVITY_HR_PROFILE[Activity(activity)]
        return std

    def generate(self, activity_labels: np.ndarray) -> np.ndarray:
        """Generate a per-sample HR trace following a per-sample activity stream.

        Parameters
        ----------
        activity_labels:
            Integer array of per-sample activity identifiers sampled at
            ``self.fs``.

        Returns
        -------
        numpy.ndarray
            Heart rate in BPM, one value per input sample, clipped to the
            physiological range [35, 200] BPM.
        """
        labels = np.asarray(activity_labels)
        if labels.ndim != 1:
            raise ValueError(f"activity_labels must be 1-D, got shape {labels.shape}")
        n = labels.size
        if n == 0:
            return np.empty(0)

        ids = activity_ids(labels)
        dt = 1.0 / self.fs
        alpha = dt / self.response_time_s  # set-point tracking gain per step
        pull = self.reversion_rate * dt  # reversion towards the set-point per step
        targets = self.resting_hr + _HR_OFFSET_BY_ID[ids]
        current = float(targets[0]) + self.rng.normal(0.0, _HR_STD_BY_ID[ids[0]])
        # The per-step noise amplitude depends on the activity: draw unit
        # noise for every step at once and scale it by the lookup table.
        kicks = _HR_STD_BY_ID[ids] * np.sqrt(dt) * 0.5 * self.rng.normal(0.0, 1.0, size=n)

        def walk(current: float):
            tracked_setpoint = current
            # Iterating memoryviews yields Python floats without a
            # per-sample list; the arithmetic is the same IEEE doubles.
            for target, kick in zip(memoryview(targets), memoryview(kicks)):  # loop-ok: scalar recurrence
                # Slow approach of the effective set-point towards the activity target.
                tracked_setpoint += alpha * (target - tracked_setpoint)
                # Mean-reverting fluctuation around the tracked set-point.
                current += pull * (tracked_setpoint - current)
                current += kick
                yield current

        return np.clip(np.fromiter(walk(current), dtype=float, count=n), 35.0, 200.0)
