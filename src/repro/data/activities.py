"""Activity taxonomy and difficulty ordering.

PPG-DaLiA subjects perform eight daily activities plus a resting baseline.
Section III-A of the paper orders these activities by the average
accelerometer signal energy — a proxy for the amount of motion artifacts
and therefore for the difficulty of the HR estimation — and assigns them a
cardinal *difficulty level* from 1 (easiest) to 9 (hardest).

The exact ordering is taken from the TimePPG paper (Burrello et al., ACM
HEALTH 2022) that the CHRIS paper cites for this step: low-motion,
sedentary activities (sitting, working, resting, driving) are easy, while
activities with sudden arm movements (walking, stairs, table soccer) are
hard.  The synthetic generator is constructed so that the measured
accelerometer energy reproduces this ordering, and the property is
verified by tests.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np


class Activity(IntEnum):
    """The eight PPG-DaLiA activities plus the resting baseline.

    The integer value is the raw activity identifier (as stored in the
    per-sample label stream), *not* the difficulty level — use
    :func:`difficulty_of` for that.
    """

    SITTING = 0
    STAIRS = 1
    TABLE_SOCCER = 2
    CYCLING = 3
    DRIVING = 4
    LUNCH = 5
    WALKING = 6
    WORKING = 7
    RESTING = 8


#: All activities, in raw-identifier order.
ACTIVITIES: tuple[Activity, ...] = tuple(Activity)

#: Difficulty level of each activity (1 = least motion artifacts,
#: 9 = most), following the accelerometer-energy ordering of the TimePPG
#: paper referenced by CHRIS Sec. III-A.
ACTIVITY_DIFFICULTY: dict[Activity, int] = {
    Activity.RESTING: 1,
    Activity.SITTING: 2,
    Activity.WORKING: 3,
    Activity.DRIVING: 4,
    Activity.LUNCH: 5,
    Activity.CYCLING: 6,
    Activity.WALKING: 7,
    Activity.STAIRS: 8,
    Activity.TABLE_SOCCER: 9,
}

#: Number of distinct difficulty levels (and activities).
NUM_DIFFICULTY_LEVELS = len(ACTIVITY_DIFFICULTY)


def difficulty_of(activity: Activity | int) -> int:
    """Difficulty level (1–9) of an activity.

    Accepts either an :class:`Activity` member or its raw integer
    identifier.
    """
    return ACTIVITY_DIFFICULTY[Activity(activity)]


#: Difficulty level indexed by raw activity identifier (0–8); the lookup
#: table behind :func:`difficulties_of`.
DIFFICULTY_BY_ACTIVITY_ID = np.array(
    [ACTIVITY_DIFFICULTY[activity] for activity in ACTIVITIES], dtype=int
)


def activity_ids(activities: "np.ndarray") -> "np.ndarray":
    """Raw identifiers as an integer array, checked to be in range.

    The array indexes the per-activity lookup tables (one entry per
    :data:`ACTIVITIES` member, in identifier order).
    """
    activities = np.asarray(activities, dtype=int)
    if activities.size and (
        activities.min() < 0 or activities.max() >= len(ACTIVITIES)
    ):
        raise ValueError(
            f"activity identifiers must be in [0, {len(ACTIVITIES) - 1}]"
        )
    return activities


def difficulties_of(activities: "np.ndarray") -> "np.ndarray":
    """Vectorized :func:`difficulty_of` over an array of raw identifiers."""
    return DIFFICULTY_BY_ACTIVITY_ID[activity_ids(activities)]


def activities_by_difficulty() -> tuple[Activity, ...]:
    """Activities sorted from easiest (difficulty 1) to hardest (9)."""
    return tuple(sorted(ACTIVITY_DIFFICULTY, key=ACTIVITY_DIFFICULTY.__getitem__))


def activity_from_difficulty(level: int) -> Activity:
    """Activity whose difficulty level equals ``level`` (1–9)."""
    for activity, difficulty in ACTIVITY_DIFFICULTY.items():
        if difficulty == level:
            return activity
    raise ValueError(f"difficulty level must be in [1, {NUM_DIFFICULTY_LEVELS}], got {level}")


def is_easy(activity: Activity | int, threshold: int) -> bool:
    """Whether an activity is in the "easy" group for a difficulty threshold.

    In a CHRIS configuration with difficulty threshold ``t``, windows whose
    predicted activity has difficulty <= ``t`` are processed with the
    simpler model of the pair; all others go to the more complex model.
    A threshold of 0 therefore sends everything to the complex model and a
    threshold of 9 sends everything to the simple one.
    """
    if not 0 <= threshold <= NUM_DIFFICULTY_LEVELS:
        raise ValueError(
            f"difficulty threshold must be in [0, {NUM_DIFFICULTY_LEVELS}], got {threshold}"
        )
    return difficulty_of(activity) <= threshold
