"""Per-subject reference planner of the runtime's columnar fleet plan.

``CHRISRuntime._plan_fleet`` plans a whole fleet in one columnar pass:
one routing table indexed by ``(connection status, difficulty)`` over
every window, and configuration segments from the status changes inside
each subject.  This module keeps the loop it replaced, which plans one
subject at a time: the subject's own difficulty detector call, a plain
plan under its system's status, or a segment-by-segment plan along its
BLE trace.  :func:`plan_fleet_oracle` returns one :class:`SubjectPlan`
per subject, the plans every slice of the columnar plan must equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.configuration import NUM_DIFFICULTY_LEVELS, ProfiledConfiguration
from repro.core.decision_engine import Constraint
from repro.core.runtime import CHRISRuntime
from repro.data.dataset import WindowedSubject
from repro.hw.platform import WearableSystem
from repro.hw.profiles import ExecutionTarget


@dataclass
class SubjectPlan:
    """One subject's routing: per-window arrays plus its segments."""

    configuration: ProfiledConfiguration
    difficulties: np.ndarray
    model_codes: np.ndarray
    offloaded: np.ndarray
    segments: list[tuple[int, ProfiledConfiguration]]


def _route(runtime: CHRISRuntime, configuration, difficulties, connected: bool):
    """Model codes and offload flags of ``difficulties`` under one configuration."""
    codes = np.zeros(NUM_DIFFICULTY_LEVELS + 1, dtype=np.intp)
    offloaded = np.zeros(NUM_DIFFICULTY_LEVELS + 1, dtype=bool)
    for level in range(1, NUM_DIFFICULTY_LEVELS + 1):
        name, target = runtime.engine.select_model(configuration, level)
        if target is ExecutionTarget.PHONE and not connected:
            target = ExecutionTarget.WATCH
        codes[level] = runtime.zoo.names.index(name)
        offloaded[level] = target is ExecutionTarget.PHONE
    return codes[difficulties], offloaded[difficulties]


def _difficulties(runtime: CHRISRuntime, subject: WindowedSubject, use_oracle: bool):
    if use_oracle or runtime.activity_classifier is None or subject.n_windows == 0:
        return subject.difficulty
    return runtime.activity_classifier.predict_difficulty(subject.accel_windows)


def plan_fleet_oracle(
    runtime: CHRISRuntime,
    subjects: Sequence[WindowedSubject],
    constraint: Constraint,
    use_oracle_difficulty: bool,
    traces: Mapping[str, np.ndarray],
    systems: Mapping[str, WearableSystem] | None = None,
) -> list[SubjectPlan]:
    """One plan per subject, built one subject at a time."""
    systems = systems or {}

    def configuration_for(status: bool) -> ProfiledConfiguration:
        return runtime.engine.select_or_closest(constraint, connected=status)

    plans = []
    for subject in subjects:
        difficulties = _difficulties(runtime, subject, use_oracle_difficulty)
        trace = traces.get(subject.subject_id)
        if trace is not None and subject.n_windows:
            connected = np.asarray(trace, dtype=bool)
            n = subject.n_windows
            model_codes = np.zeros(n, dtype=np.intp)
            offloaded = np.zeros(n, dtype=bool)
            segments = []
            starts = np.concatenate([[0], np.flatnonzero(np.diff(connected)) + 1])
            ends = np.concatenate([starts[1:], [n]])
            for start, end in zip(starts, ends):
                status = bool(connected[start])
                configuration = configuration_for(status)
                segments.append((int(start), configuration))
                codes, off = _route(runtime, configuration, difficulties[start:end], status)
                model_codes[start:end] = codes
                offloaded[start:end] = off
        else:
            status = bool(systems.get(subject.subject_id, runtime.system).connected)
            configuration = configuration_for(status)
            model_codes, offloaded = _route(runtime, configuration, difficulties, status)
            segments = [(0, configuration)]
        plans.append(
            SubjectPlan(
                configuration=segments[-1][1],
                difficulties=difficulties,
                model_codes=model_codes,
                offloaded=offloaded,
                segments=segments,
            )
        )
    return plans


def model_window_counts_oracle(runtime: CHRISRuntime, plans: Sequence[SubjectPlan]) -> np.ndarray:
    """Per-subject, per-model window counts, one ``count_nonzero`` at a time."""
    return np.array(
        [
            [int(np.count_nonzero(plan.model_codes == code)) for code in range(len(runtime.zoo.names))]
            for plan in plans
        ],
        dtype=np.int64,
    ).reshape(len(plans), len(runtime.zoo.names))
