"""The columnar fleet plan equals the per-subject planner, subject by subject.

``CHRISRuntime._plan_fleet`` routes a whole fleet in one pass over its
windows; :mod:`tests.core.plan_oracle` keeps the per-subject loop it
replaced.  Hypothesis draws fleets that mix traced, untraced and
zero-window subjects, connected and disconnected per-subject hardware,
a connected or disconnected default system and RF or oracle
difficulty, and every subject's slice of the columnar plan must equal
its oracle plan field by field, segments included, with
``model_window_counts`` equal to the oracle's per-plan counts.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="property suite needs hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.runtime import CHRISRuntime
from repro.hw.ble import BLELink
from repro.hw.platform import WearableSystem

from tests.core.plan_oracle import model_window_counts_oracle, plan_fleet_oracle
from tests.core.test_fleet_properties import (
    CONSTRAINT,
    SCENARIO_SETTINGS,
    _classifier,
    _experiment,
    make_subject,
    make_trace,
)


def _system(connected: bool) -> WearableSystem:
    return WearableSystem(ble=BLELink.calibrated_to_paper(connected=connected))


@st.composite
def planned_fleets(draw):
    n_subjects = draw(st.integers(min_value=1, max_value=6))
    subjects = [
        {
            "n_windows": draw(st.sampled_from([0, 1, 2, 7, 30])),
            "seed": draw(st.integers(min_value=0, max_value=2**16)),
            "traced": draw(st.booleans()),
            "system": draw(st.sampled_from([None, True, False])),
        }
        for _ in range(n_subjects)
    ]
    return {
        "subjects": subjects,
        "use_rf": draw(st.booleans()),
        "default_connected": draw(st.booleans()),
    }


def assert_plan_matches_oracle(runtime, subjects, plan, oracle) -> None:
    assert plan.subject_ids == tuple(s.subject_id for s in subjects)
    assert plan.n_windows == sum(s.n_windows for s in subjects)
    segments = plan.segments()
    for i, (subject, want) in enumerate(zip(subjects, oracle)):
        got = plan[i : i + 1]
        assert got.n_windows == subject.n_windows
        np.testing.assert_array_equal(got.difficulties, want.difficulties)
        np.testing.assert_array_equal(got.model_codes, want.model_codes)
        np.testing.assert_array_equal(got.offloaded, want.offloaded)
        assert got.model_codes.dtype == np.intp and got.offloaded.dtype == bool
        assert segments[i] == want.segments
        assert got.segments() == [want.segments]
        assert segments[i][-1][1] == want.configuration
    np.testing.assert_array_equal(
        runtime.model_window_counts(plan), model_window_counts_oracle(runtime, oracle)
    )


@settings(max_examples=40, **SCENARIO_SETTINGS)
@given(fleet=planned_fleets())
def test_columnar_plan_equals_per_subject_oracle(fleet):
    experiment = _experiment()
    runtime = CHRISRuntime(
        zoo=experiment.zoo,
        engine=experiment.engine,
        system=_system(fleet["default_connected"]),
        activity_classifier=_classifier() if fleet["use_rf"] else None,
    )
    subjects = [
        make_subject(f"plan-{i:02d}", spec["n_windows"], spec["seed"])
        for i, spec in enumerate(fleet["subjects"])
    ]
    traces = {
        subject.subject_id: (
            make_trace(subject.n_windows, spec["seed"] + 1)
            if subject.n_windows
            else np.zeros(0, dtype=bool)
        )
        for subject, spec in zip(subjects, fleet["subjects"])
        if spec["traced"]
    }
    systems = {
        subject.subject_id: _system(spec["system"])
        for subject, spec in zip(subjects, fleet["subjects"])
        if spec["system"] is not None
    }
    use_oracle = not fleet["use_rf"]
    plan = runtime._plan_fleet(subjects, CONSTRAINT, use_oracle, traces, systems=systems)
    oracle = plan_fleet_oracle(runtime, subjects, CONSTRAINT, use_oracle, traces, systems)
    assert_plan_matches_oracle(runtime, subjects, plan, oracle)

    # A shard's slice of the plan is the plan of its subject range.
    half = len(subjects) // 2
    assert_plan_matches_oracle(runtime, subjects[half:], plan[half:], oracle[half:])


def test_plan_slices_are_contiguous_subject_ranges():
    experiment = _experiment()
    runtime = CHRISRuntime(zoo=experiment.zoo, engine=experiment.engine, system=experiment.system)
    subjects = [make_subject(f"s{i}", n, i) for i, n in enumerate([3, 0, 5])]
    plan = runtime._plan_fleet(subjects, CONSTRAINT, True, {})
    assert plan[1:].subject_ids == ("s1", "s2")
    np.testing.assert_array_equal(plan[1:].offsets, [0, 0, 5])
    assert plan[3:].n_subjects == 0 and plan[3:].n_windows == 0
    with pytest.raises(ValueError):
        plan[::2]
