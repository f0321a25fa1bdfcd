"""Unit tests for the runtime's one equivalence contract.

Every fused path is bitwise equal to sequential replay at its dtype.  The
property suite (``test_fleet_properties.py``) pins that across randomized
fleet shapes; these tests pin the mechanics deterministically with a real
TimePPG network whose predictions are not clipped: the dispatch shape
(one fused cross-subject ``predict`` per model per fleet or scheduler
batch), bit-identity with sequential replay at float64 and float32, and
the cross-numerics atol/rtol bound itself.
"""

import copy

import numpy as np

from repro.core.decision_engine import Constraint
from repro.core.runtime import EQUIVALENCE_TOLERANCES, CHRISRuntime
from repro.core.scheduler import FleetScheduler, SessionState
from repro.eval.workloads import sequential_replay

from tests.core.test_fleet_properties import (
    _experiment,
    assert_timeppg_unclipped,
    make_subject,
    tiny_timeppg,
)
from tests.core.test_runtime_batched import assert_results_identical

CONSTRAINT = Constraint.max_mae(6.0)


def timeppg_runtime(dtype: str = "float64") -> CHRISRuntime:
    """A runtime whose TimePPG-Big entry is a real (tiny, frozen) TCN."""
    experiment = _experiment()
    zoo = copy.deepcopy(experiment.zoo)
    zoo.entry("TimePPG-Big").predictor = tiny_timeppg(seed=3)
    return CHRISRuntime(
        zoo=zoo, engine=experiment.engine, system=experiment.system, dtype=dtype
    )


def small_fleet(n_subjects: int = 4, n_windows: int = 30, n_single: int = 24):
    """``n_subjects`` recordings plus ``n_single`` one-window subjects.

    One-window subjects are the serving shape (many streams, one window
    each): sequential replay forwards their TimePPG windows one at a
    time, the fused run in one batch with everyone else's.
    """
    return [
        make_subject(f"eq-{i:02d}", n_windows, seed=100 + i)
        for i in range(n_subjects)
    ] + [
        make_subject(f"eq-one-{i:02d}", 1, seed=200 + i) for i in range(n_single)
    ]


def count_predict_calls(runtime: CHRISRuntime, name: str) -> list:
    """Instrument a zoo member's batch ``predict`` with a call recorder."""
    predictor = runtime.zoo.entry(name).predictor
    original = predictor.predict
    calls: list[int] = []

    def counting(ppg_windows, accel_windows=None, **context):
        calls.append(int(np.asarray(ppg_windows).shape[0]))
        return original(ppg_windows, accel_windows, **context)

    predictor.predict = counting
    return calls


def routed_to(fleet, name: str) -> int:
    return sum(
        int(np.count_nonzero(r.model_names.astype(str) == name))
        for r in fleet.results.values()
    )


class TestDispatchShape:
    def test_one_fused_predict_per_fleet(self):
        runtime = timeppg_runtime()
        calls = count_predict_calls(runtime, "TimePPG-Big")
        fleet = runtime.run_many(small_fleet(), CONSTRAINT, use_oracle_difficulty=True)
        total = routed_to(fleet, "TimePPG-Big")
        assert total > 0, "the fleet must route windows to the TCN"
        assert calls == [total], "the whole fleet must fuse into one call"

    def test_one_fused_predict_per_scheduler_batch(self):
        runtime = timeppg_runtime()
        calls = count_predict_calls(runtime, "TimePPG-Big")
        scheduler = FleetScheduler(runtime, CONSTRAINT, use_oracle_difficulty=True)
        with scheduler:
            scheduler.pause()
            sessions = [
                scheduler.submit(subject.subject_id, subject)
                for subject in small_fleet()
            ]
            scheduler.resume()
            scheduler.join()
        assert all(s.state is SessionState.DONE for s in sessions)
        total = sum(
            int(np.count_nonzero(s.result.model_names.astype(str) == "TimePPG-Big"))
            for s in sessions
        )
        assert total > 0
        assert calls == [total], "one batch of sessions must fuse into one call"


class TestResults:
    def test_bitwise_mega_is_bit_identical_with_real_timeppg(self):
        subjects = small_fleet()
        sequential = sequential_replay(
            timeppg_runtime(), subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        mega = timeppg_runtime().run_many(subjects, CONSTRAINT, use_oracle_difficulty=True)
        assert_timeppg_unclipped(mega)
        for sid in sequential.subject_ids:
            assert_results_identical(sequential.results[sid], mega.results[sid])

    def test_float32_mega_is_bit_identical_with_real_timeppg(self):
        subjects = small_fleet()
        sequential = sequential_replay(
            timeppg_runtime("float32"), subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        mega = timeppg_runtime("float32").run_many(
            subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        assert_timeppg_unclipped(mega)
        for sid in sequential.subject_ids:
            assert mega.results[sid].predicted_hr.dtype == np.float32
            assert_results_identical(sequential.results[sid], mega.results[sid])

    def test_documented_bounds_are_tight_enough_to_catch_divergence(self):
        """A whole-BPM prediction shift must violate the documented bound."""
        reference = np.array([70.0, 120.0])
        shifted = reference + 1.0
        atol, rtol = EQUIVALENCE_TOLERANCES["float64"]
        assert not np.allclose(shifted, reference, atol=atol, rtol=rtol)

