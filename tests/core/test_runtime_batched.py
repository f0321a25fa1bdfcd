"""Runtime-vs-per-window-oracle equivalence and fleet-run tests.

Every run goes through the runtime's fleet path, which must be
*decision-for-decision* identical to the per-window oracle
(:func:`tests.core.scalar_oracle.run_scalar_oracle`): same model
routing, same offload targets, same predictions (the calibrated models'
random streams are consumed in the same order), same costs.  The
equivalence tests run the two on independent deep copies of the zoo so
both start from identical predictor state.
"""

import copy

import numpy as np
import pytest

from repro.core.decision_engine import Constraint
from repro.core.runtime import _RESULT_COLUMNS, CHRISRuntime, FleetResult, RunResult
from repro.core.zoo import ModelsZoo, ZooEntry
from repro.data.dataset import WindowedSubject
from repro.eval.workloads import sequential_replay, stateful_zoo
from repro.models.adaptive_threshold import AdaptiveThresholdPredictor
from repro.models.base import HeartRatePredictor
from tests.core.scalar_oracle import run_scalar_oracle

CONSTRAINT = Constraint.max_mae(6.0)


def make_runtime(experiment, zoo=None) -> CHRISRuntime:
    """A runtime over a private deep copy of the experiment's zoo (or ``zoo``).

    Deep-copying the zoo gives every path its own predictor instances with
    identical initial state (including the calibrated models' random
    generators), while the deterministic engine/system stay shared.
    """
    return CHRISRuntime(
        zoo=copy.deepcopy(experiment.zoo if zoo is None else zoo),
        engine=experiment.engine,
        system=experiment.system,
    )


def oracle_run(
    runtime: CHRISRuntime,
    subject,
    constraint: Constraint,
    use_oracle_difficulty: bool = True,
    connected=None,
) -> RunResult:
    """The per-window oracle of ``run`` / ``run_with_connection_trace``.

    Plans exactly like the runtime (one-subject :meth:`_plan_fleet`) and
    executes window by window.
    """
    traces = {} if connected is None else {subject.subject_id: connected}
    plan = runtime._plan_fleet([subject], constraint, use_oracle_difficulty, traces)
    return run_scalar_oracle(runtime, subject, plan)


def assert_results_identical(a: RunResult, b: RunResult) -> None:
    np.testing.assert_array_equal(a.window_index, b.window_index)
    np.testing.assert_array_equal(a.predicted_difficulty, b.predicted_difficulty)
    np.testing.assert_array_equal(a.true_difficulty, b.true_difficulty)
    np.testing.assert_array_equal(a.model_names.astype(str), b.model_names.astype(str))
    np.testing.assert_array_equal(a.offloaded, b.offloaded)
    np.testing.assert_array_equal(a.predicted_hr, b.predicted_hr)
    np.testing.assert_array_equal(a.true_hr, b.true_hr)
    for name in (
        "watch_compute_j",
        "watch_radio_j",
        "watch_idle_j",
        "phone_compute_j",
        "latency_s",
    ):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    # NaN-tolerant: zero-window subjects have an undefined (NaN) MAE.
    np.testing.assert_array_equal(a.mae_bpm, b.mae_bpm)
    assert a.configuration.label() == b.configuration.label()
    assert [(i, c.label()) for i, c in a.configuration_segments] == [
        (i, c.label()) for i, c in b.configuration_segments
    ]


def dropout_trace(n: int) -> np.ndarray:
    connected = np.ones(n, dtype=bool)
    connected[n // 4 : n // 2] = False
    connected[3 * n // 4 :] = False
    return connected


class TestEquivalence:
    def test_plain_run_identical(self, calibrated_experiment, small_dataset):
        subject = small_dataset.subjects[2]
        scalar = oracle_run(make_runtime(calibrated_experiment), subject, CONSTRAINT)
        fleet = make_runtime(calibrated_experiment).run(
            subject, CONSTRAINT, use_oracle_difficulty=True
        )
        assert_results_identical(scalar, fleet)

    def test_connection_trace_identical(self, calibrated_experiment, small_dataset):
        subject = small_dataset.subjects[1]
        connected = dropout_trace(subject.n_windows)
        scalar = oracle_run(
            make_runtime(calibrated_experiment), subject, CONSTRAINT, connected=connected
        )
        fleet = make_runtime(calibrated_experiment).run_with_connection_trace(
            subject, CONSTRAINT, connected, use_oracle_difficulty=True
        )
        assert_results_identical(scalar, fleet)

    def test_rf_difficulty_identical(
        self, calibrated_experiment, small_dataset, trained_activity_classifier
    ):
        subject = small_dataset.subjects[3]
        runtimes = []
        for _ in range(2):
            runtime = make_runtime(calibrated_experiment)
            runtime.activity_classifier = trained_activity_classifier
            runtimes.append(runtime)
        scalar = oracle_run(runtimes[0], subject, CONSTRAINT, use_oracle_difficulty=False)
        fleet = runtimes[1].run(subject, CONSTRAINT, use_oracle_difficulty=False)
        assert_results_identical(scalar, fleet)


class TestFusedDifficultyPlanning:
    """``_plan_fleet`` runs the difficulty detector once over the whole
    fleet and slices the labels back: one ``predict_difficulty`` call per
    plan, with difficulties (and so routing) equal to planning each
    subject on its own."""

    @staticmethod
    def empty_subject(template, subject_id):
        return WindowedSubject(
            subject_id=subject_id,
            ppg_windows=np.zeros((0,) + template.ppg_windows.shape[1:]),
            accel_windows=np.zeros((0,) + template.accel_windows.shape[1:]),
            activity=np.zeros(0, dtype=int),
            hr=np.zeros(0, dtype=float),
            spec=template.spec,
        )

    @pytest.fixture()
    def spied_runtime(self, calibrated_experiment, trained_activity_classifier, monkeypatch):
        classifier = copy.deepcopy(trained_activity_classifier)
        calls = []
        original = classifier.predict_difficulty

        def spy(accel_windows):
            calls.append(accel_windows.shape[0])
            return original(accel_windows)

        monkeypatch.setattr(classifier, "predict_difficulty", spy)
        runtime = make_runtime(calibrated_experiment)
        runtime.activity_classifier = classifier
        return runtime, calls

    def test_one_call_per_plan_equal_to_per_subject_planning(
        self, spied_runtime, small_dataset
    ):
        runtime, calls = spied_runtime
        subjects = list(small_dataset.subjects)
        fleet = (
            [self.empty_subject(subjects[0], "empty-first")]
            + subjects[:2]
            + [self.empty_subject(subjects[0], "empty-mid")]
            + subjects[2:]
        )
        traces = {s.subject_id: dropout_trace(s.n_windows) for s in subjects[::2]}
        fleet_plan = runtime._plan_fleet(fleet, CONSTRAINT, False, traces)
        assert calls == [sum(s.n_windows for s in subjects)]

        for i, subject in enumerate(fleet):
            plan = fleet_plan[i : i + 1]
            calls.clear()
            sid = subject.subject_id
            trace = {sid: traces[sid]} if sid in traces else {}
            alone = runtime._plan_fleet([subject], CONSTRAINT, False, trace)
            assert calls == ([subject.n_windows] if subject.n_windows else [])
            np.testing.assert_array_equal(plan.difficulties, alone.difficulties)
            np.testing.assert_array_equal(plan.model_codes, alone.model_codes)
            np.testing.assert_array_equal(plan.offloaded, alone.offloaded)
            assert [(i, c.label()) for i, c in plan.segments()[0]] == [
                (i, c.label()) for i, c in alone.segments()[0]
            ]
            assert plan.difficulties.shape == (subject.n_windows,)

    def test_no_call_for_oracle_or_windowless_plans(self, spied_runtime, small_dataset):
        runtime, calls = spied_runtime
        subject = small_dataset.subjects[0]
        plan = runtime._plan_fleet([subject], CONSTRAINT, True, {})
        np.testing.assert_array_equal(plan.difficulties, subject.difficulty)
        runtime._plan_fleet([self.empty_subject(subject, "empty")], CONSTRAINT, False, {})
        assert calls == []

    def test_fleet_run_matches_per_subject_runs(
        self, calibrated_experiment, small_dataset, trained_activity_classifier
    ):
        runtimes = []
        for _ in range(2):
            runtime = make_runtime(calibrated_experiment)
            runtime.activity_classifier = trained_activity_classifier
            runtimes.append(runtime)
        fleet = runtimes[0].run_many(small_dataset.subjects, CONSTRAINT)
        replay = sequential_replay(runtimes[1], small_dataset.subjects, CONSTRAINT)
        for sid in fleet.subject_ids:
            assert_results_identical(fleet.results[sid], replay.results[sid])


class TestStatefulOracle:
    """Stateful predictors run through one-slot ``predict_fleet`` calls;
    on the fully stateful zoo (a signal-reading spectral tracker plus
    smoothed calibrated trackers) that must still equal the per-window
    oracle, across consecutive subjects of one runtime."""

    def test_run_matches_per_window_oracle(self, calibrated_experiment, small_dataset):
        zoo = stateful_zoo(calibrated_experiment.zoo)
        oracle, runtime = make_runtime(calibrated_experiment, zoo), make_runtime(
            calibrated_experiment, zoo
        )
        for subject in small_dataset.subjects[:2]:
            assert_results_identical(
                oracle_run(oracle, subject, CONSTRAINT),
                runtime.run(subject, CONSTRAINT, use_oracle_difficulty=True),
            )

    def test_connection_trace_run_matches_per_window_oracle(
        self, calibrated_experiment, small_dataset
    ):
        zoo = stateful_zoo(calibrated_experiment.zoo)
        oracle, runtime = make_runtime(calibrated_experiment, zoo), make_runtime(
            calibrated_experiment, zoo
        )
        for subject in small_dataset.subjects[:2]:
            connected = dropout_trace(subject.n_windows)
            assert_results_identical(
                oracle_run(oracle, subject, CONSTRAINT, connected=connected),
                runtime.run_with_connection_trace(
                    subject, CONSTRAINT, connected, use_oracle_difficulty=True
                ),
            )


class TestRunResultView:
    def test_equality_has_value_semantics(self, calibrated_experiment, small_dataset):
        """``==`` must compare contents (as the list representation did),
        not raise on the array fields."""
        subject = small_dataset.subjects[0]
        result = make_runtime(calibrated_experiment).run(
            subject, CONSTRAINT, use_oracle_difficulty=True
        )
        rebuilt = RunResult(
            configuration=result.configuration,
            configuration_segments=list(result.configuration_segments),
            **{name: getattr(result, name).copy() for name in _RESULT_COLUMNS},
        )
        assert result == rebuilt
        assert result != RunResult(configuration=result.configuration)
        assert result != "not a result"

    def test_empty_result_aggregates(self, calibrated_experiment):
        configuration = calibrated_experiment.table.pareto()[0]
        empty = RunResult(configuration=configuration)
        assert empty.n_windows == 0
        assert np.isnan(empty.mae_bpm)
        assert empty.offload_fraction == 0.0
        assert empty.per_model_counts() == {}


class TestPredictorReset:
    def test_runs_reset_predictor_state(self, calibrated_experiment, small_dataset):
        """A run must not inherit tracker state from a previous subject."""
        runtime = make_runtime(calibrated_experiment)
        for entry in runtime.zoo:
            entry.predictor._last_estimate = 999.0
        runtime.run(small_dataset.subjects[0], CONSTRAINT, use_oracle_difficulty=True)
        # Calibrated predictors never write _last_estimate, so the sentinel
        # surviving would mean reset() was skipped at run start.
        for entry in runtime.zoo:
            assert entry.predictor._last_estimate is None

    def test_trace_runs_reset_predictor_state(self, calibrated_experiment, small_dataset):
        subject = small_dataset.subjects[0]
        runtime = make_runtime(calibrated_experiment)
        for entry in runtime.zoo:
            entry.predictor._last_estimate = 999.0
        runtime.run_with_connection_trace(
            subject, CONSTRAINT, np.ones(subject.n_windows, dtype=bool),
            use_oracle_difficulty=True,
        )
        for entry in runtime.zoo:
            assert entry.predictor._last_estimate is None


class TestRunMany:
    def test_fleet_aggregates(self, calibrated_experiment, small_dataset):
        runtime = make_runtime(calibrated_experiment)
        fleet = runtime.run_many(
            small_dataset.subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        assert fleet.n_subjects == len(small_dataset.subjects)
        assert fleet.subject_ids == small_dataset.subject_ids
        assert fleet.n_windows == sum(s.n_windows for s in small_dataset.subjects)
        expected_mae = sum(
            r.mae_bpm * r.n_windows for r in fleet.results.values()
        ) / fleet.n_windows
        assert fleet.mae_bpm == pytest.approx(expected_mae)
        assert 0.0 <= fleet.offload_fraction <= 1.0
        assert fleet.mean_watch_energy_j > 0
        assert "fleet:" in fleet.summary()

    def test_duplicate_subject_rejected(self, calibrated_experiment, small_dataset):
        runtime = make_runtime(calibrated_experiment)
        subject = small_dataset.subjects[0]
        with pytest.raises(ValueError):
            runtime.run_many([subject, subject], CONSTRAINT, use_oracle_difficulty=True)

    def test_experiment_run_fleet_entry_point(self, calibrated_experiment, small_dataset):
        fleet = calibrated_experiment.run_fleet(small_dataset, CONSTRAINT)
        assert isinstance(fleet, FleetResult)
        assert fleet.n_subjects == len(small_dataset.subjects)
        assert np.isfinite(fleet.mae_bpm)

    def test_fleet_empty(self, calibrated_experiment):
        fleet = FleetResult()
        assert fleet.n_windows == 0
        assert np.isnan(fleet.mae_bpm)
        replayed = make_runtime(calibrated_experiment).run_many([], CONSTRAINT)
        assert replayed.n_subjects == 0
        assert np.isnan(replayed.mae_bpm)


def _predictor_classes(cls=HeartRatePredictor):
    for sub in cls.__subclasses__():
        yield sub
        yield from _predictor_classes(sub)


class TestAccelerometerGather:
    """PPG-only models get ``accel=None``, not a copy of every window's acceleration."""

    def test_ppg_only_classes_report_no_accelerometer(self):
        ppg_only = [c for c in _predictor_classes() if not c.READS_ACCELEROMETER]
        assert AdaptiveThresholdPredictor in ppg_only
        for cls in ppg_only:
            assert cls().info.uses_accelerometer is False, cls.__name__

    def test_real_at_receives_no_accelerometer(self, calibrated_experiment, small_dataset):
        zoo = ModelsZoo()
        for entry in calibrated_experiment.zoo:
            predictor = AdaptiveThresholdPredictor() if entry.name == "AT" else entry.predictor
            zoo.add(ZooEntry(predictor=predictor, deployment=entry.deployment))

        def run(reads_accelerometer: bool):
            runtime = make_runtime(calibrated_experiment, zoo)
            at = runtime.zoo.entry("AT").predictor
            at.READS_ACCELEROMETER = reads_accelerometer
            received = []
            predict_fleet = at.predict_fleet

            def spy(ppg, accel, **kwargs):
                received.append(accel)
                return predict_fleet(ppg, accel, **kwargs)

            at.predict_fleet = spy
            fleet = runtime.run_many(small_dataset.subjects, CONSTRAINT)
            return fleet, received

        fleet, received = run(reads_accelerometer=False)
        gathered, received_gathered = run(reads_accelerometer=True)
        assert received and all(accel is None for accel in received)
        assert received_gathered and all(accel is not None for accel in received_gathered)
        assert fleet.subject_ids == gathered.subject_ids
        for subject_id in fleet.subject_ids:
            assert_results_identical(fleet.results[subject_id], gathered.results[subject_id])
