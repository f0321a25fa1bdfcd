"""Tests for the CHRIS runtime simulator."""

import numpy as np
import pytest

from repro.core.decision_engine import Constraint
from repro.core.runtime import CHRISRuntime
from repro.hw.profiles import ExecutionTarget
from repro.models.registry import PAPER_MODEL_STATS


@pytest.fixture()
def runtime(calibrated_experiment):
    return CHRISRuntime(
        zoo=calibrated_experiment.zoo,
        engine=calibrated_experiment.engine,
        system=calibrated_experiment.system,
        activity_classifier=None,  # oracle difficulty through windows.difficulty
    )


class TestRun:
    def test_run_produces_one_decision_per_window(self, runtime, small_dataset):
        subject = small_dataset.subjects[2]
        result = runtime.run(subject, Constraint.max_mae(6.0), use_oracle_difficulty=True)
        assert result.n_windows == subject.n_windows
        assert result.model_names.shape == (subject.n_windows,)
        assert np.isfinite(result.mae_bpm)
        assert result.mean_watch_energy_j > 0

    def test_run_respects_constraint_approximately(self, runtime, small_dataset):
        """The constraint is soft but on data distributed like the profiling
        set the achieved MAE should stay near the bound."""
        subject = small_dataset.subjects[3]
        result = runtime.run(subject, Constraint.max_mae(6.5), use_oracle_difficulty=True)
        assert result.mae_bpm < 6.5 * 1.35

    def test_offload_fraction_matches_threshold(self, runtime, small_dataset):
        subject = small_dataset.subjects[2]
        result = runtime.run(subject, Constraint.max_mae(6.0), use_oracle_difficulty=True)
        config = result.configuration.configuration
        if config.mode.value == "hybrid":
            expected = np.mean(subject.difficulty > config.difficulty_threshold)
            assert result.offload_fraction == pytest.approx(expected, abs=0.02)
        else:
            assert result.offload_fraction == 0.0

    def test_energy_cheaper_than_small_local_baseline(self, runtime, small_dataset,
                                                      calibrated_experiment):
        subject = small_dataset.subjects[2]
        result = runtime.run(subject, Constraint.max_mae(6.0), use_oracle_difficulty=True)
        small_local = calibrated_experiment.baseline("TimePPG-Small", ExecutionTarget.WATCH)
        assert result.mean_watch_energy_j < small_local.watch_energy_j

    def test_run_with_explicit_configuration(self, runtime, small_dataset,
                                             calibrated_experiment):
        subject = small_dataset.subjects[2]
        config = calibrated_experiment.table.pareto()[0]
        result = runtime.run_with_configuration(subject, config, use_oracle_difficulty=True)
        assert result.configuration is config

    def test_per_model_counts_sum_to_windows(self, runtime, small_dataset):
        subject = small_dataset.subjects[2]
        result = runtime.run(subject, Constraint.max_mae(6.0), use_oracle_difficulty=True)
        assert sum(result.per_model_counts().values()) == result.n_windows

    def test_summary_mentions_configuration_and_mae(self, runtime, small_dataset):
        subject = small_dataset.subjects[2]
        result = runtime.run(subject, Constraint.max_mae(6.0), use_oracle_difficulty=True)
        summary = result.summary()
        assert "MAE" in summary
        assert result.configuration.configuration.simple_model in summary

    def test_disconnected_system_never_offloads(self, calibrated_experiment, small_dataset):
        runtime = CHRISRuntime(
            zoo=calibrated_experiment.zoo,
            engine=calibrated_experiment.engine,
            system=calibrated_experiment.system,
        )
        calibrated_experiment.system.ble.disconnect()
        try:
            subject = small_dataset.subjects[1]
            result = runtime.run(subject, Constraint.max_mae(6.0), use_oracle_difficulty=True)
            assert result.offload_fraction == 0.0
            assert result.configuration.is_local
        finally:
            calibrated_experiment.system.ble.reconnect()

    def test_rf_difficulty_decisions(self, calibrated_experiment, small_dataset,
                                     trained_activity_classifier):
        runtime = CHRISRuntime(
            zoo=calibrated_experiment.zoo,
            engine=calibrated_experiment.engine,
            system=calibrated_experiment.system,
            activity_classifier=trained_activity_classifier,
        )
        subject = small_dataset.subjects[2]
        oracle = runtime.run(subject, Constraint.max_mae(6.0), use_oracle_difficulty=True)
        with_rf = runtime.run(subject, Constraint.max_mae(6.0), use_oracle_difficulty=False)
        # Mispredictions exist but do not change the outcome dramatically
        # (the paper's claim in Sec. III-B.2).
        assert abs(with_rf.mae_bpm - oracle.mae_bpm) < 1.5
        assert abs(with_rf.offload_fraction - oracle.offload_fraction) < 0.15

    def test_empty_recording_rejected(self, runtime, small_dataset):
        subject = small_dataset.subjects[0]
        import dataclasses
        empty = dataclasses.replace(
            subject,
            ppg_windows=subject.ppg_windows[:0],
            accel_windows=subject.accel_windows[:0],
            activity=subject.activity[:0],
            hr=subject.hr[:0],
        )
        config = runtime.engine.select_or_closest(Constraint.max_mae(6.0))
        with pytest.raises(ValueError):
            runtime.run_with_configuration(empty, config)

