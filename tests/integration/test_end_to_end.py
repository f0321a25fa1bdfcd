"""End-to-end integration tests spanning every subsystem.

These tests exercise the full pipeline the paper describes: synthesize a
corpus, train the difficulty detector, (optionally) train and quantize a
real TCN, profile the configuration space, let the decision engine pick a
configuration, and replay a held-out subject through the CHRIS runtime on
the calibrated hardware co-model.
"""

import numpy as np
import pytest

from repro.core.decision_engine import Constraint
from repro.core.profiling import ConfigurationProfiler, ProfilingData
from repro.core.runtime import CHRISRuntime
from repro.core.zoo import ModelsZoo, ZooEntry
from repro.data import SyntheticDaliaGenerator, SyntheticDatasetConfig, WindowedDataset
from repro.hw.battery import estimate_lifetime_hours
from repro.hw.platform import WearableSystem
from repro.hw.profiles import ExecutionTarget, build_deployment_table
from repro.ml.activity_classifier import ActivityClassifier
from repro.models import AdaptiveThresholdPredictor, SpectralHRPredictor
from repro.ml.metrics import mean_absolute_error


class TestRealModelEndToEnd:
    """Full pipeline with *real* (non-calibrated) classical predictors."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        config = SyntheticDatasetConfig(n_subjects=4, activity_duration_s=40.0, seed=33)
        dataset = SyntheticDaliaGenerator(config).generate_windowed()
        train = WindowedDataset(dataset.subjects[:2]).concatenated()
        profiling_subject = dataset.subjects[2]
        test_subject = dataset.subjects[3]

        classifier = ActivityClassifier(random_state=0)
        classifier.fit(train.accel_windows, train.activity)

        # Real classical models; their MAE is measured on the profiling subject.
        predictors = {"AT": AdaptiveThresholdPredictor(), "SpectralTracker": SpectralHRPredictor()}
        maes = {}
        for name, predictor in predictors.items():
            predictor.reset()
            predictions = predictor.predict(
                profiling_subject.ppg_windows, profiling_subject.accel_windows
            )
            maes[name] = mean_absolute_error(profiling_subject.hr, predictions)
        deployments = build_deployment_table(
            [p.info for p in predictors.values()], maes=maes, prefer_paper=True
        )
        zoo = ModelsZoo(
            [ZooEntry(predictor=predictors[name], deployment=deployments[name])
             for name in predictors]
        )
        system = WearableSystem()
        data = ProfilingData.from_zoo_predictions(zoo, profiling_subject, classifier)
        table = ConfigurationProfiler(zoo, system).profile_all(data)
        return zoo, system, table, classifier, test_subject, maes

    def test_profiling_reflects_model_quality(self, pipeline):
        _, _, table, _, _, maes = pipeline
        assert maes["SpectralTracker"] < maes["AT"]
        assert len(table) == 20  # one pair x 10 thresholds x 2 modes

    def test_runtime_on_unseen_subject(self, pipeline):
        zoo, system, table, classifier, test_subject, maes = pipeline
        from repro.core.decision_engine import DecisionEngine

        engine = DecisionEngine(table)
        runtime = CHRISRuntime(zoo, engine, system, classifier)
        constraint = Constraint.max_mae(maes["SpectralTracker"] * 1.3)
        result = runtime.run(test_subject, constraint)
        assert result.n_windows == test_subject.n_windows
        # The achieved error is in the plausible band between the two models.
        assert result.mae_bpm < maes["AT"] * 1.5
        # Energy per prediction translates into a multi-day battery life.
        assert estimate_lifetime_hours(result.mean_watch_energy_j) > 24.0

    def test_energy_accounting_consistency(self, pipeline):
        zoo, system, table, classifier, test_subject, _ = pipeline
        from repro.core.decision_engine import DecisionEngine

        engine = DecisionEngine(table)
        runtime = CHRISRuntime(zoo, engine, system, classifier)
        result = runtime.run(test_subject, Constraint.max_energy_mj(0.6))
        total = sum(
            float(np.sum(column))
            for column in (result.watch_compute_j, result.watch_radio_j, result.watch_idle_j)
        )
        assert result.total_watch_energy_j == pytest.approx(total)
        assert result.mean_watch_energy_j == pytest.approx(total / result.n_windows)


class TestCalibratedEndToEnd:
    """Calibrated-mode pipeline (the benchmark harness path)."""

    def test_selected_configuration_generalizes_to_new_subjects(self, oracle_experiment):
        """A configuration selected on the profiling set keeps (approximately)
        its promised MAE/energy on freshly generated subjects."""
        selected = oracle_experiment.select(Constraint.max_mae(5.60))
        config = SyntheticDatasetConfig(n_subjects=2, activity_duration_s=60.0, seed=77)
        fresh = SyntheticDaliaGenerator(config).generate_windowed()
        from repro.core.runtime import CHRISRuntime

        runtime = CHRISRuntime(
            zoo=oracle_experiment.zoo,
            engine=oracle_experiment.engine,
            system=oracle_experiment.system,
        )
        for subject in fresh:
            result = runtime.run_with_configuration(subject, selected, use_oracle_difficulty=True)
            assert result.mae_bpm < 5.60 * 1.4
            assert result.mean_watch_energy_j == pytest.approx(selected.watch_energy_j, rel=0.15)

    def test_connection_loss_degrades_gracefully(self, oracle_experiment):
        """When BLE drops, the engine falls back to a local configuration with
        higher error or energy, never crashes."""
        connected = oracle_experiment.select(Constraint.max_mae(5.60), connected=True)
        local = oracle_experiment.select(Constraint.max_mae(5.60), connected=False)
        assert local.is_local
        # Meeting the same MAE bound locally costs (much) more energy.
        assert local.watch_energy_j > connected.watch_energy_j

    def test_battery_lifetime_improvement_is_tangible(self, oracle_experiment):
        selected = oracle_experiment.select(Constraint.max_mae(5.60))
        small_local = oracle_experiment.baseline("TimePPG-Small", ExecutionTarget.WATCH)
        life_chris = estimate_lifetime_hours(selected.watch_energy_j)
        life_small = estimate_lifetime_hours(small_local.watch_energy_j)
        assert life_chris > 1.4 * life_small
