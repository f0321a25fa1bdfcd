"""Tests for the CHRIS activity recognizer (difficulty detector)."""

import numpy as np
import pytest

from repro.data.activities import Activity, difficulty_of
from repro.ml.activity_classifier import DEFAULT_RF_PARAMS, ActivityClassifier
from tests.ml.forest_oracle import difficulty_oracle


class TestConfiguration:
    def test_paper_hyperparameters(self):
        # 8 trees, maximum depth 5 (paper Sec. III-C).
        assert DEFAULT_RF_PARAMS == {"n_estimators": 8, "max_depth": 5}
        classifier = ActivityClassifier()
        assert classifier.n_estimators == 8
        assert classifier.max_depth == 5

    def test_feature_extraction_shape(self, small_dataset):
        subject = small_dataset.subjects[0]
        classifier = ActivityClassifier()
        features = classifier.extract_features(subject.accel_windows)
        assert features.shape == (subject.n_windows, 4)
        extended = ActivityClassifier(extended_features=True).extract_features(
            subject.accel_windows
        )
        assert extended.shape == (subject.n_windows, 9)


class TestTrainingAndAccuracy:
    def test_fit_predict_shapes(self, trained_activity_classifier, small_dataset):
        subject = small_dataset.subjects[1]
        activities = trained_activity_classifier.predict_activity(subject.accel_windows)
        difficulties = trained_activity_classifier.predict_difficulty(subject.accel_windows)
        assert activities.shape == (subject.n_windows,)
        assert difficulties.shape == (subject.n_windows,)
        assert np.all((difficulties >= 1) & (difficulties <= 9))

    def test_difficulty_consistent_with_activity(self, trained_activity_classifier, small_dataset):
        subject = small_dataset.subjects[1]
        activities = trained_activity_classifier.predict_activity(subject.accel_windows)
        difficulties = trained_activity_classifier.predict_difficulty(subject.accel_windows)
        expected = np.array([difficulty_of(Activity(a)) for a in activities])
        assert np.array_equal(difficulties, expected)

    def test_easy_vs_hard_accuracy_above_90_percent(self, trained_activity_classifier, small_dataset):
        """The paper's claim: >90 % accuracy at discerning easy from hard windows."""
        subject = small_dataset.subjects[1]  # unseen subject
        metrics = trained_activity_classifier.evaluate(subject.accel_windows, subject.activity)
        assert metrics["activity_accuracy"] > 0.6
        for threshold, accuracy in metrics["easy_vs_hard_accuracy"].items():
            assert accuracy > 0.85, f"threshold {threshold}: {accuracy:.3f}"
        mid_thresholds = [metrics["easy_vs_hard_accuracy"][t] for t in (3, 4, 5, 6)]
        assert min(mid_thresholds) > 0.9

    def test_label_count_mismatch_rejected(self, small_dataset):
        subject = small_dataset.subjects[0]
        classifier = ActivityClassifier()
        with pytest.raises(ValueError):
            classifier.fit(subject.accel_windows, subject.activity[:-1])

    def test_predict_before_fit(self, small_dataset):
        subject = small_dataset.subjects[0]
        with pytest.raises(RuntimeError):
            ActivityClassifier().predict_activity(subject.accel_windows)


class TestBatchedDetector:
    def test_difficulties_match_per_window_oracle(self, trained_activity_classifier, small_dataset):
        windows = np.concatenate([s.accel_windows for s in small_dataset.subjects])
        assert np.array_equal(
            trained_activity_classifier.predict_difficulty(windows),
            difficulty_oracle(trained_activity_classifier)(windows),
        )

    def test_extended_features_match_oracle(self, small_dataset):
        subject = small_dataset.subjects[0]
        classifier = ActivityClassifier(extended_features=True).fit(
            subject.accel_windows, subject.activity
        )
        windows = small_dataset.subjects[2].accel_windows
        assert np.array_equal(
            classifier.predict_difficulty(windows),
            difficulty_oracle(classifier)(windows),
        )

    def test_empty_batch_gives_empty_labels(self, trained_activity_classifier, small_dataset):
        # Regression: feature extraction used to fail on an empty batch.
        length = small_dataset.subjects[0].accel_windows.shape[1]
        labels = trained_activity_classifier.predict_difficulty(np.empty((0, length, 3)))
        assert labels.shape == (0,)
        assert labels.dtype.kind == "i"
