"""Activity-recognition classifier (the CHRIS difficulty detector).

The classifier wraps the from-scratch Random Forest with the paper's
feature extraction: for every accelerometer window it computes the four
selected statistical features (mean, energy, standard deviation, number of
peaks, axis-averaged) and predicts one of the nine activities, from which
the difficulty level follows via the fixed activity ordering.  Feature
extraction and the forest walk are batched over all windows and exact
per row, so the runtime labels a whole fleet plan in one
:meth:`ActivityClassifier.predict_difficulty` call.

In the paper this model runs on the ML core embedded in the LSM6DSM
accelerometer, so its execution is free from the point of view of the main
MCU; the hardware model accounts for that by assigning it zero MCU energy
(see :mod:`repro.hw.profiles`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.activities import Activity, difficulties_of
from repro.ml.metrics import accuracy_score, binary_accuracy_at_threshold
from repro.ml.random_forest import RandomForestClassifier
from repro.signal.features import feature_vector

#: Forest hyper-parameters from the paper: 8 trees, maximum depth 5.
DEFAULT_RF_PARAMS: dict = {"n_estimators": 8, "max_depth": 5}


@dataclass
class ActivityClassifier:
    """Random-forest activity recognizer on the paper's 4 features.

    Parameters
    ----------
    n_estimators, max_depth, random_state:
        Forwarded to :class:`~repro.ml.random_forest.RandomForestClassifier`.
    extended_features:
        When ``True`` the 9-feature extended set is used instead of the
        paper's 4 features (useful for the feature-selection ablation).
    """

    n_estimators: int = DEFAULT_RF_PARAMS["n_estimators"]
    max_depth: int = DEFAULT_RF_PARAMS["max_depth"]
    random_state: int | None = 0
    extended_features: bool = False

    _forest: RandomForestClassifier = field(init=False, repr=False, default=None)  # type: ignore[assignment]
    _feature_mean: np.ndarray = field(init=False, repr=False, default=None)  # type: ignore[assignment]
    _feature_std: np.ndarray = field(init=False, repr=False, default=None)  # type: ignore[assignment]

    # ------------------------------------------------------------------ fit
    def extract_features(self, accel_windows: np.ndarray) -> np.ndarray:
        """Feature matrix for a batch of ``(n, samples, 3)`` accel windows."""
        return feature_vector(accel_windows, extended=self.extended_features)

    def fit(self, accel_windows: np.ndarray, activity_labels: np.ndarray) -> "ActivityClassifier":
        """Train the forest on accelerometer windows and activity labels."""
        features = self.extract_features(accel_windows)
        labels = np.asarray(activity_labels, dtype=int)
        if labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"got {features.shape[0]} windows but {labels.shape[0]} labels"
            )
        # Standardize features; trees do not need it, but it keeps the
        # stored thresholds in a narrow numeric range, which is how the
        # sensor-side implementation quantizes them.
        self._feature_mean = features.mean(axis=0)
        self._feature_std = features.std(axis=0) + 1e-12
        normalized = (features - self._feature_mean) / self._feature_std
        self._forest = RandomForestClassifier(
            n_estimators=self.n_estimators,
            max_depth=self.max_depth,
            random_state=self.random_state,
        )
        self._forest.fit(normalized, labels, n_classes=len(Activity))
        return self

    def _check_fitted(self) -> None:
        if self._forest is None:
            raise RuntimeError("ActivityClassifier must be fitted before prediction")

    # -------------------------------------------------------------- predict
    def predict_activity(self, accel_windows: np.ndarray) -> np.ndarray:
        """Predicted activity identifier for each accelerometer window."""
        self._check_fitted()
        features = self.extract_features(accel_windows)
        normalized = (features - self._feature_mean) / self._feature_std
        return self._forest.predict(normalized)

    def predict_difficulty(self, accel_windows: np.ndarray) -> np.ndarray:
        """Predicted difficulty level (1–9) for each accelerometer window."""
        activities = self.predict_activity(accel_windows)
        return difficulties_of(activities)

    # ------------------------------------------------------------- evaluate
    def evaluate(self, accel_windows: np.ndarray, activity_labels: np.ndarray) -> dict:
        """Accuracy metrics on a labelled window set.

        Returns a dictionary with the 9-class activity accuracy, the
        difficulty-level accuracy, and the easy-vs-hard accuracy at every
        possible threshold (the paper's ">90 %" claim refers to the
        latter).
        """
        self._check_fitted()
        labels = np.asarray(activity_labels, dtype=int)
        predicted = self.predict_activity(accel_windows)
        true_difficulty = difficulties_of(labels)
        predicted_difficulty = difficulties_of(predicted)
        per_threshold = {
            threshold: binary_accuracy_at_threshold(true_difficulty, predicted_difficulty, threshold)
            for threshold in range(1, 9)
        }
        return {
            "activity_accuracy": accuracy_score(labels, predicted),
            "difficulty_accuracy": accuracy_score(true_difficulty, predicted_difficulty),
            "easy_vs_hard_accuracy": per_threshold,
        }
