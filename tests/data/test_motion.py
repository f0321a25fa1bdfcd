"""Tests for repro.data.motion."""

import dataclasses

import numpy as np
import pytest

from repro.data.activities import ACTIVITY_DIFFICULTY, Activity
from repro.data.motion import (
    ACTIVITY_MOTION_PROFILES,
    AccelerometerSynthesizer,
    MotionArtifactModel,
)


class TestMotionProfiles:
    def test_every_activity_has_a_profile(self):
        assert set(ACTIVITY_MOTION_PROFILES) == set(Activity)

    def test_artifact_coupling_follows_difficulty_order(self):
        ordered = sorted(Activity, key=lambda a: ACTIVITY_DIFFICULTY[a])
        couplings = [ACTIVITY_MOTION_PROFILES[a].artifact_coupling for a in ordered]
        assert couplings == sorted(couplings)

    def test_periodic_amplitude_follows_difficulty_order(self):
        ordered = sorted(Activity, key=lambda a: ACTIVITY_DIFFICULTY[a])
        amplitudes = [ACTIVITY_MOTION_PROFILES[a].periodic_amplitude for a in ordered]
        assert amplitudes == sorted(amplitudes)


class TestAccelerometerSynthesizer:
    def test_output_shape(self):
        synth = AccelerometerSynthesizer(rng=np.random.default_rng(0))
        labels = np.full(32 * 30, int(Activity.WALKING))
        accel = synth.synthesize(labels)
        assert accel.shape == (labels.size, 3)

    def test_gravity_present_even_at_rest(self):
        synth = AccelerometerSynthesizer(rng=np.random.default_rng(1))
        labels = np.full(32 * 30, int(Activity.RESTING))
        accel = synth.synthesize(labels)
        magnitude = np.linalg.norm(accel, axis=1)
        assert magnitude.mean() == pytest.approx(1.0, abs=0.25)

    def test_dynamic_energy_reproduces_difficulty_ordering(self):
        """Window-level acceleration std must rank activities as the paper does."""
        synth = AccelerometerSynthesizer(rng=np.random.default_rng(2))
        window = 256
        stds = {}
        for activity in Activity:
            labels = np.full(32 * 120, int(activity))
            accel = synth.synthesize(labels)
            windows = accel[: (accel.shape[0] // window) * window].reshape(-1, window, 3)
            stds[activity] = float(np.median(windows.std(axis=1).mean(axis=1)))
        ordered = sorted(Activity, key=lambda a: ACTIVITY_DIFFICULTY[a])
        values = [stds[a] for a in ordered]
        # Monotone non-decreasing along the difficulty ordering.
        assert all(b >= a * 0.95 for a, b in zip(values, values[1:])), values

    def test_empty_labels(self):
        assert AccelerometerSynthesizer().synthesize(np.array([], dtype=int)).shape == (0, 3)

    def test_2d_labels_rejected(self):
        with pytest.raises(ValueError):
            AccelerometerSynthesizer().synthesize(np.zeros((3, 3), dtype=int))


#: Table-soccer motion with jerks so dense that every bout draws some.
DENSE_JERKS = dataclasses.replace(
    ACTIVITY_MOTION_PROFILES[Activity.TABLE_SOCCER], jerk_rate_hz=1000.0
)


def jerk_train_oracle(synth: AccelerometerSynthesizer, n: int, profile) -> np.ndarray:
    """The ``mode="same"`` jerk train, valid for bouts at least a kernel long."""
    n_events = synth.rng.poisson(profile.jerk_rate_hz * n / synth.fs)
    train = np.zeros(n)
    if n_events == 0 or n == 0:
        return train
    positions = synth.rng.integers(0, n, size=n_events)
    amplitudes = synth.rng.normal(0.0, profile.jerk_amplitude, size=n_events)
    np.add.at(train, positions, amplitudes)
    kernel_len = max(2, int(0.25 * synth.fs))
    kernel = np.exp(-np.arange(kernel_len) / (0.1 * synth.fs))
    return np.convolve(train, kernel, mode="same")


class TestJerkTrain:
    @pytest.mark.parametrize(
        "fs, n",
        [(32.0, n) for n in (8, 9, 31, 256, 299, 2000, 9600)] + [(64.0, 16), (64.0, 301)],
    )
    def test_matches_same_mode_oracle(self, fs, n):
        synth = AccelerometerSynthesizer(fs=fs, rng=np.random.default_rng(n))
        oracle = AccelerometerSynthesizer(fs=fs, rng=np.random.default_rng(n))
        expected = jerk_train_oracle(oracle, n, DENSE_JERKS)
        assert np.any(expected)
        np.testing.assert_array_equal(synth._jerk_train(n, DENSE_JERKS), expected)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bout_shorter_than_kernel(self, n):
        synth = AccelerometerSynthesizer(rng=np.random.default_rng(n))
        jerks = synth._jerk_train(n, DENSE_JERKS)
        assert jerks.shape == (n,)
        assert np.any(jerks)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_short_bout_synthesizes(self, n, monkeypatch):
        monkeypatch.setitem(ACTIVITY_MOTION_PROFILES, Activity.TABLE_SOCCER, DENSE_JERKS)
        labels = np.concatenate(
            [
                np.full(64, int(Activity.WALKING)),
                np.full(n, int(Activity.TABLE_SOCCER)),
                np.full(64, int(Activity.WALKING)),
            ]
        )
        accel = AccelerometerSynthesizer(rng=np.random.default_rng(n)).synthesize(labels)
        assert accel.shape == (labels.size, 3)
        assert np.isfinite(accel).all()


class TestMotionArtifactModel:
    def _accel_and_labels(self, activity: Activity, seconds: float = 60.0, seed: int = 0):
        labels = np.full(int(32 * seconds), int(activity))
        accel = AccelerometerSynthesizer(rng=np.random.default_rng(seed)).synthesize(labels)
        return accel, labels

    def test_output_shape(self):
        model = MotionArtifactModel(rng=np.random.default_rng(0))
        accel, labels = self._accel_and_labels(Activity.WALKING)
        artifacts = model.artifacts(accel, labels)
        assert artifacts.shape == labels.shape

    def test_harder_activities_produce_larger_artifacts(self):
        model = MotionArtifactModel(rng=np.random.default_rng(1))
        rest_accel, rest_labels = self._accel_and_labels(Activity.RESTING, seed=1)
        soccer_accel, soccer_labels = self._accel_and_labels(Activity.TABLE_SOCCER, seed=1)
        rest = model.artifacts(rest_accel, rest_labels)
        soccer = model.artifacts(soccer_accel, soccer_labels)
        assert np.std(soccer) > 10 * np.std(rest)

    def test_mismatched_lengths_rejected(self):
        model = MotionArtifactModel()
        with pytest.raises(ValueError):
            model.artifacts(np.zeros((10, 3)), np.zeros(5, dtype=int))

    def test_wrong_accel_shape_rejected(self):
        model = MotionArtifactModel()
        with pytest.raises(ValueError):
            model.artifacts(np.zeros((10, 2)), np.zeros(10, dtype=int))

    def test_empty_input(self):
        model = MotionArtifactModel()
        assert model.artifacts(np.zeros((0, 3)), np.zeros(0, dtype=int)).shape == (0,)
