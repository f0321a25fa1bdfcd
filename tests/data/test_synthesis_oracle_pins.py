"""The table-driven synthesis equals its per-sample / per-window oracles.

Whole corpora are generated twice, once as shipped and once under
:func:`~tests.data.synthesis_oracle.oracle_synthesis`, and every windowed
array must be bit-identical; the three rewritten functions are also
pinned on their own.
"""

from unittest import mock

import numpy as np
import pytest

from repro.data.activities import ACTIVITIES
from repro.data.hr_dynamics import HeartRateDynamics
from repro.data.motion import AccelerometerSynthesizer, MotionArtifactModel
from repro.data.synthetic import SyntheticDaliaGenerator, SyntheticDatasetConfig
from repro.signal.windowing import WindowSpec, label_windows
from tests.data.synthesis_oracle import (
    artifacts_oracle,
    hr_generate_oracle,
    label_windows_oracle,
    oracle_synthesis,
)

CONFIGS = [
    # The benchmark pipeline's classifier corpus.
    SyntheticDatasetConfig(n_subjects=2, activity_duration_s=60.0, seed=20230417),
    # CalibratedExperiment.build(seed=0, n_subjects=4, activity_duration_s=40.0)'s corpus.
    SyntheticDatasetConfig(n_subjects=4, activity_duration_s=40.0, seed=0),
    SyntheticDatasetConfig(
        n_subjects=2, activity_duration_s=30.0, seed=5, artifact_scale=0.0, shuffle_activities=False
    ),
]


def _labels(seed: int, n: int) -> np.ndarray:
    """A bout-structured activity stream with uneven bout lengths."""
    rng = np.random.default_rng(seed)
    bouts = rng.integers(16, 200, size=max(1, n // 50))
    labels = np.repeat(rng.integers(0, len(ACTIVITIES), size=bouts.size), bouts)
    return labels[:n]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"seed{c.seed}")
def test_generate_windowed_matches_oracle(config):
    got = SyntheticDaliaGenerator(config).generate_windowed()
    with oracle_synthesis():
        want = SyntheticDaliaGenerator(config).generate_windowed()
    assert [s.subject_id for s in got.subjects] == [s.subject_id for s in want.subjects]
    for a, b in zip(got.subjects, want.subjects):
        for name in ("ppg_windows", "accel_windows", "activity", "hr", "difficulty"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hr_generate_matches_oracle(seed):
    labels = _labels(seed, 5000)
    kwargs = dict(resting_hr=58.0 + seed, response_time_s=20.0 + seed, reversion_rate=0.05 * (seed + 1))
    got = HeartRateDynamics(rng=np.random.default_rng(seed), **kwargs).generate(labels)
    want = hr_generate_oracle(HeartRateDynamics(rng=np.random.default_rng(seed), **kwargs), labels)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_hr_generate_makes_no_per_sample_activity_lookup():
    labels = _labels(3, 2000)
    with mock.patch("repro.data.hr_dynamics.Activity", side_effect=AssertionError("enum lookup")):
        HeartRateDynamics(rng=np.random.default_rng(0)).generate(labels)


def test_invalid_activity_ids_rejected():
    with pytest.raises(ValueError):
        HeartRateDynamics().generate(np.array([0, 1, len(ACTIVITIES)]))
    with pytest.raises(ValueError):
        MotionArtifactModel().artifacts(np.zeros((3, 3)), np.array([0, -1, 2]))


@pytest.mark.parametrize("seed", [0, 1])
def test_artifacts_match_oracle(seed):
    labels = _labels(seed, 3000)
    accel = AccelerometerSynthesizer(rng=np.random.default_rng(seed)).synthesize(labels)
    got = MotionArtifactModel(rng=np.random.default_rng(seed)).artifacts(accel, labels)
    want = artifacts_oracle(MotionArtifactModel(rng=np.random.default_rng(seed)), accel, labels)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("spec", [WindowSpec(length=256, stride=64), WindowSpec(length=8, stride=3)])
def test_label_windows_matches_oracle(seed, spec):
    rng = np.random.default_rng(seed)
    # Short bouts of few labels make many tied windows (ties go to the
    # smallest label); negative labels check the value mapping.
    labels = np.repeat(rng.integers(-2, 3, size=400), rng.integers(1, 9, size=400))
    got = label_windows(labels, spec)
    want = label_windows_oracle(labels, spec)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_label_windows_too_short_stream():
    got = label_windows(np.arange(5), WindowSpec(length=8, stride=4))
    assert got.shape == (0,) and got.dtype == np.arange(5).dtype
