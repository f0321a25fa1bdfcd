"""Tests for repro.signal.features."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.signal.features import (
    CHUNK_WINDOWS,
    EXTENDED_FEATURE_NAMES,
    FEATURE_NAMES,
    accelerometer_features,
    extended_accelerometer_features,
    feature_vector,
    signal_energy,
)
from tests.signal.feature_oracle import (
    accelerometer_features_oracle,
    feature_vector_oracle,
)


class TestSignalEnergy:
    def test_constant_signal(self):
        assert signal_energy(np.full(10, 2.0)) == pytest.approx(4.0)

    def test_empty_signal(self):
        assert signal_energy(np.array([])) == 0.0

    def test_scales_quadratically(self):
        x = np.random.default_rng(0).normal(size=200)
        assert signal_energy(3 * x) == pytest.approx(9 * signal_energy(x))


class TestAccelerometerFeatures:
    def test_feature_count_and_names(self):
        assert len(FEATURE_NAMES) == 4
        window = np.random.default_rng(1).normal(size=(256, 3))
        assert accelerometer_features(window).shape == (4,)

    def test_known_values_on_constant_window(self):
        window = np.full((100, 3), 2.0)
        mean, energy, std, n_peaks = accelerometer_features(window)
        assert mean == pytest.approx(2.0)
        assert energy == pytest.approx(4.0)
        assert std == pytest.approx(0.0)
        assert n_peaks == 0.0

    def test_single_axis_input(self):
        window = np.sin(np.linspace(0, 8 * np.pi, 256))
        features = accelerometer_features(window)
        assert features.shape == (4,)
        assert features[3] > 0  # oscillation produces derivative sign changes

    def test_more_motion_more_std_and_energy(self):
        rng = np.random.default_rng(2)
        calm = rng.normal(0, 0.01, size=(256, 3))
        active = rng.normal(0, 0.5, size=(256, 3))
        f_calm = accelerometer_features(calm)
        f_active = accelerometer_features(active)
        assert f_active[1] > f_calm[1]  # energy
        assert f_active[2] > f_calm[2]  # std

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            accelerometer_features(np.empty((0, 3)))


class TestExtendedFeatures:
    def test_count_and_prefix(self):
        window = np.random.default_rng(3).normal(size=(128, 3))
        extended = extended_accelerometer_features(window)
        assert extended.shape == (len(EXTENDED_FEATURE_NAMES),)
        assert np.allclose(extended[:4], accelerometer_features(window))

    def test_range_is_max_minus_min(self):
        window = np.stack([np.linspace(-1, 1, 50)] * 3, axis=1)
        extended = extended_accelerometer_features(window)
        names = list(EXTENDED_FEATURE_NAMES)
        assert extended[names.index("range")] == pytest.approx(2.0)


class TestFeatureVector:
    def test_batch_shape(self):
        windows = np.random.default_rng(4).normal(size=(10, 64, 3))
        assert feature_vector(windows).shape == (10, 4)
        assert feature_vector(windows, extended=True).shape == (10, 9)

    def test_2d_batch_treated_as_single_axis(self):
        windows = np.random.default_rng(5).normal(size=(6, 64))
        assert feature_vector(windows).shape == (6, 4)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            feature_vector(np.zeros((2, 3, 4, 5)))

    @pytest.mark.parametrize("extended, n_features", [(False, 4), (True, 9)])
    def test_empty_batch(self, extended, n_features):
        # Regression: an empty batch used to fail in ``np.stack``.
        features = feature_vector(np.empty((0, 64, 3)), extended=extended)
        assert features.shape == (0, n_features)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            feature_vector(np.empty((2, 0, 3)))


class TestBatchedMatchesPerWindowOracle:
    """The batch kernels against the per-window code they replaced."""

    @pytest.mark.parametrize("extended", [False, True])
    def test_bitwise_on_synthetic_corpus(self, small_dataset, extended):
        windows = np.concatenate([s.accel_windows for s in small_dataset.subjects])
        assert windows.shape[0] > 2 * CHUNK_WINDOWS
        assert np.array_equal(
            feature_vector(windows, extended=extended),
            feature_vector_oracle(windows, extended=extended),
        )

    def test_one_window_call_is_the_oracle(self, small_dataset):
        window = small_dataset.subjects[0].accel_windows[7]
        assert np.array_equal(accelerometer_features(window), accelerometer_features_oracle(window))

    @pytest.mark.parametrize(
        "size", [1, CHUNK_WINDOWS - 1, CHUNK_WINDOWS, CHUNK_WINDOWS + 1, 500]
    )
    @pytest.mark.parametrize("offset", [0, 37])
    def test_rows_independent_of_batch_and_chunking(self, small_dataset, size, offset):
        windows = np.concatenate([s.accel_windows for s in small_dataset.subjects])
        reference = feature_vector(windows)
        batch = windows[offset : offset + size]
        assert np.array_equal(feature_vector(batch), reference[offset : offset + size])

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=3),
        st.sampled_from(["quantized", "constant", "float"]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_bitwise_on_generated_windows(self, n, length, n_axes, kind, extended, seed):
        rng = np.random.default_rng(seed)
        if kind == "quantized":  # integer steps: many zero-derivative plateaus
            windows = rng.integers(-2, 3, size=(n, length, n_axes)).astype(float)
        elif kind == "constant":
            windows = np.full((n, length, n_axes), rng.normal())
        else:
            windows = rng.normal(scale=3.0, size=(n, length, n_axes))
        assert np.array_equal(
            feature_vector(windows, extended=extended),
            feature_vector_oracle(windows, extended=extended),
        )

    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(
                st.integers(min_value=1, max_value=4),
                st.integers(min_value=1, max_value=30),
                st.just(3),
            ),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_on_arbitrary_floats(self, windows):
        assert np.array_equal(feature_vector(windows), feature_vector_oracle(windows))
