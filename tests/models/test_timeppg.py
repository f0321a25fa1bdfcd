"""Tests for the TimePPG temporal convolutional networks."""

import numpy as np
import pytest

from repro.models.timeppg import (
    TIMEPPG_BIG_CONFIG,
    TIMEPPG_SMALL_CONFIG,
    TimePPGConfig,
    TimePPGPredictor,
    build_timeppg_network,
)
from repro.nn.layers import Conv1d
from repro.nn.ops_count import count_macs, count_parameters
from repro.nn.quantization import quantize_network


class TestArchitecture:
    def test_nine_convolutional_layers(self):
        """Paper Sec. III-C: 3 blocks x 3 convolutional layers."""
        for config in (TIMEPPG_SMALL_CONFIG, TIMEPPG_BIG_CONFIG):
            net = build_timeppg_network(config)
            convs = [l for l in net.layers if isinstance(l, Conv1d)]
            assert len(convs) == 9

    def test_each_block_has_stride_and_dilations(self):
        net = build_timeppg_network(TIMEPPG_SMALL_CONFIG)
        convs = [l for l in net.layers if isinstance(l, Conv1d)]
        for block in range(3):
            block_convs = convs[3 * block: 3 * block + 3]
            assert block_convs[0].stride == 2
            assert block_convs[1].dilation > 1
            assert block_convs[2].dilation > 1

    def test_complexity_close_to_paper(self):
        """Parameter/operation counts within 35 % of the published figures."""
        for config in (TIMEPPG_SMALL_CONFIG, TIMEPPG_BIG_CONFIG):
            net = build_timeppg_network(config)
            params = count_parameters(net)
            macs = count_macs(net, (config.input_channels, config.input_length))
            assert abs(params - config.paper_parameters) / config.paper_parameters < 0.35
            assert abs(macs - config.paper_macs) / config.paper_macs < 0.35

    def test_big_is_much_larger_than_small(self):
        small = build_timeppg_network(TIMEPPG_SMALL_CONFIG)
        big = build_timeppg_network(TIMEPPG_BIG_CONFIG)
        assert count_parameters(big) > 20 * count_parameters(small)
        macs_small = count_macs(small, (4, 256))
        macs_big = count_macs(big, (4, 256))
        assert macs_big > 50 * macs_small

    def test_forward_output_shape(self):
        net = build_timeppg_network(TIMEPPG_SMALL_CONFIG)
        out = net.forward(np.zeros((5, 4, 256)))
        assert out.shape == (5, 1)

    def test_initialization_is_seeded(self):
        a = build_timeppg_network(TIMEPPG_SMALL_CONFIG, seed=3)
        b = build_timeppg_network(TIMEPPG_SMALL_CONFIG, seed=3)
        c = build_timeppg_network(TIMEPPG_SMALL_CONFIG, seed=4)
        x = np.random.default_rng(0).normal(size=(2, 4, 256))
        assert np.allclose(a.forward(x), b.forward(x))
        assert not np.allclose(a.forward(x), c.forward(x))


class TestPredictor:
    def test_info_reflects_measured_complexity(self):
        predictor = TimePPGPredictor(TIMEPPG_SMALL_CONFIG)
        info = predictor.info
        assert info.name == "TimePPG-Small"
        assert info.n_parameters == count_parameters(predictor.network)
        assert info.uses_accelerometer

    def test_prepare_input_layout_and_standardization(self, small_dataset):
        subject = small_dataset.subjects[0]
        predictor = TimePPGPredictor(TIMEPPG_SMALL_CONFIG)
        batch = predictor.prepare_input(subject.ppg_windows[:6], subject.accel_windows[:6])
        assert batch.shape == (6, 4, 256)
        assert np.allclose(batch.mean(axis=2), 0.0, atol=1e-6)

    def test_prepare_input_without_accel_pads_zero_channels(self):
        predictor = TimePPGPredictor(TIMEPPG_SMALL_CONFIG)
        batch = predictor.prepare_input(np.random.default_rng(0).normal(size=(3, 256)), None)
        assert batch.shape == (3, 4, 256)
        assert np.allclose(batch[:, 1:, :], 0.0)

    def test_wrong_window_length_rejected(self):
        predictor = TimePPGPredictor(TIMEPPG_SMALL_CONFIG)
        with pytest.raises(ValueError):
            predictor.prepare_input(np.zeros((2, 128)), None)

    def test_predictions_are_clipped_to_physiological_range(self):
        predictor = TimePPGPredictor(TIMEPPG_SMALL_CONFIG, seed=0)
        predictions = predictor.predict(np.random.default_rng(1).normal(size=(8, 256)) * 100)
        assert np.all(predictions >= 30.0)
        assert np.all(predictions <= 220.0)

    def test_predict_window_matches_batch(self, small_dataset):
        subject = small_dataset.subjects[0]
        predictor = TimePPGPredictor(TIMEPPG_SMALL_CONFIG, seed=1)
        batch = predictor.predict(subject.ppg_windows[:3], subject.accel_windows[:3])
        single = predictor.predict_window(subject.ppg_windows[1], subject.accel_windows[1])
        assert single == pytest.approx(batch[1])

    def test_quantized_inference_path(self, small_dataset):
        subject = small_dataset.subjects[0]
        predictor = TimePPGPredictor(TIMEPPG_SMALL_CONFIG, seed=2)
        float_predictions = predictor.predict(subject.ppg_windows[:8], subject.accel_windows[:8])
        calibration = predictor.prepare_input(subject.ppg_windows[:16], subject.accel_windows[:16])
        predictor.quantized = quantize_network(predictor.network, calibration)
        quant_predictions = predictor.predict(subject.ppg_windows[:8], subject.accel_windows[:8])
        assert quant_predictions.shape == float_predictions.shape
        # int8 quantization must not change the predictions dramatically.
        assert np.mean(np.abs(quant_predictions - float_predictions)) < 5.0


class TestInferenceMode:
    def test_freeze_matches_eval_forward_within_rounding(self, small_dataset):
        subject = small_dataset.subjects[0]
        predictor = TimePPGPredictor(TIMEPPG_SMALL_CONFIG, seed=3)
        reference = predictor.predict(subject.ppg_windows[:16], subject.accel_windows[:16])
        frozen = predictor.freeze().predict(
            subject.ppg_windows[:16], subject.accel_windows[:16]
        )
        np.testing.assert_allclose(frozen, reference, rtol=1e-9, atol=1e-9)

    def test_freeze_snapshots_and_unfreeze_returns_to_live_weights(self):
        rng = np.random.default_rng(0)
        windows = rng.normal(size=(4, 256))
        predictor = TimePPGPredictor(TIMEPPG_SMALL_CONFIG, seed=4).freeze()
        frozen = predictor.predict(windows)
        # Mutate the live network: the frozen snapshot must not move.
        for _, params in predictor.network.parameters():
            for value in params.values():
                value[...] = value * 1.5 + 0.1
        np.testing.assert_array_equal(predictor.predict(windows), frozen)
        assert not np.allclose(predictor.unfreeze().predict(windows), frozen)

    def test_quantized_takes_precedence_over_frozen(self, small_dataset):
        subject = small_dataset.subjects[0]
        predictor = TimePPGPredictor(TIMEPPG_SMALL_CONFIG, seed=5)
        calibration = predictor.prepare_input(
            subject.ppg_windows[:16], subject.accel_windows[:16]
        )
        predictor.quantized = quantize_network(predictor.network, calibration)
        quantized = predictor.predict(subject.ppg_windows[:8], subject.accel_windows[:8])
        np.testing.assert_array_equal(
            predictor.freeze().predict(subject.ppg_windows[:8], subject.accel_windows[:8]),
            quantized,
        )

    def test_fleet_batchable_flag(self):
        """Row-bit-stable and stateless: fused into one batch per fleet."""
        assert TimePPGPredictor.FLEET_BATCHABLE


class TestZeroRowBatches:
    def test_predict_returns_empty_estimates(self):
        predictor = TimePPGPredictor(TIMEPPG_SMALL_CONFIG)
        out = predictor.predict(np.empty((0, 256)), np.empty((0, 256, 3)))
        assert out.shape == (0,)
        assert out.dtype == float

    def test_predict_without_accel_and_frozen(self):
        predictor = TimePPGPredictor(TIMEPPG_SMALL_CONFIG).freeze()
        assert predictor.predict(np.empty((0, 256))).shape == (0,)

    def test_predict_fleet_with_zero_window_slots(self):
        from repro.models.base import FleetState

        predictor = TimePPGPredictor(TIMEPPG_SMALL_CONFIG, seed=6)
        rng = np.random.default_rng(1)
        windows = rng.normal(size=(5, 256))
        accel = rng.normal(size=(5, 256, 3))
        # Slot 1 of 3 never appears: three slots, windows only for 0 and 2.
        state = FleetState.for_slots(3)
        out = predictor.predict_fleet(
            windows,
            accel,
            subject_index=np.array([0, 0, 0, 2, 2]),
            state=state,
        )
        assert out.shape == (5,)
        reference = np.concatenate(
            [predictor.predict(windows[:3], accel[:3]), predictor.predict(windows[3:], accel[3:])]
        )
        np.testing.assert_array_equal(out, reference)


class TestCustomConfig:
    def test_custom_tiny_variant_builds(self):
        config = TimePPGConfig(
            name="TimePPG-Tiny",
            block_channels=(2, 2, 4),
            kernel_size=3,
            head_pool=8,
            head_hidden=0,
        )
        net = build_timeppg_network(config)
        assert net.forward(np.zeros((1, 4, 256))).shape == (1, 1)
        assert count_parameters(net) < 1000
