"""Tests for the NumPy NN layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn.layers import (
    AvgPool1d,
    BatchNorm1d,
    Conv1d,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool1d,
    ReLU,
)


def numerical_gradient(fn, array, index, eps=1e-6):
    """Central finite-difference derivative of ``fn`` w.r.t. ``array[index]``."""
    array[index] += eps
    plus = fn()
    array[index] -= 2 * eps
    minus = fn()
    array[index] += eps
    return (plus - minus) / (2 * eps)


class TestConv1dGeometry:
    def test_same_padding_keeps_length(self):
        conv = Conv1d(2, 4, kernel_size=3, dilation=4, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3, 2, 100))
        assert conv.forward(x).shape == (3, 4, 100)

    def test_stride_two_halves_length(self):
        conv = Conv1d(1, 1, kernel_size=3, stride=2, rng=np.random.default_rng(0))
        for length in (256, 255, 100, 17):
            x = np.zeros((1, 1, length))
            assert conv.forward(x).shape[-1] == int(np.ceil(length / 2))

    def test_effective_kernel(self):
        assert Conv1d(1, 1, kernel_size=3, dilation=4).effective_kernel == 9
        assert Conv1d(1, 1, kernel_size=5, dilation=1).effective_kernel == 5

    def test_explicit_integer_padding(self):
        conv = Conv1d(1, 1, kernel_size=3, padding=0, rng=np.random.default_rng(0))
        x = np.zeros((1, 1, 10))
        assert conv.forward(x).shape[-1] == 8

    def test_output_shape_helper_matches_forward(self):
        conv = Conv1d(3, 5, kernel_size=3, stride=2, dilation=2, rng=np.random.default_rng(0))
        x = np.random.default_rng(2).normal(size=(2, 3, 77))
        out = conv.forward(x)
        assert conv.output_shape((3, 77)) == out.shape[1:]

    def test_channel_mismatch_rejected(self):
        conv = Conv1d(3, 5, 3)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 4, 32)))
        with pytest.raises(ValueError):
            conv.output_shape((4, 32))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            Conv1d(0, 1, 3)
        with pytest.raises(ValueError):
            Conv1d(1, 1, 0)
        with pytest.raises(ValueError):
            Conv1d(1, 1, 3, stride=0)
        with pytest.raises(ValueError):
            Conv1d(1, 1, 3, dilation=0)


class TestConv1dKnownValues:
    def test_matches_numpy_correlate_for_simple_kernel(self):
        conv = Conv1d(1, 1, kernel_size=3, padding=0, bias=False, rng=np.random.default_rng(0))
        conv.params["weight"][...] = np.array([[[1.0, 2.0, 3.0]]])
        x = np.arange(6, dtype=float).reshape(1, 1, 6)
        out = conv.forward(x)[0, 0]
        # Cross-correlation of [0..5] with [1,2,3]: position t -> x[t]+2x[t+1]+3x[t+2]
        expected = [0 + 2 * 1 + 3 * 2, 1 + 4 + 9, 2 + 6 + 12, 3 + 8 + 15]
        assert np.allclose(out, expected)

    def test_bias_added_per_channel(self):
        conv = Conv1d(1, 2, kernel_size=1, bias=True, rng=np.random.default_rng(0))
        conv.params["weight"][...] = 0.0
        conv.params["bias"][...] = np.array([1.5, -2.0])
        out = conv.forward(np.zeros((1, 1, 4)))
        assert np.allclose(out[0, 0], 1.5)
        assert np.allclose(out[0, 1], -2.0)

    def test_dilation_skips_samples(self):
        conv = Conv1d(1, 1, kernel_size=2, dilation=3, padding=0, bias=False,
                      rng=np.random.default_rng(0))
        conv.params["weight"][...] = np.array([[[1.0, 1.0]]])
        x = np.arange(8, dtype=float).reshape(1, 1, 8)
        out = conv.forward(x)[0, 0]
        assert np.allclose(out, [0 + 3, 1 + 4, 2 + 5, 3 + 6, 4 + 7])


class TestConv1dGradients:
    @pytest.mark.parametrize("stride,dilation", [(1, 1), (2, 1), (1, 3), (2, 2)])
    def test_weight_and_input_gradients(self, stride, dilation):
        rng = np.random.default_rng(0)
        conv = Conv1d(2, 3, kernel_size=3, stride=stride, dilation=dilation, rng=rng)
        x = rng.normal(size=(2, 2, 20))
        target = rng.normal(size=conv.forward(x).shape)

        def loss():
            return 0.5 * np.sum((conv.forward(x, training=True) - target) ** 2)

        conv.zero_grad()
        out = conv.forward(x, training=True)
        grad_input = conv.backward(out - target)

        # Weight gradient check (a few entries).
        for index in [(0, 0, 0), (2, 1, 2), (1, 0, 1)]:
            numeric = numerical_gradient(loss, conv.params["weight"], index)
            assert conv.grads["weight"][index] == pytest.approx(numeric, rel=1e-4, abs=1e-6)
        # Bias gradient check.
        numeric = numerical_gradient(loss, conv.params["bias"], (1,))
        assert conv.grads["bias"][1] == pytest.approx(numeric, rel=1e-4, abs=1e-6)
        # Input gradient check.
        for index in [(0, 0, 0), (1, 1, 10), (0, 1, 19)]:
            numeric = numerical_gradient(loss, x, index)
            assert grad_input[index] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_backward_without_forward_raises(self):
        conv = Conv1d(1, 1, 3)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 1, 4)))


class TestDense:
    def test_known_values(self):
        dense = Dense(2, 1, rng=np.random.default_rng(0))
        dense.params["weight"][...] = np.array([[2.0, -1.0]])
        dense.params["bias"][...] = np.array([0.5])
        out = dense.forward(np.array([[1.0, 3.0]]))
        assert out[0, 0] == pytest.approx(2.0 - 3.0 + 0.5)

    def test_gradients(self):
        rng = np.random.default_rng(1)
        dense = Dense(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss():
            return 0.5 * np.sum((dense.forward(x, training=True) - target) ** 2)

        dense.zero_grad()
        out = dense.forward(x, training=True)
        grad_input = dense.backward(out - target)
        for index in [(0, 0), (2, 3)]:
            numeric = numerical_gradient(loss, dense.params["weight"], index)
            assert dense.grads["weight"][index] == pytest.approx(numeric, rel=1e-5, abs=1e-7)
        numeric = numerical_gradient(loss, x, (1, 2))
        assert grad_input[1, 2] == pytest.approx(numeric, rel=1e-5, abs=1e-7)

    def test_shape_validation(self):
        dense = Dense(3, 2)
        with pytest.raises(ValueError):
            dense.forward(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            dense.output_shape((4,))


class TestReLU:
    def test_forward_and_backward(self):
        relu = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        out = relu.forward(x, training=True)
        assert np.allclose(out, [[0.0, 0.0, 2.0]])
        grad = relu.backward(np.ones_like(x))
        assert np.allclose(grad, [[0.0, 0.0, 1.0]])


class TestBatchNorm1d:
    def test_normalizes_in_training_mode(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm1d(3)
        x = rng.normal(5.0, 2.0, size=(8, 3, 50))
        out = bn.forward(x, training=True)
        assert np.allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=(0, 2)), 1.0, atol=1e-3)

    def test_running_stats_used_at_inference(self):
        rng = np.random.default_rng(1)
        bn = BatchNorm1d(2, momentum=0.5)
        x = rng.normal(3.0, 1.0, size=(16, 2, 20))
        for _ in range(20):
            bn.forward(x, training=True)
        out = bn.forward(x, training=False)
        # After many updates the running stats approach the batch stats, so
        # inference output should be roughly normalized too.
        assert abs(out.mean()) < 0.2

    def test_gradients(self):
        rng = np.random.default_rng(2)
        bn = BatchNorm1d(2)
        x = rng.normal(size=(4, 2, 6))
        target = rng.normal(size=(4, 2, 6))

        def loss():
            return 0.5 * np.sum((bn.forward(x, training=True) - target) ** 2)

        bn.zero_grad()
        out = bn.forward(x, training=True)
        grad_input = bn.backward(out - target)
        numeric = numerical_gradient(loss, bn.params["gamma"], (1,))
        assert bn.grads["gamma"][1] == pytest.approx(numeric, rel=1e-4, abs=1e-6)
        numeric = numerical_gradient(loss, bn.params["beta"], (0,))
        assert bn.grads["beta"][0] == pytest.approx(numeric, rel=1e-4, abs=1e-6)
        numeric = numerical_gradient(loss, x, (0, 1, 3))
        assert grad_input[0, 1, 3] == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BatchNorm1d(0)
        with pytest.raises(ValueError):
            BatchNorm1d(3, momentum=0.0)


class TestPooling:
    def test_avg_pool_values(self):
        pool = AvgPool1d(2)
        x = np.arange(8, dtype=float).reshape(1, 1, 8)
        out = pool.forward(x)
        assert np.allclose(out[0, 0], [0.5, 2.5, 4.5, 6.5])

    def test_avg_pool_gradient_spreads_evenly(self):
        pool = AvgPool1d(2)
        x = np.arange(8, dtype=float).reshape(1, 1, 8)
        pool.forward(x, training=True)
        grad = pool.backward(np.ones((1, 1, 4)))
        assert np.allclose(grad, 0.5)

    def test_avg_pool_truncates_remainder(self):
        pool = AvgPool1d(3)
        x = np.zeros((1, 2, 10))
        assert pool.forward(x).shape == (1, 2, 3)

    def test_global_pool(self):
        pool = GlobalAvgPool1d()
        x = np.arange(12, dtype=float).reshape(1, 2, 6)
        out = pool.forward(x, training=True)
        assert out.shape == (1, 2)
        assert out[0, 0] == pytest.approx(np.mean(np.arange(6)))
        grad = pool.backward(np.ones((1, 2)))
        assert np.allclose(grad, 1.0 / 6.0)

    def test_pool_too_long_rejected(self):
        with pytest.raises(ValueError):
            AvgPool1d(16).forward(np.zeros((1, 1, 8)))


class TestFlattenDropout:
    def test_flatten_roundtrip(self):
        flat = Flatten()
        x = np.random.default_rng(0).normal(size=(3, 4, 5))
        out = flat.forward(x, training=True)
        assert out.shape == (3, 20)
        back = flat.backward(out)
        assert back.shape == x.shape
        assert np.allclose(back, x)

    def test_dropout_identity_at_inference(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((4, 10))
        assert np.allclose(drop.forward(x, training=False), x)

    def test_dropout_scales_kept_units(self):
        drop = Dropout(0.5, rng=np.random.default_rng(1))
        x = np.ones((1, 10000))
        out = drop.forward(x, training=True)
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestConvInferenceLowering:
    """The eval-mode GEMM lowering must match the training-mode im2col."""

    @pytest.mark.parametrize(
        "stride,dilation,padding",
        [(1, 1, "same"), (2, 1, "same"), (1, 4, "same"), (2, 2, 1), (3, 2, 0)],
    )
    def test_matches_training_forward(self, stride, dilation, padding):
        rng = np.random.default_rng(stride * 10 + dilation)
        conv = Conv1d(3, 5, 3, stride=stride, dilation=dilation, padding=padding, rng=rng)
        x = rng.normal(size=(4, 3, 40))
        np.testing.assert_allclose(
            conv.forward(x, training=False),
            conv.forward(x, training=True),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_without_bias(self):
        rng = np.random.default_rng(0)
        conv = Conv1d(2, 3, 5, bias=False, rng=rng)
        x = rng.normal(size=(2, 2, 32))
        np.testing.assert_allclose(
            conv.forward(x, training=False), conv.forward(x, training=True)
        )

    def test_inference_keeps_no_scratch_buffers(self):
        """An inference forward leaves nothing batch-sized on the layer."""
        rng = np.random.default_rng(1)
        conv = Conv1d(2, 2, 3, rng=rng)
        before = set(vars(conv))
        conv.forward(rng.normal(size=(64, 2, 16)), training=False)
        assert set(vars(conv)) == before
        assert conv._cache == {}

    def test_inference_outputs_are_independent_arrays(self):
        rng = np.random.default_rng(2)
        conv = Conv1d(1, 1, 3, rng=rng)
        x = rng.normal(size=(1, 1, 10))
        first = conv.forward(x, training=False)
        again = conv.forward(x + 1.0, training=False)
        assert not np.shares_memory(first, again)

    def test_inference_drops_training_cache(self):
        rng = np.random.default_rng(3)
        conv = Conv1d(1, 2, 3, rng=rng)
        x = rng.normal(size=(2, 1, 12))
        conv.forward(x, training=True)
        assert conv._cache
        conv.forward(x, training=False)
        assert not conv._cache
        with pytest.raises(RuntimeError):
            conv.backward(np.ones((2, 2, 12)))


class TestZeroRowBatches:
    """Every layer must pass a (0, ...) batch through with correct shapes."""

    def test_conv_eval_and_train(self):
        conv = Conv1d(2, 3, 3, rng=np.random.default_rng(0))
        for training in (False, True):
            out = conv.forward(np.zeros((0, 2, 16)), training=training)
            assert out.shape == (0, 3, 16)

    def test_full_stack(self):
        layers = [
            Conv1d(2, 3, 3, rng=np.random.default_rng(0)),
            BatchNorm1d(3),
            ReLU(),
            AvgPool1d(2),
            Flatten(),
            Dense(3 * 8, 1, rng=np.random.default_rng(1)),
        ]
        x = np.zeros((0, 2, 16))
        for layer in layers:
            x = layer.forward(x, training=False)
        assert x.shape == (0, 1)
