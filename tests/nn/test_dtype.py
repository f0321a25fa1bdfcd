"""Dtype threading through the NN stack.

Pins the float32 engine's nn-layer contract: parameterized layers carry
a first-class ``dtype`` (weights, buffers, outputs), ``fold_batchnorm``
folds in the source precision and casts once, and a frozen float32
TimePPG runs its whole forward in float32.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dtypes import DEFAULT_FLOAT_DTYPE, as_floating, resolve_dtype
from repro.models.timeppg import TimePPGConfig, TimePPGPredictor
from repro.nn.layers import AvgPool1d, BatchNorm1d, Conv1d, Dense, Flatten, ReLU
from repro.nn.network import Sequential, fold_batchnorm

TINY = TimePPGConfig(
    name="TimePPG-Big",
    input_length=32,
    block_channels=(2, 2),
    kernel_size=3,
    head_pool=2,
    head_hidden=0,
)


class TestResolveDtype:
    def test_defaults_to_float64(self):
        assert resolve_dtype(None) == np.dtype("float64")
        assert DEFAULT_FLOAT_DTYPE == np.dtype("float64")

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            resolve_dtype("float16")
        with pytest.raises(ValueError):
            resolve_dtype(np.int32)

    def test_as_floating_preserves_float_and_promotes_int(self):
        assert as_floating(np.zeros(3, dtype=np.float32)).dtype == np.float32
        assert as_floating(np.zeros(3, dtype=np.int64)).dtype == np.float64


class TestLayerDtype:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_conv_dense_allocate_and_compute_in_dtype(self, dtype):
        conv = Conv1d(1, 3, 3, rng=np.random.default_rng(0), dtype=dtype)
        dense = Dense(6, 2, rng=np.random.default_rng(1), dtype=dtype)
        assert conv.params["weight"].dtype == dtype
        assert conv.params["bias"].dtype == dtype
        assert dense.params["weight"].dtype == dtype
        x = np.random.default_rng(2).standard_normal((4, 1, 8))
        out = conv.forward(x)  # float64 input coerced to the layer dtype
        assert out.dtype == np.dtype(dtype)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_batchnorm_buffers_in_dtype(self, dtype):
        bn = BatchNorm1d(3, dtype=dtype)
        assert bn.running_mean.dtype == dtype
        assert bn.running_var.dtype == dtype
        out = bn.forward(np.zeros((2, 3, 8)), training=False)
        assert out.dtype == np.dtype(dtype)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_batchnorm_backward_in_dtype(self, dtype):
        bn = BatchNorm1d(3, dtype=dtype)
        x = np.random.default_rng(0).standard_normal((2, 3, 8))
        out = bn.forward(x, training=True)
        grad = bn.backward(np.ones_like(out, dtype=np.float64))  # float64 coerced
        assert out.dtype == grad.dtype == np.dtype(dtype)
        assert bn.grads["gamma"].dtype == bn.grads["beta"].dtype == np.dtype(dtype)

    def test_stateless_layers_preserve_floating_dtype(self):
        x32 = np.random.default_rng(0).standard_normal((2, 3, 8)).astype(np.float32)
        assert ReLU().forward(x32).dtype == np.float32
        assert AvgPool1d(2).forward(x32).dtype == np.float32
        assert Flatten().forward(x32).dtype == np.float32

    def test_to_dtype_casts_params_and_is_chainable(self):
        net = Sequential([
            Conv1d(1, 2, 3, rng=np.random.default_rng(0)),
            ReLU(),
            Flatten(),
            Dense(2 * 16, 1, rng=np.random.default_rng(1)),
        ])
        assert net.dtype == np.dtype("float64")
        assert net.to_dtype("float32") is net
        assert net.dtype == np.dtype("float32")
        for layer in (net.layers[0], net.layers[3]):
            for value in layer.params.values():
                assert value.dtype == np.float32


class TestFoldDtype:
    def _bn_net(self):
        rng = np.random.default_rng(3)
        net = Sequential([
            Conv1d(1, 4, 3, rng=rng),
            BatchNorm1d(4),
            ReLU(),
            Flatten(),
            Dense(4 * 16, 1, rng=rng),
        ])
        net.forward(rng.standard_normal((16, 1, 16)), training=True)
        return net

    def test_fold_in_source_precision_cast_once(self):
        """float64 fold then cast == the documented folding semantics.

        Folding at float32 must NOT run the fold arithmetic in float32;
        it folds at the source (float64) precision and rounds the folded
        weights once, so each folded parameter is the correctly rounded
        float32 image of the float64 fold.
        """
        net = self._bn_net()
        folded64 = fold_batchnorm(net)
        folded32 = fold_batchnorm(net, dtype="float32")
        assert folded32.dtype == np.dtype("float32")
        for l64, l32 in zip(folded64.layers, folded32.layers):
            for key in l64.params:
                np.testing.assert_array_equal(
                    l64.params[key].astype(np.float32), l32.params[key]
                )

    def test_frozen_float32_timeppg_runs_pure_float32(self):
        predictor = TimePPGPredictor(TINY, seed=7).freeze(dtype="float32")
        ppg = np.random.default_rng(5).standard_normal((6, 32))
        accel = np.random.default_rng(6).standard_normal((6, 32, 3))
        batch = predictor.prepare_input(ppg, accel)
        assert batch.dtype == np.float32
        predictions = predictor.predict(ppg, accel)
        assert predictions.dtype == np.float32
        assert np.all((predictions >= 30.0) & (predictions <= 220.0))

    def test_float32_predictions_match_float64_within_tolerance(self):
        p64 = TimePPGPredictor(TINY, seed=7).freeze()
        p32 = TimePPGPredictor(TINY, seed=7).freeze(dtype="float32")
        ppg = np.random.default_rng(8).standard_normal((8, 32))
        accel = np.random.default_rng(9).standard_normal((8, 32, 3))
        out64 = p64.predict(ppg, accel)
        out32 = p32.predict(ppg, accel)
        np.testing.assert_allclose(out32.astype(np.float64), out64, atol=1e-3, rtol=1e-5)

    def test_set_inference_dtype_refreezes(self):
        predictor = TimePPGPredictor(TINY, seed=7).freeze()
        predictor.set_inference_dtype("float32")
        ppg = np.random.default_rng(10).standard_normal((4, 32))
        accel = np.random.default_rng(11).standard_normal((4, 32, 3))
        assert predictor.predict(ppg, accel).dtype == np.float32
        predictor.set_inference_dtype("float64")
        assert predictor.predict(ppg, accel).dtype == np.float64
