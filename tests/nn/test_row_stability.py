"""Row-bit-stability of every inference forward of the nn stack.

The fleet engine fuses different subjects' windows into one TimePPG
forward and promises results bit-identical to per-subject replay.  That
holds only if a window's raw network output does not depend on the batch
it is computed in: ``forward(x)[i]`` must equal ``forward(x[i:i+1])``
bit for bit, whatever the batch size and the window's position.  The
checks compare raw pre-clip outputs (``predict`` clips to [30, 220] BPM,
which could hide a drift).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.timeppg import (
    TIMEPPG_BIG_CONFIG,
    TIMEPPG_SMALL_CONFIG,
    build_timeppg_network,
)
from repro.nn.layers import Conv1d, Dense
from repro.nn.network import fold_batchnorm
from repro.nn.quantization import quantize_network

BATCH_SIZES = (1, 2, 3, 17, 64, 150)
N_WINDOWS = max(BATCH_SIZES)
CONFIGS = {"small": TIMEPPG_SMALL_CONFIG, "big": TIMEPPG_BIG_CONFIG}


@pytest.fixture(scope="module")
def windows() -> np.ndarray:
    """TimePPG-shaped inputs: (windows, 4 channels, 256 samples)."""
    return np.random.default_rng(11).standard_normal((N_WINDOWS, 4, 256))


def assert_row_stable(forward, x: np.ndarray) -> None:
    """Every batch's rows equal the same windows forwarded one at a time.

    Batch ``n`` covers the last ``n`` windows, so the last window sits at
    a different position in every batch.
    """
    singles = np.concatenate([forward(x[i : i + 1]) for i in range(len(x))])
    for n in BATCH_SIZES:
        batched = forward(x[len(x) - n :])
        assert batched.dtype == singles.dtype
        np.testing.assert_array_equal(
            batched, singles[len(x) - n :], err_msg=f"batch size {n}"
        )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("variant", sorted(CONFIGS))
def test_frozen_timeppg_forward_is_row_stable(windows, variant, dtype):
    frozen = fold_batchnorm(build_timeppg_network(CONFIGS[variant], seed=1), dtype=dtype)
    assert_row_stable(
        lambda batch: frozen.forward(batch, training=False), windows.astype(dtype)
    )


@pytest.mark.parametrize("variant", sorted(CONFIGS))
def test_unfrozen_eval_forward_is_row_stable(windows, variant):
    network = build_timeppg_network(CONFIGS[variant], seed=2)
    assert_row_stable(lambda batch: network.forward(batch, training=False), windows)


def _quantized(variant: str, windows: np.ndarray):
    network = build_timeppg_network(CONFIGS[variant], seed=3)
    return quantize_network(network, windows[:32], fold_bn=True)


@pytest.mark.parametrize("variant", sorted(CONFIGS))
def test_quantized_forward_is_row_stable(windows, variant):
    assert_row_stable(_quantized(variant, windows).forward, windows)


def test_integer_forward_is_row_stable(windows):
    assert_row_stable(_quantized("small", windows).forward_integer, windows)


class TestLayers:
    """The two BLAS-backed layers, at shapes where gemv and gemm differ."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_dense(self, dtype):
        rng = np.random.default_rng(4)
        layer = Dense(512, 8, rng=rng, dtype=dtype)
        x = rng.standard_normal((N_WINDOWS, 512)).astype(dtype)
        assert_row_stable(layer.forward, x)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_conv(self, dtype):
        rng = np.random.default_rng(5)
        layer = Conv1d(8, 16, 5, dilation=2, rng=rng, dtype=dtype)
        x = rng.standard_normal((N_WINDOWS, 8, 64)).astype(dtype)
        assert_row_stable(layer.forward, x)
