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
from repro.nn.layers import TILE_WINDOWS, Conv1d, Dense
from repro.nn.network import fold_batchnorm
from repro.nn.quantization import quantize_network

from tests.nn.conv_oracle import TINY_TIMEPPG_CONFIG

#: Around the tile boundaries (15, 16, 17, 33) and well past them.
BATCH_SIZES = (1, 2, 3, 15, 16, 17, 33, 64, 150)
N_WINDOWS = max(BATCH_SIZES)
CONFIGS = {"small": TIMEPPG_SMALL_CONFIG, "big": TIMEPPG_BIG_CONFIG, "tiny": TINY_TIMEPPG_CONFIG}


@pytest.fixture(scope="module")
def windows() -> np.ndarray:
    """TimePPG-shaped inputs: (windows, 4 channels, 256 samples)."""
    return np.random.default_rng(11).standard_normal((N_WINDOWS, 4, 256))


def inputs(variant: str, windows: np.ndarray) -> np.ndarray:
    """The module's windows, cut to ``variant``'s input length."""
    return np.ascontiguousarray(windows[:, :, : CONFIGS[variant].input_length])


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


def assert_position_free(forward, x: np.ndarray, seed: int) -> None:
    """One window has the same bits at every position of a tile.

    The window sits at position ``p`` (0-15) among random companions,
    in a full tile and in the partial tile that ends at it.
    """
    rng = np.random.default_rng(seed)
    alone = forward(x[:1])
    for position in range(TILE_WINDOWS):
        batch = rng.standard_normal((TILE_WINDOWS,) + x.shape[1:]).astype(x.dtype)
        batch[position] = x[0]
        for n in (TILE_WINDOWS, position + 1):
            np.testing.assert_array_equal(
                forward(batch[:n])[position : position + 1],
                alone,
                err_msg=f"position {position} of a {n}-window batch",
            )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("variant", sorted(CONFIGS))
def test_frozen_timeppg_forward_is_row_stable(windows, variant, dtype):
    frozen = fold_batchnorm(build_timeppg_network(CONFIGS[variant], seed=1), dtype=dtype)
    assert_row_stable(
        lambda batch: frozen.forward(batch, training=False), inputs(variant, windows).astype(dtype)
    )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("variant", sorted(CONFIGS))
def test_frozen_timeppg_forward_is_free_of_tile_position(windows, variant, dtype):
    frozen = fold_batchnorm(build_timeppg_network(CONFIGS[variant], seed=1), dtype=dtype)
    assert_position_free(
        lambda batch: frozen.forward(batch, training=False),
        inputs(variant, windows).astype(dtype),
        seed=len(variant),
    )


@pytest.mark.parametrize("variant", sorted(CONFIGS))
def test_unfrozen_eval_forward_is_row_stable(windows, variant):
    network = build_timeppg_network(CONFIGS[variant], seed=2)
    assert_row_stable(
        lambda batch: network.forward(batch, training=False), inputs(variant, windows)
    )


def _quantized(variant: str, windows: np.ndarray):
    network = build_timeppg_network(CONFIGS[variant], seed=3)
    return quantize_network(network, inputs(variant, windows)[:32], fold_bn=True)


@pytest.mark.parametrize("variant", sorted(CONFIGS))
def test_quantized_forward_is_row_stable(windows, variant):
    assert_row_stable(_quantized(variant, windows).forward, inputs(variant, windows))


def test_integer_forward_is_row_stable(windows):
    assert_row_stable(_quantized("small", windows).forward_integer, inputs("small", windows))


def test_tiny_integer_forward_is_row_stable(windows):
    assert_row_stable(_quantized("tiny", windows).forward_integer, inputs("tiny", windows))


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
