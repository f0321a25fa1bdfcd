"""The fixed-tile conv lowering against its per-window oracle.

``Conv1d`` lowers every inference forward to one GEMM per tile of
``TILE_WINDOWS`` windows (:mod:`repro.nn.layers`); the per-window
lowering it replaced lives in :mod:`tests.nn.conv_oracle`.  These pins
check the tile columns bit for bit, whole networks against the oracle
(within the float64 equivalence tolerance, and bitwise for the int8
engine's exact integer accumulation), and the exact number of tiles —
GEMM calls — each convolution runs for a batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.runtime import EQUIVALENCE_TOLERANCES
from repro.models.timeppg import (
    TIMEPPG_BIG_CONFIG,
    TIMEPPG_SMALL_CONFIG,
    TimePPGPredictor,
    build_timeppg_network,
)
from repro.nn.layers import TILE_WINDOWS, Conv1d
from repro.nn.network import fold_batchnorm
from repro.nn.quantization import quantize_network

from tests.nn.conv_oracle import TINY_TIMEPPG_CONFIG, per_window_im2col, per_window_lowering

CONFIGS = {"small": TIMEPPG_SMALL_CONFIG, "big": TIMEPPG_BIG_CONFIG, "tiny": TINY_TIMEPPG_CONFIG}


def windows_for(variant: str, n: int, seed: int = 0) -> np.ndarray:
    config = CONFIGS[variant]
    return np.random.default_rng(seed).standard_normal(
        (n, config.input_channels, config.input_length)
    )


def tiles_as_windows(cols: np.ndarray) -> np.ndarray:
    """``(tiles, C*k, TILE_WINDOWS*l_out)`` columns as ``(tiles*TILE_WINDOWS, C*k, l_out)``."""
    n_tiles, rows, width = cols.shape
    l_out = width // TILE_WINDOWS
    per_tile = cols.reshape(n_tiles, rows, TILE_WINDOWS, l_out)
    return per_tile.transpose(0, 2, 1, 3).reshape(n_tiles * TILE_WINDOWS, rows, l_out)


class TestIm2col:
    """Tile columns hold the oracle's per-window columns, then zeros."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32])
    @pytest.mark.parametrize("padding", ["same", 0, 1, 3])
    @pytest.mark.parametrize(
        "kernel_size, stride, dilation", [(1, 1, 1), (3, 1, 2), (4, 2, 1), (5, 3, 3)]
    )
    @pytest.mark.parametrize("length", [7, 16, 33])
    def test_matches_per_window_columns(self, dtype, padding, kernel_size, stride, dilation, length):
        conv = Conv1d(2, 3, kernel_size, stride=stride, dilation=dilation, padding=padding)
        x = (np.random.default_rng(length).standard_normal((40, 2, length)) * 50).astype(dtype)
        if conv.output_length(length) <= 0:
            with pytest.raises(ValueError):
                conv.im2col(x)
            return
        for batch in (0, 1, 15, 16, 17, 33, 40):
            cols = conv.im2col(x[:batch])
            want = per_window_im2col(conv, x[:batch])
            n_tiles = -(-batch // TILE_WINDOWS)
            assert cols.dtype == x.dtype
            assert cols.shape == (n_tiles, want.shape[1], TILE_WINDOWS * want.shape[2])
            got = tiles_as_windows(cols)
            assert got[:batch].tobytes() == want.tobytes(), f"batch {batch}"
            assert not got[batch:].any(), f"batch {batch}: absent windows not zero"

    @pytest.mark.parametrize("batch", [1, 9, 16, 33])
    def test_reads_any_input_strides(self, batch):
        """A channel-major view (what a single tile hands on) gives the same columns."""
        conv = Conv1d(3, 2, 3, dilation=2)
        x = np.random.default_rng(batch).standard_normal((batch, 3, 20))
        channel_major = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert not channel_major.flags.c_contiguous or batch == 1
        assert conv.im2col(channel_major).tobytes() == conv.im2col(x).tobytes()


@pytest.mark.parametrize("variant", sorted(CONFIGS))
def test_float_forward_matches_per_window_oracle(variant):
    atol, rtol = EQUIVALENCE_TOLERANCES["float64"]
    network = fold_batchnorm(build_timeppg_network(CONFIGS[variant], seed=4))
    x = windows_for(variant, 40, seed=1)
    for batch in (1, 15, 16, 17, 40):
        got = network.forward(x[:batch], training=False)
        with per_window_lowering():
            want = network.forward(x[:batch], training=False)
        np.testing.assert_allclose(got, want, atol=atol, rtol=rtol, err_msg=f"batch {batch}")


@pytest.mark.parametrize("variant", sorted(CONFIGS))
def test_integer_codes_match_per_window_oracle(variant):
    x = windows_for(variant, 40, seed=2)
    quantized = quantize_network(build_timeppg_network(CONFIGS[variant], seed=5), x[:32], fold_bn=True)
    for batch in (1, 15, 17, 40):
        got = quantized.forward_integer(x[:batch], return_codes=True)
        with per_window_lowering():
            want = quantized.forward_integer(x[:batch], return_codes=True)
        assert got.dtype == want.dtype == np.int8
        np.testing.assert_array_equal(got, want, err_msg=f"batch {batch}")


class TestTileCounts:
    """Exact work: ceil(n / TILE_WINDOWS) GEMMs of one fixed width per conv."""

    @pytest.fixture
    def im2col_calls(self, monkeypatch):
        calls: list[tuple[Conv1d, int, tuple[int, ...]]] = []
        tiled = Conv1d.im2col

        def spy(conv, x):
            cols = tiled(conv, x)
            calls.append((conv, x.shape[-1], cols.shape))
            return cols

        monkeypatch.setattr(Conv1d, "im2col", spy)
        return calls

    @staticmethod
    def assert_tiles(calls, convs: list[Conv1d], n: int) -> None:
        for conv in convs:
            shapes = [(length, shape) for c, length, shape in calls if c is conv]
            assert sum(shape[0] for _, shape in shapes) == -(-n // TILE_WINDOWS)
            for length, shape in shapes:
                assert shape[1:] == (
                    conv.in_channels * conv.kernel_size,
                    TILE_WINDOWS * conv.output_length(length),
                )

    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 150])
    def test_network_forward(self, im2col_calls, n):
        network = fold_batchnorm(build_timeppg_network(TINY_TIMEPPG_CONFIG, seed=6))
        network.forward(windows_for("tiny", n), training=False)
        convs = [layer for layer in network.layers if isinstance(layer, Conv1d)]
        assert len(convs) == 9
        self.assert_tiles(im2col_calls, convs, n)

    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 150])
    def test_predict(self, im2col_calls, n):
        predictor = TimePPGPredictor(TIMEPPG_SMALL_CONFIG, seed=7).freeze()
        x = windows_for("small", n)
        predictor.predict(x[:, 0], x[:, 1:].transpose(0, 2, 1))
        convs = [layer for layer in predictor._frozen.layers if isinstance(layer, Conv1d)]
        self.assert_tiles(im2col_calls, convs, n)
        # One forward per tile: every call is a single tile.
        assert all(shape[0] == 1 for _, _, shape in im2col_calls)
