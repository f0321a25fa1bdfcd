"""Bitwise pins of the copy-light conv padding and average pooling.

``Conv1d._pad`` writes the input into an uninitialized buffer with
zeroed edges, and ``AvgPool1d.forward`` sums strided tap slices; both
must keep the exact bits of the forms they replaced — ``np.pad`` with
zeros, and a reshape followed by ``mean`` over the pool axis — signed
zeros included: numpy's mean sums from +0.0, so a pool of -0.0 values
averages to +0.0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import AvgPool1d, Conv1d


def pad_oracle(x: np.ndarray, pad_left: int, pad_right: int) -> np.ndarray:
    return np.pad(x, ((0, 0), (0, 0), (pad_left, pad_right)))


def pool_oracle(x: np.ndarray, pool_size: int) -> np.ndarray:
    batch, channels, length = x.shape
    l_out = length // pool_size
    trimmed = x[:, :, : l_out * pool_size]
    return trimmed.reshape(batch, channels, l_out, pool_size).mean(axis=3)


def signed_zero_input(shape, dtype, seed: int) -> np.ndarray:
    """Noise with a third of its entries set to -0.0."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(dtype)
    x[rng.random(shape) < 1 / 3] = -0.0
    return x


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32])
@pytest.mark.parametrize("padding", ["same", 0, 1, 3])
@pytest.mark.parametrize("kernel_size, stride, dilation", [(1, 1, 1), (3, 1, 2), (4, 2, 1), (5, 3, 3)])
@pytest.mark.parametrize("length", [7, 16, 33])
def test_pad_matches_np_pad(dtype, padding, kernel_size, stride, dilation, length):
    conv = Conv1d(2, 3, kernel_size, stride=stride, dilation=dilation, padding=padding)
    x = signed_zero_input((3, 2, length), np.float64, seed=length).astype(dtype)
    pad_left, pad_right = conv._padding_amount(length)
    if conv.output_length(length) <= 0:
        with pytest.raises(ValueError):
            conv._pad(x)
        return
    padded, got_left, l_out = conv._pad(x)
    want = pad_oracle(x, pad_left, pad_right)
    assert (got_left, l_out) == (pad_left, conv.output_length(length))
    assert padded.dtype == want.dtype and padded.shape == want.shape
    assert padded.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("pool_size", [1, 2, 3, 4])
@pytest.mark.parametrize("length", [4, 5, 7, 9, 16, 17])
def test_pool_matches_reshape_mean(dtype, pool_size, length):
    x = signed_zero_input((4, 3, length), dtype, seed=10 * pool_size + length)
    got = AvgPool1d(pool_size).forward(x)
    want = pool_oracle(x, pool_size)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("pool_size", [1, 2, 3, 4])
def test_pool_of_negative_zeros_is_positive_zero(dtype, pool_size):
    x = np.full((1, 2, 2 * pool_size + 1), -0.0, dtype=dtype)
    got = AvgPool1d(pool_size).forward(x)
    want = pool_oracle(x, pool_size)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got).any()
