"""Per-window conv lowering: the oracle of the fixed-tile inference GEMM.

:meth:`repro.nn.layers.Conv1d.lowered_matmul` runs one fixed-shape GEMM
per tile of ``TILE_WINDOWS`` windows.  The lowering it replaced ran one
GEMM per window: ``np.pad`` the input, expose every (dilated) kernel
tap of every (strided) output position through a sliding-window view,
gather the taps into ``(batch, in_ch * kernel, l_out)`` columns and
``matmul`` the flattened kernel against that stack.  It is kept here,
unchanged, as the reference the tile lowering is pinned against;
:func:`per_window_lowering` swaps it into every ``Conv1d`` so whole
networks (float forwards and the int8 engine) can run on it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.models.timeppg import TimePPGConfig
from repro.nn.layers import Conv1d

#: A real TimePPG TCN on 16-sample windows.  Small shapes are where BLAS
#: switches kernels with the GEMM's N (a 24-column GEMM is its
#: small-matrix path), so a lowering whose GEMM shape follows the batch
#: fails row-stability here while the real variants agree at any N.  The
#: hidden dense layer is wide enough for BLAS's gemv and gemm kernels to
#: round differently.
TINY_TIMEPPG_CONFIG = TimePPGConfig(
    name="TimePPG-Big",
    input_length=16,
    block_channels=(4, 8, 32),
    kernel_size=3,
    head_pool=1,
    head_hidden=8,
)


def per_window_im2col(conv: Conv1d, x: np.ndarray) -> np.ndarray:
    """``(batch, in_ch * kernel, l_out)`` columns, one block per window."""
    pad_left, pad_right = conv._padding_amount(x.shape[-1])
    l_out = conv.output_length(x.shape[-1])
    padded = np.pad(x, ((0, 0), (0, 0), (pad_left, pad_right)))
    view = np.lib.stride_tricks.sliding_window_view(padded, conv.effective_kernel, axis=2)
    view = view[:, :, : (l_out - 1) * conv.stride + 1 : conv.stride, :: conv.dilation]
    return np.ascontiguousarray(view.transpose(0, 1, 3, 2)).reshape(
        x.shape[0], conv.in_channels * conv.kernel_size, l_out
    )


def per_window_lowered_matmul(conv: Conv1d, weight: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``weight @ columns`` with one GEMM per window."""
    return np.matmul(weight, per_window_im2col(conv, x))


@contextmanager
def per_window_lowering():
    """Run every ``Conv1d`` inference GEMM through the per-window oracle."""
    tiled = Conv1d.lowered_matmul
    Conv1d.lowered_matmul = per_window_lowered_matmul
    try:
        yield
    finally:
        Conv1d.lowered_matmul = tiled
