"""Neural-network layers with explicit forward/backward passes.

Every layer follows the same protocol:

* ``forward(x, training)`` computes the output and caches whatever is
  needed for the backward pass;
* ``backward(grad_output)`` returns the gradient with respect to the
  layer input and accumulates parameter gradients in ``grads``;
* ``params`` / ``grads`` are dictionaries keyed by parameter name, which
  is what the optimizers consume.

The data layout is ``(batch, channels, length)`` for convolutional layers
and ``(batch, features)`` for dense layers.

Inference mode
--------------
``forward(x, training=False)`` is a true inference mode, not merely a
flag: layers skip (and drop) their backward caches, :class:`Dropout`
allocates no mask, and :class:`Conv1d` lowers the (dilated, strided)
convolution to one GEMM per tile of :data:`TILE_WINDOWS` windows — an
im2col (:meth:`Conv1d.im2col`) built by one strided slab copy per
kernel tap into fresh tile columns, then one stacked ``matmul`` against
the flattened kernel.  A single tile's output is handed on as a view
over its channel-major GEMM result, and elementwise layers keep that
layout, so the next convolution's tap slabs read contiguous rows and no
layer pays a transpose.  Layers keep no scratch buffers between calls.
For frozen networks, :func:`repro.nn.network.fold_batchnorm`
additionally folds every ``Conv → BatchNorm`` pair into the convolution
weights.

Inference forwards are **row-bit-stable**: a window's output bits do
not depend on the batch it is computed in (its size, or the window's
position).  Every convolution GEMM has the fixed tile shape ``(out_ch,
in_ch * kernel) @ (in_ch * kernel, TILE_WINDOWS * l_out)`` — the windows
a partial tile lacks are zero-filled columns — so BLAS takes one path
whatever the batch, and a window's bits depend only on its own column
block.  (A GEMM whose N follows the batch is not stable: OpenBLAS
switches kernels for small N and gives a window different bits once two
or three windows share it.)  :class:`Dense` runs the same vector-matrix
product for every row; everything else is elementwise or reduces within
a row.  This is what lets the fleet engine fuse different subjects'
windows into one forward and still reproduce per-subject replay bit for
bit.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes import as_floating, resolve_dtype

#: Windows per inference GEMM: :class:`Conv1d` lowers every eval forward
#: to one ``(out_ch, in_ch * kernel) @ (in_ch * kernel, TILE_WINDOWS *
#: l_out)`` GEMM per tile of this many windows, zero-filling the windows
#: a partial tile lacks.
TILE_WINDOWS = 16


class Layer:
    """Base class for all layers.

    Every layer carries a ``dtype`` — the floating dtype its parameters
    (if any) are stored in and its forward pass computes in.
    Parameterized layers (:class:`Conv1d`, :class:`Dense`,
    :class:`BatchNorm1d`) accept it as a constructor argument and coerce
    their inputs to it; stateless layers inherit the floating dtype of
    whatever flows through them.  :meth:`to_dtype` converts a built
    layer in place (used by :func:`repro.nn.network.fold_batchnorm` to
    produce e.g. a pure-float32 frozen network).
    """

    def __init__(self, dtype=None) -> None:
        self.dtype = resolve_dtype(dtype)
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ API
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output (and cache for backward)."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and return the input gradient."""
        raise NotImplementedError

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape of the output (excluding batch) for a given input shape."""
        return input_shape

    def zero_grad(self) -> None:
        """Reset accumulated parameter gradients."""
        for key, value in self.params.items():
            self.grads[key] = np.zeros_like(value)

    def to_dtype(self, dtype) -> "Layer":
        """Convert parameters, gradients and buffers to ``dtype`` in place."""
        self.dtype = resolve_dtype(dtype)
        for key, value in self.params.items():
            self.params[key] = value.astype(self.dtype, copy=False)
        for key, value in self.grads.items():
            self.grads[key] = value.astype(self.dtype, copy=False)
        return self

    @property
    def n_parameters(self) -> int:
        """Total number of trainable parameters in the layer."""
        return int(sum(p.size for p in self.params.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Conv1d(Layer):
    """1-D convolution with stride and dilation (the TCN building block).

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Length of the convolution kernel.
    stride:
        Hop between output positions.
    dilation:
        Spacing between kernel taps (receptive-field expansion without
        extra parameters — the defining feature of temporal convolutional
        networks).
    padding:
        Zero padding added to both ends of the input; ``"same"`` picks the
        padding that keeps ``ceil(length / stride)`` output samples.
    bias:
        Whether to add a learnable per-channel bias.
    rng:
        Generator used for He-uniform weight initialization.
    dtype:
        Floating dtype of the weights (and of the forward computation);
        defaults to float64.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        dilation: int = 1,
        padding: int | str = "same",
        bias: bool = True,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__(dtype=dtype)
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        if kernel_size <= 0 or stride <= 0 or dilation <= 0:
            raise ValueError("kernel_size, stride and dilation must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.dilation = dilation
        self.padding_mode = padding
        self.use_bias = bias

        rng = rng or np.random.default_rng()
        fan_in = in_channels * kernel_size
        limit = np.sqrt(6.0 / fan_in)
        self.params["weight"] = rng.uniform(
            -limit, limit, size=(out_channels, in_channels, kernel_size)
        ).astype(self.dtype, copy=False)
        if bias:
            self.params["bias"] = np.zeros(out_channels, dtype=self.dtype)
        self.zero_grad()
        self._cache: dict = {}

    #: Whether a following BatchNorm1d was folded into this convolution's
    #: weights (set by :func:`repro.nn.network.fold_batchnorm`); the ops
    #: counter then also charges the folded normalization's elementwise
    #: operations, keeping energy modelling honest.
    bn_folded: bool = False

    # ----------------------------------------------------------- geometry
    @property
    def effective_kernel(self) -> int:
        """Kernel span after dilation: ``dilation * (kernel_size - 1) + 1``."""
        return self.dilation * (self.kernel_size - 1) + 1

    def _padding_amount(self, length: int) -> tuple[int, int]:
        """(left, right) zero padding for an input of ``length`` samples."""
        if isinstance(self.padding_mode, int):
            return self.padding_mode, self.padding_mode
        if self.padding_mode == "same":
            target = int(np.ceil(length / self.stride))
            needed = max(0, (target - 1) * self.stride + self.effective_kernel - length)
            left = needed // 2
            return left, needed - left
        raise ValueError(f"unsupported padding mode {self.padding_mode!r}")

    def output_length(self, length: int) -> int:
        """Number of output samples for an input of ``length`` samples."""
        pad_left, pad_right = self._padding_amount(length)
        numerator = length + pad_left + pad_right - self.effective_kernel
        if numerator < 0:
            return 0
        return numerator // self.stride + 1

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        channels, length = input_shape
        if channels != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {channels}"
            )
        return (self.out_channels, self.output_length(length))

    def _geometry(self, length: int) -> tuple[int, int, int]:
        """``(pad_left, pad_right, l_out)`` for an input of ``length`` samples."""
        pad_left, pad_right = self._padding_amount(length)
        l_out = self.output_length(length)
        if l_out <= 0:
            raise ValueError(
                f"input length {length} too short for kernel span {self.effective_kernel}"
            )
        return pad_left, pad_right, l_out

    def _pad(self, x: np.ndarray) -> tuple[np.ndarray, int, int]:
        """Zero-pad ``x`` along time: ``(padded, pad_left, l_out)``."""
        length = x.shape[-1]
        pad_left, pad_right, l_out = self._geometry(length)
        if pad_left or pad_right:
            padded = np.empty(x.shape[:2] + (pad_left + length + pad_right,), dtype=x.dtype)
            padded[:, :, :pad_left] = 0
            padded[:, :, pad_left : pad_left + length] = x
            padded[:, :, pad_left + length :] = 0
            x = padded
        return x, pad_left, l_out

    def im2col(self, x: np.ndarray) -> np.ndarray:  # hot-path
        """Inference im2col of a ``(batch, in_ch, length)`` input, in tiles.

        Returns fresh ``(ceil(batch / TILE_WINDOWS), in_ch * kernel,
        TILE_WINDOWS * l_out)`` columns in ``x``'s dtype: tile ``t``'s
        column ``w * l_out + p`` holds every (dilated) kernel tap of
        output position ``p`` of window ``t * TILE_WINDOWS + w``, so the
        convolution is one fixed-shape GEMM per tile against the kernel
        flattened to ``(out_ch, in_ch * kernel)``.  The columns are built
        by one strided slab copy per kernel tap straight from ``x``,
        whatever its strides (a channel-major :meth:`lowered_matmul` view
        reads contiguous rows).  Padding taps and the windows a partial tile
        lacks are zero-filled, so a partial tile is still a full tile.
        The int8 engine
        (:meth:`repro.nn.quantization.QuantizedSequential.forward_integer`)
        feeds it int32 codes.
        """
        batch, channels, length = x.shape
        pad_left, _, l_out = self._geometry(length)
        full, rest = divmod(batch, TILE_WINDOWS)
        n_tiles = full + (rest > 0)
        cols = np.empty(
            (n_tiles, channels * self.kernel_size, TILE_WINDOWS * l_out), dtype=x.dtype
        )
        # (tile, in_ch, tap, window, position) view of the columns.
        taps = cols.reshape(n_tiles, channels, self.kernel_size, TILE_WINDOWS, l_out)
        # (columns, (tile, window, in_ch, length) source) pairs: the full
        # tiles, then the partial one, whose absent windows are zeros.
        blocks = []
        if full:
            head = x[: full * TILE_WINDOWS].reshape(full, TILE_WINDOWS, channels, length)
            blocks.append((taps[:full], head))
        if rest:
            taps[full:, :, :, rest:] = 0
            blocks.append((taps[full:, :, :, :rest], x[full * TILE_WINDOWS :][None]))
        stride = self.stride
        for tap in range(self.kernel_size):  # loop-ok: per kernel tap
            offset = tap * self.dilation - pad_left
            # Output positions [lo, hi) read inside the input; the rest
            # read padding.
            lo = min(l_out, max(0, -(offset // stride)))
            hi = min(l_out, max(lo, (length - 1 - offset) // stride + 1))
            taps[:, :, tap, :, :lo] = 0
            taps[:, :, tap, :, hi:] = 0
            if hi == lo:
                continue
            reads = slice(lo * stride + offset, (hi - 1) * stride + offset + 1, stride)
            for columns, source in blocks:  # loop-ok: full tiles, then the partial tile
                columns[:, :, tap, :, lo:hi] = source[:, :, :, reads].transpose(0, 2, 1, 3)
        return cols

    def lowered_matmul(self, weight: np.ndarray, x: np.ndarray) -> np.ndarray:  # hot-path
        """``weight @ im2col(x)`` per tile, as ``(batch, out_ch, l_out)`` windows.

        ``weight`` is the kernel flattened to ``(out_ch, in_ch * kernel)``
        in the columns' dtype.  One stacked ``matmul`` runs the same
        fixed-shape GEMM for every tile.  A single tile's windows come
        back as a view over its channel-major result (the next
        convolution's tap slabs then read contiguous rows); several
        tiles' as a window-major copy.
        """
        batch = x.shape[0]
        cols = self.im2col(x)
        if cols.dtype.kind != "f":
            # numpy's integer matmul has no BLAS kernel; its loop sums
            # along in_ch * kernel innermost, so give it those contiguous.
            cols = np.ascontiguousarray(cols.transpose(0, 2, 1)).transpose(0, 2, 1)
        out = np.matmul(weight, cols)
        n_tiles, channels, columns = out.shape
        l_out = columns // TILE_WINDOWS
        tiles = out.reshape(n_tiles, channels, TILE_WINDOWS, l_out).transpose(0, 2, 1, 3)
        if n_tiles == 1:
            return tiles[0, :batch]
        return tiles.reshape(n_tiles * TILE_WINDOWS, channels, l_out)[:batch]

    # ------------------------------------------------------------- compute
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv1d expects input of shape (batch, {self.in_channels}, length), got {x.shape}"
            )
        if not training:
            self._cache = {}
            return self._forward_gemm(x)

        x_padded, pad_left, l_out = self._pad(x)
        # Gather the im2col tensor: (batch, in_ch, kernel, l_out).
        tap_offsets = np.arange(self.kernel_size, dtype=np.intp) * self.dilation
        out_positions = np.arange(l_out, dtype=np.intp) * self.stride
        index = tap_offsets[:, None] + out_positions[None, :]
        cols = x_padded[:, :, index]

        weight = self.params["weight"]
        out = np.einsum("oik,bikl->bol", weight, cols, optimize=True)
        if self.use_bias:
            out += self.params["bias"][None, :, None]

        self._cache = {
            "cols": cols,
            "index": index,
            "pad_left": pad_left,
            "input_shape": x.shape,
            "padded_length": x_padded.shape[-1],
        }
        return out

    def _forward_gemm(self, x: np.ndarray) -> np.ndarray:  # hot-path
        """Inference lowering: :meth:`im2col` + one GEMM per tile.

        Every GEMM has the shape ``(out_ch, in_ch * kernel) @ (in_ch *
        kernel, TILE_WINDOWS * l_out)`` whatever the batch, so BLAS takes
        one path and a window's output bits depend only on its own
        columns, never on its batch or its place in a tile.  The columns
        are built fresh on every call: a cached buffer would pin a tile's
        columns per layer between calls.
        """
        out = self.lowered_matmul(self.params["weight"].reshape(self.out_channels, -1), x)
        if self.use_bias:
            out += self.params["bias"][None, :, None]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if not self._cache:
            raise RuntimeError("backward called before a training-mode forward pass")
        cols = self._cache["cols"]
        index = self._cache["index"]
        pad_left = self._cache["pad_left"]
        batch, _, length = self._cache["input_shape"]
        padded_length = self._cache["padded_length"]

        weight = self.params["weight"]
        grad_output = np.asarray(grad_output, dtype=self.dtype)

        self.grads["weight"] += np.einsum("bol,bikl->oik", grad_output, cols, optimize=True)
        if self.use_bias:
            self.grads["bias"] += grad_output.sum(axis=(0, 2))

        grad_cols = np.einsum("oik,bol->bikl", weight, grad_output, optimize=True)
        grad_padded = np.zeros((batch, self.in_channels, padded_length), dtype=grad_cols.dtype)
        # Scatter-add per kernel tap: output positions for a fixed tap are
        # distinct, so a direct slice-add is safe (taps overlap each other,
        # hence the loop).
        out_positions = np.arange(index.shape[1], dtype=np.intp) * self.stride
        for tap in range(self.kernel_size):
            positions = out_positions + tap * self.dilation
            np.add.at(grad_padded, (slice(None), slice(None), positions), grad_cols[:, :, tap, :])
        return grad_padded[:, :, pad_left:pad_left + length]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv1d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, d={self.dilation})"
        )


class Dense(Layer):
    """Fully connected layer operating on ``(batch, features)`` inputs."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__(dtype=dtype)
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.use_bias = bias
        rng = rng or np.random.default_rng()
        limit = np.sqrt(6.0 / in_features)
        self.params["weight"] = rng.uniform(
            -limit, limit, size=(out_features, in_features)
        ).astype(self.dtype, copy=False)
        if bias:
            self.params["bias"] = np.zeros(out_features, dtype=self.dtype)
        self.zero_grad()
        self._cache: np.ndarray | None = None

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if input_shape != (self.in_features,):
            raise ValueError(f"expected input shape ({self.in_features},), got {input_shape}")
        return (self.out_features,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expects input of shape (batch, {self.in_features}), got {x.shape}"
            )
        self._cache = x if training else None
        if training:
            out = x @ self.params["weight"].T
        else:
            # One vector-matrix product per row: BLAS would run a one-row
            # batch as gemv and a larger one as gemm, whose accumulation
            # order differs, so a row's bits would depend on its batch.
            out = np.matmul(x[:, None, :], self.params["weight"].T)[:, 0, :]
        if self.use_bias:
            out += self.params["bias"]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        grad_output = np.asarray(grad_output, dtype=self.dtype)
        self.grads["weight"] += grad_output.T @ self._cache
        if self.use_bias:
            self.grads["bias"] += grad_output.sum(axis=0)
        return grad_output @ self.params["weight"]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense({self.in_features}, {self.out_features})"


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = as_floating(x)
        self._mask = (x > 0) if training else None
        return np.maximum(x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        return as_floating(grad_output) * self._mask


class BatchNorm1d(Layer):
    """Batch normalization over ``(batch, channels, length)`` activations.

    Statistics are computed per channel over the batch and time axes; an
    exponential moving average of the batch statistics is kept for
    inference, as in the standard formulation.
    """

    def __init__(
        self, num_channels: int, momentum: float = 0.1, eps: float = 1e-5, dtype=None
    ) -> None:
        super().__init__(dtype=dtype)
        if num_channels <= 0:
            raise ValueError("num_channels must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ValueError(f"momentum must lie in (0, 1], got {momentum}")
        self.num_channels = num_channels
        self.momentum = momentum
        self.eps = eps
        self.params["gamma"] = np.ones(num_channels, dtype=self.dtype)
        self.params["beta"] = np.zeros(num_channels, dtype=self.dtype)
        self.running_mean = np.zeros(num_channels, dtype=self.dtype)
        self.running_var = np.ones(num_channels, dtype=self.dtype)
        self.zero_grad()
        self._cache: dict = {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 3 or x.shape[1] != self.num_channels:
            raise ValueError(
                f"BatchNorm1d expects (batch, {self.num_channels}, length), got {x.shape}"
            )
        if training:
            mean = x.mean(axis=(0, 2))
            var = x.var(axis=(0, 2))
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None]) * inv_std[None, :, None]
        out = self.params["gamma"][None, :, None] * x_hat + self.params["beta"][None, :, None]
        if training:
            self._cache = {"x_hat": x_hat, "inv_std": inv_std, "n": x.shape[0] * x.shape[2]}
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if not self._cache:
            raise RuntimeError("backward called before a training-mode forward pass")
        grad_output = np.asarray(grad_output, dtype=self.dtype)
        x_hat = self._cache["x_hat"]
        inv_std = self._cache["inv_std"]
        n = self._cache["n"]

        self.grads["gamma"] += (grad_output * x_hat).sum(axis=(0, 2))
        self.grads["beta"] += grad_output.sum(axis=(0, 2))

        gamma = self.params["gamma"][None, :, None]
        grad_xhat = grad_output * gamma
        sum_grad = grad_xhat.sum(axis=(0, 2), keepdims=True)
        sum_grad_xhat = (grad_xhat * x_hat).sum(axis=(0, 2), keepdims=True)
        return (inv_std[None, :, None] / n) * (n * grad_xhat - sum_grad - x_hat * sum_grad_xhat)

    def to_dtype(self, dtype) -> "BatchNorm1d":
        super().to_dtype(dtype)
        self.running_mean = self.running_mean.astype(self.dtype, copy=False)
        self.running_var = self.running_var.astype(self.dtype, copy=False)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchNorm1d({self.num_channels})"


class AvgPool1d(Layer):
    """Non-overlapping average pooling along the time axis."""

    def __init__(self, pool_size: int) -> None:
        super().__init__()
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self._cache: tuple | None = None

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        channels, length = input_shape
        return (channels, length // self.pool_size)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = as_floating(x)
        if x.ndim != 3:
            raise ValueError(f"AvgPool1d expects (batch, channels, length), got {x.shape}")
        length = x.shape[2]
        l_out = length // self.pool_size
        if l_out == 0:
            raise ValueError(f"input length {length} shorter than pool size {self.pool_size}")
        # Sum the taps in order from +0.0, then divide: the bits of
        # numpy's mean over the pool (which sums sequentially from +0.0
        # below 8 elements and pairwise from 8), signed zeros included,
        # without the copy a reshape of the trimmed input makes.
        end = l_out * self.pool_size
        out = x[:, :, 0 : end : self.pool_size] + 0.0
        for tap in range(1, self.pool_size):  # loop-ok: per pool tap, not per element
            out += x[:, :, tap : end : self.pool_size]
        out /= self.pool_size
        if training:
            self._cache = (x.shape, l_out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        (batch, channels, length), l_out = self._cache
        grad_output = as_floating(grad_output)
        grad = np.zeros((batch, channels, length), dtype=grad_output.dtype)
        expanded = np.repeat(grad_output / self.pool_size, self.pool_size, axis=2)
        grad[:, :, : l_out * self.pool_size] = expanded
        return grad

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AvgPool1d({self.pool_size})"


class GlobalAvgPool1d(Layer):
    """Average over the whole time axis, producing ``(batch, channels)``."""

    def __init__(self) -> None:
        super().__init__()
        self._cache: tuple | None = None

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        channels, _ = input_shape
        return (channels,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = as_floating(x)
        if x.ndim != 3:
            raise ValueError(f"GlobalAvgPool1d expects (batch, channels, length), got {x.shape}")
        if training:
            self._cache = x.shape
        return x.mean(axis=2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        batch, channels, length = self._cache
        grad_output = as_floating(grad_output)
        return np.repeat(grad_output[:, :, None], length, axis=2) / length


class Flatten(Layer):
    """Flatten ``(batch, channels, length)`` into ``(batch, channels * length)``."""

    def __init__(self) -> None:
        super().__init__()
        self._cache: tuple | None = None

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        total = 1
        for dim in input_shape:
            total *= dim
        return (total,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = as_floating(x)
        if training:
            self._cache = x.shape
        # Explicit feature count: reshape(batch, -1) cannot infer the
        # trailing dimension of a zero-row batch.
        features = 1
        for dim in x.shape[1:]:
            features *= dim
        return x.reshape(x.shape[0], features)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        return as_floating(grad_output).reshape(self._cache)


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float = 0.1, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng or np.random.default_rng()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = as_floating(x)
        if not training:
            # Identity at inference: no mask is sampled or allocated.
            self._mask = None
            return x
        if self.rate == 0.0:
            self._mask = np.ones(1, dtype=x.dtype)
            return x
        keep = 1.0 - self.rate
        self._mask = ((self.rng.random(x.shape) < keep) / keep).astype(x.dtype, copy=False)
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        return as_floating(grad_output) * self._mask

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dropout({self.rate})"
