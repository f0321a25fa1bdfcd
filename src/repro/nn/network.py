"""Sequential network container and frozen-network batch-norm folding."""

from __future__ import annotations

import copy

import numpy as np

from repro.dtypes import resolve_dtype
from repro.nn.layers import BatchNorm1d, Conv1d, Layer


class Sequential:
    """A plain feed-forward stack of layers.

    The container exposes the same ``forward`` / ``backward`` protocol as
    the layers, plus convenience accessors used by the optimizers
    (``parameters`` / ``gradients``), the quantizer and the complexity
    counters.
    """

    def __init__(self, layers: list[Layer] | None = None) -> None:
        self.layers: list[Layer] = list(layers) if layers else []

    def add(self, layer: Layer) -> "Sequential":
        """Append a layer and return ``self`` (chainable)."""
        self.layers.append(layer)
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    # ------------------------------------------------------------- compute
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the input through every layer in order."""
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate through every layer in reverse order."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # ---------------------------------------------------------- parameters
    def zero_grad(self) -> None:
        """Reset all parameter gradients."""
        for layer in self.layers:
            layer.zero_grad()

    def parameters(self) -> list[tuple[str, dict[str, np.ndarray]]]:
        """Per-layer parameter dictionaries, keyed by a unique layer name."""
        return [(f"layer{i}_{type(layer).__name__}", layer.params) for i, layer in enumerate(self.layers)]

    def gradients(self) -> list[tuple[str, dict[str, np.ndarray]]]:
        """Per-layer gradient dictionaries, aligned with :meth:`parameters`."""
        return [(f"layer{i}_{type(layer).__name__}", layer.grads) for i, layer in enumerate(self.layers)]

    @property
    def n_parameters(self) -> int:
        """Total number of trainable parameters."""
        return int(sum(layer.n_parameters for layer in self.layers))

    # -------------------------------------------------------- (de)serialize
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of every parameter array (copied)."""
        state = {}
        for name, params in self.parameters():
            for key, value in params.items():
                state[f"{name}.{key}"] = value.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters previously produced by :meth:`state_dict`."""
        for name, params in self.parameters():
            for key in params:
                full = f"{name}.{key}"
                if full not in state:
                    raise KeyError(f"missing parameter {full} in state dict")
                if state[full].shape != params[key].shape:
                    raise ValueError(
                        f"shape mismatch for {full}: "
                        f"{state[full].shape} vs {params[key].shape}"
                    )
                params[key][...] = state[full]

    # --------------------------------------------------------------- dtype
    def to_dtype(self, dtype) -> "Sequential":
        """Convert every layer's parameters and buffers to ``dtype`` in place.

        Threads the runtime dtype through the whole stack (weights,
        biases, batch-norm running statistics, gradient buffers).
        Returns ``self`` (chainable).
        """
        for layer in self.layers:
            layer.to_dtype(dtype)
        return self

    @property
    def dtype(self) -> np.dtype:
        """The floating dtype of the stack's parameterized layers.

        Defined as the dtype of the first layer (``to_dtype`` keeps all
        layers consistent); an empty network reports the default float.
        """
        return self.layers[0].dtype if self.layers else resolve_dtype(None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential([{inner}])"


def _strip_runtime_buffers(layer: Layer) -> Layer:
    """Drop backward caches from a copied layer.

    The folded network is inference-only: carrying a deep copy of the
    source layers' training caches (im2col tensors, batch-norm and
    dropout masks) would pin a full training batch's activations for the
    frozen network's lifetime.
    """
    if hasattr(layer, "_cache"):
        layer._cache = {} if isinstance(layer._cache, dict) else None
    if hasattr(layer, "_mask"):
        layer._mask = None
    return layer


def _fold_conv_bn(conv: Conv1d, bn: BatchNorm1d) -> Conv1d:
    """One convolution equivalent to ``conv`` followed by ``bn`` (eval mode).

    Batch-norm in evaluation mode is a per-channel affine transform
    ``y = gamma * (x - mean) / sqrt(var + eps) + beta``; scaling the
    convolution kernel per output channel and adjusting the bias absorbs
    it exactly (up to one floating-point rounding per weight).
    """
    fused = _strip_runtime_buffers(copy.deepcopy(conv))
    inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
    scale = bn.params["gamma"] * inv_std
    fused.params["weight"] = conv.params["weight"] * scale[:, None, None]
    bias = conv.params["bias"] if conv.use_bias else 0.0
    fused.use_bias = True
    fused.params["bias"] = (bias - bn.running_mean) * scale + bn.params["beta"]
    fused.zero_grad()
    fused.bn_folded = True
    return fused


def fold_batchnorm(network: Sequential, dtype=None) -> Sequential:
    """Inference copy of ``network`` with batch norm folded into convolutions.

    Every ``Conv1d`` immediately followed by a ``BatchNorm1d`` is
    replaced by a single fused convolution; other layers are deep-copied
    unchanged (a batch norm *not* preceded by a convolution keeps running
    in evaluation mode).  The result is an inference-only network for
    **frozen** weights: it shares nothing with the original, so training
    the original afterwards requires folding again.  Folded outputs match
    the unfolded evaluation forward to floating-point rounding (one
    rounding per folded weight); the runtime's bitwise contract compares
    a frozen network against itself, never against the unfolded one.

    The ops counter keeps charging the folded normalizations
    (:mod:`repro.nn.ops_count` reads :attr:`Conv1d.bn_folded`), so energy
    modelling reports the same MAC count for folded and reference
    networks.

    ``dtype`` (optional) converts the folded copy — weights, biases and
    any remaining batch-norm buffers — to the given floating dtype, e.g.
    ``fold_batchnorm(net, dtype="float32")`` for a pure-float32 frozen
    network.  Folding arithmetic runs in the source network's dtype and
    the fold result is cast once at the end, so the float32 weights are
    the correctly-rounded float64 fold.  ``None`` keeps the source dtype.
    """
    layers: list[Layer] = []
    source = network.layers
    i = 0
    while i < len(source):
        layer = source[i]
        nxt = source[i + 1] if i + 1 < len(source) else None
        if isinstance(layer, Conv1d) and isinstance(nxt, BatchNorm1d):
            layers.append(_fold_conv_bn(layer, nxt))
            i += 2
        else:
            layers.append(_strip_runtime_buffers(copy.deepcopy(layer)))
            i += 1
    folded = Sequential(layers)
    if dtype is not None:
        folded.to_dtype(resolve_dtype(dtype))
    return folded
