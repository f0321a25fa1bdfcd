"""Post-training int8 quantization.

Before deployment the paper quantizes TimePPG-Small and TimePPG-Big to
8 bits (quantization-aware training with PyTorch, then X-CUBE-AI / TFLite
export).  The reproduction implements the deployment-side of that flow:
symmetric per-tensor int8 quantization of weights and asymmetric uint8-style
quantization of activations, with scales calibrated on a representative
input batch.  A :class:`QuantizedSequential` executes inference with
quantized weights (computation in float, values constrained to the
quantization grid — the "fake quantization" formulation, which is how
quantization error is usually modelled at the algorithm level).

The quantizer is used to verify that the accuracy loss of int8 deployment
is small (a property the paper relies on implicitly when it reports MAEs
for the deployed, quantized models).

Integer-accumulation path
-------------------------
:meth:`QuantizedSequential.forward_integer` is the true deployment
arithmetic, not a float simulation: activations travel between layers as
**int8 codes**, Conv/Dense layers accumulate ``sum_k w_q[k] * (x_q[k] -
z_x)`` in **int32** (zero-padding contributes exactly zero because the
input zero point is subtracted before the convolution), and each
accumulator is requantized onto the next activation grid.  Requantization
semantics: the int32 accumulator is scaled by the double-precision
product ``scale_w * scale_x``, the float bias is added, and the result is
rounded onto the activation grid with :meth:`QuantizationSpec.quantize` —
i.e. **round-half-to-even** (``np.round``) computed in double precision,
then clipped to ``[qmin, qmax]``.  Dequantized values leaving the integer
domain (pooling layers, the final output) are emitted as **float32**, the
deployment dtype.

Because the accumulator is exact (integers) and the fake-quantize
reference accumulates the same per-tap products in float64, both paths
round onto the same activation grid point; on networks whose layers are
all grid-exact between Conv/Dense stages (ReLU = ``max(q, z)`` on codes,
Flatten = reshape, inference Dropout = identity), the integer path's
codes match the fake-quantize reference exactly — the equivalence the
int8 test suite pins.  Layers that leave the grid (average pooling)
dequantize to float32 and re-enter through a calibrated re-entry spec,
which adds one extra quantization the float reference does not have.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import BatchNorm1d, Conv1d, Dense, Dropout, Flatten, Layer, ReLU
from repro.nn.network import Sequential, fold_batchnorm


@dataclass(frozen=True)
class QuantizationSpec:
    """Quantization parameters for one tensor.

    ``value ≈ scale * (q - zero_point)`` with ``q`` in ``[qmin, qmax]``.
    """

    scale: float
    zero_point: int
    qmin: int = -128
    qmax: int = 127

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Map float values onto the integer grid."""
        q = np.round(np.asarray(x, dtype=float) / self.scale) + self.zero_point
        return np.clip(q, self.qmin, self.qmax).astype(np.int32)

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        """Map integer grid values back to floats."""
        return (np.asarray(q, dtype=float) - self.zero_point) * self.scale

    def fake_quantize(self, x: np.ndarray) -> np.ndarray:
        """Round-trip through the grid (quantize then dequantize)."""
        return self.dequantize(self.quantize(x))


def symmetric_spec(x: np.ndarray, n_bits: int = 8) -> QuantizationSpec:
    """Symmetric per-tensor spec (zero point 0), used for weights."""
    x = np.asarray(x, dtype=float)
    qmax = 2 ** (n_bits - 1) - 1
    qmin = -(2 ** (n_bits - 1))
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    scale = max_abs / qmax if max_abs > 0 else 1.0
    if not np.isfinite(scale) or scale <= 0.0:
        # Guard against subnormal underflow for (near-)zero tensors.
        scale = 1.0
    return QuantizationSpec(scale=scale, zero_point=0, qmin=qmin, qmax=qmax)


def asymmetric_spec(x: np.ndarray, n_bits: int = 8) -> QuantizationSpec:
    """Asymmetric per-tensor spec covering ``[min, max]``, used for activations."""
    x = np.asarray(x, dtype=float)
    qmax = 2 ** (n_bits - 1) - 1
    qmin = -(2 ** (n_bits - 1))
    lo = float(np.min(x)) if x.size else 0.0
    hi = float(np.max(x)) if x.size else 0.0
    lo = min(lo, 0.0)
    hi = max(hi, 0.0)
    span = hi - lo
    scale = span / (qmax - qmin) if span > 0 else 1.0
    if not np.isfinite(scale) or scale <= 0.0:
        # Guard against subnormal underflow for (near-)zero tensors.
        scale = 1.0
    zero_point = int(round(qmin - lo / scale))
    zero_point = int(np.clip(zero_point, qmin, qmax))
    return QuantizationSpec(scale=scale, zero_point=zero_point, qmin=qmin, qmax=qmax)


class QuantizedSequential:
    """Inference-only network whose weights/activations live on an int8 grid.

    The quantized model shares the layer objects' structure with the float
    network it was derived from, but all weights are replaced with their
    fake-quantized values, and every Conv/Dense output is fake-quantized
    with an activation spec calibrated on a representative batch.
    """

    def __init__(
        self,
        network: Sequential,
        weight_specs: dict[int, dict[str, QuantizationSpec]],
        activation_specs: dict[int, QuantizationSpec],
        n_bits: int = 8,
        input_spec: QuantizationSpec | None = None,
        input_specs: dict[int, QuantizationSpec] | None = None,
    ) -> None:
        self.network = network
        self.weight_specs = weight_specs
        self.activation_specs = activation_specs
        self.n_bits = n_bits
        #: Grid the raw model input is quantized onto by the integer path.
        self.input_spec = input_spec
        #: Per-Conv/Dense re-entry grids: the spec whose codes feed layer
        #: ``i``.  For layers fed by grid-preserving predecessors this is
        #: the upstream activation (or input) spec; after a layer that
        #: leaves the grid it is freshly calibrated.
        self.input_specs = input_specs if input_specs is not None else {}
        self._weight_codes: dict[int, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Quantized inference (always in evaluation mode)."""
        out = np.asarray(x, dtype=float)
        for i, layer in enumerate(self.network.layers):
            out = layer.forward(out, training=False)
            if i in self.activation_specs:
                out = self.activation_specs[i].fake_quantize(out)
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # ----------------------------------------------------- integer path
    def _weight_codes_for(self, i: int) -> np.ndarray:
        """int8 weight codes for Conv/Dense layer ``i`` (cached).

        The layer's weight array already holds fake-quantized values
        ``q * scale`` exactly, so re-quantizing recovers the integer
        codes losslessly.
        """
        if self._weight_codes is None:
            self._weight_codes = {}
        if i not in self._weight_codes:
            spec = self.weight_specs[i]["weight"]
            codes = spec.quantize(self.network.layers[i].params["weight"])
            self._weight_codes[i] = codes.astype(np.int8)
        return self._weight_codes[i]

    def forward_integer(self, x: np.ndarray, return_codes: bool = False) -> np.ndarray:
        """True int8 inference: int8 codes, int32 accumulators.

        The input is quantized onto :attr:`input_spec`; activations then
        travel between layers as int8 codes.  Conv/Dense accumulate in
        int32 and requantize onto the calibrated activation grid (see the
        module docstring for the exact rounding semantics).  Grid-exact
        layers (ReLU, Flatten, inference Dropout) operate directly on the
        codes; anything else dequantizes to float32 and re-enters the
        integer domain through the calibrated re-entry spec of the next
        Conv/Dense.

        Returns the dequantized float32 output, or the raw int8 codes of
        the final activation grid when ``return_codes`` is true.
        """
        if self.input_spec is None:
            raise ValueError(
                "forward_integer requires a calibrated input_spec; "
                "re-export the model with quantize_network()"
            )
        if self.n_bits > 8:
            raise ValueError(
                f"integer path carries activations as int8; n_bits={self.n_bits} > 8"
            )
        current_spec: QuantizationSpec | None = self.input_spec
        codes = self.input_spec.quantize(np.asarray(x, dtype=float)).astype(np.int8)
        floats: np.ndarray | None = None  # float32 carrier outside the grid
        last_spec = self.input_spec
        for i, layer in enumerate(self.network.layers):
            if isinstance(layer, (Conv1d, Dense)):
                in_spec = self.input_specs.get(i, current_spec)
                if in_spec is None:
                    raise ValueError(
                        f"layer {i} has no calibrated re-entry spec; "
                        "re-export the model with quantize_network()"
                    )
                if floats is not None:  # re-enter the integer domain
                    codes = in_spec.quantize(floats).astype(np.int8)
                    floats = None
                centered = codes.astype(np.int32) - np.int32(in_spec.zero_point)
                w_codes = self._weight_codes_for(i)
                if isinstance(layer, Dense):
                    acc = centered @ w_codes.astype(np.int32).T
                    bias = layer.params["bias"][None, :]
                else:
                    # The float forward's tile columns: zero-padding the
                    # centered codes (and a partial tile's absent
                    # windows) contributes exactly zero to every
                    # accumulator, and integer sums are exact in any order.
                    weight = w_codes.reshape(layer.out_channels, -1).astype(np.int32)
                    acc = layer.lowered_matmul(weight, centered)
                    bias = layer.params["bias"][None, :, None]
                out_spec = self.activation_specs[i]
                # Requantize: double-precision scale product + bias,
                # round-half-to-even onto the activation grid.
                y = acc * (self.weight_specs[i]["weight"].scale * in_spec.scale) + bias
                codes = out_spec.quantize(y).astype(np.int8)
                current_spec = out_spec
                last_spec = out_spec
            elif isinstance(layer, ReLU) and floats is None:
                assert current_spec is not None
                codes = np.maximum(codes, np.int8(current_spec.zero_point))
            elif isinstance(layer, Flatten) and floats is None:
                # Explicit feature count: -1 is ambiguous for zero-row batches.
                codes = codes.reshape(codes.shape[0], int(np.prod(codes.shape[1:])))
            elif isinstance(layer, Dropout):
                continue  # identity at inference
            else:
                # Leave the integer domain in the deployment float dtype.
                assert current_spec is not None or floats is not None
                if floats is None:
                    floats = current_spec.dequantize(codes).astype(np.float32)
                    current_spec = None
                floats = layer.forward(floats, training=False)
        if floats is not None:
            if return_codes:
                raise ValueError("network output left the integer grid; no codes to return")
            return floats
        if return_codes:
            return codes
        return last_spec.dequantize(codes).astype(np.float32)

    @property
    def weight_bytes(self) -> int:
        """Storage footprint of the quantized weights, in bytes.

        Each quantized weight takes one byte (int8); biases and batch-norm
        parameters are kept in 32-bit as deployment toolchains do.
        """
        total = 0
        for layer in self.network.layers:
            for key, value in layer.params.items():
                if key == "weight":
                    total += value.size  # int8
                else:
                    total += value.size * 4  # fp32/int32
        return int(total)


def quantize_network(
    network: Sequential,
    calibration_batch: np.ndarray,
    n_bits: int = 8,
    fold_bn: bool = False,
) -> QuantizedSequential:
    """Post-training quantization of a trained network.

    Parameters
    ----------
    network:
        Trained float network.  Its weight arrays are *modified in place*
        to their fake-quantized values (mirroring a deployment export); if
        the float model must be preserved, pass a copy.
    calibration_batch:
        Representative inputs used to calibrate activation ranges.
    n_bits:
        Bit width (8 in the paper).
    fold_bn:
        Fold batch norm into the preceding convolutions
        (:func:`repro.nn.network.fold_batchnorm`) before quantizing —
        the order deployment toolchains use, so the quantization grid is
        calibrated on the weights that actually ship.  The fold works on
        a copy, so with ``fold_bn=True`` the passed float network is
        *not* modified and the quantized model wraps the folded copy.

    Returns
    -------
    QuantizedSequential
        Inference wrapper with the calibrated activation specs.
    """
    if n_bits < 2 or n_bits > 16:
        raise ValueError(f"n_bits must be in [2, 16], got {n_bits}")
    if fold_bn:
        network = fold_batchnorm(network)
    calibration_batch = np.asarray(calibration_batch, dtype=float)
    if calibration_batch.shape[0] == 0:
        raise ValueError("calibration batch is empty")

    weight_specs: dict[int, dict[str, QuantizationSpec]] = {}
    activation_specs: dict[int, QuantizationSpec] = {}

    # First pass: quantize weights in place.
    for i, layer in enumerate(network.layers):
        if isinstance(layer, (Conv1d, Dense)):
            spec = symmetric_spec(layer.params["weight"], n_bits=n_bits)
            layer.params["weight"][...] = spec.fake_quantize(layer.params["weight"])
            weight_specs[i] = {"weight": spec}
        elif isinstance(layer, BatchNorm1d):
            # Batch-norm parameters are folded into 32-bit scales at
            # deployment time; no 8-bit quantization applied.
            continue

    # Second pass: propagate the calibration batch and record activation
    # ranges, plus the re-entry grids the integer path needs.  While the
    # running activation stays on a known grid (Conv/Dense output passed
    # through grid-preserving layers), that grid is the re-entry spec of
    # the next Conv/Dense; after a layer that leaves the grid, a fresh
    # spec is calibrated on the float activations.
    input_spec = asymmetric_spec(calibration_batch, n_bits=n_bits)
    input_specs: dict[int, QuantizationSpec] = {}
    out = calibration_batch
    current: QuantizationSpec | None = input_spec
    for i, layer in enumerate(network.layers):
        if isinstance(layer, (Conv1d, Dense)):
            input_specs[i] = current if current is not None else asymmetric_spec(out, n_bits=n_bits)
            out = layer.forward(out, training=False)
            activation_specs[i] = asymmetric_spec(out, n_bits=n_bits)
            out = activation_specs[i].fake_quantize(out)
            current = activation_specs[i]
        else:
            out = layer.forward(out, training=False)
            if not isinstance(layer, (ReLU, Flatten, Dropout)):
                current = None  # left the grid (pooling, batch norm, ...)

    return QuantizedSequential(
        network,
        weight_specs,
        activation_specs,
        n_bits=n_bits,
        input_spec=input_spec,
        input_specs=input_specs,
    )


def quantization_error(float_net: Sequential, quant_net: QuantizedSequential, x: np.ndarray) -> float:
    """Mean absolute difference between float and quantized predictions."""
    x = np.asarray(x, dtype=float)
    ref = float_net.forward(x, training=False)
    quant = quant_net.forward(x)
    return float(np.mean(np.abs(ref - quant)))
