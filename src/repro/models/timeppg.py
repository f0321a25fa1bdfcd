"""TimePPG temporal convolutional networks (Small and Big).

The two deep models of the paper (taken from Burrello et al., "Embedding
temporal convolutional networks for energy-efficient PPG-based heart rate
monitoring") are temporal convolutional networks with a modular structure:
three blocks of three 1-D convolutional layers each — two with dilation
greater than one and one with stride two — for a total of nine
convolutional layers, followed by a small fully-connected head.  The two
variants differ only in the per-layer channel counts, which the original
work obtained with a NAS; here they are fixed constants chosen to land
close to the paper's published complexity figures:

* TimePPG-Small — paper: 5.09 k parameters, 77.63 k operations;
* TimePPG-Big — paper: 232.6 k parameters, 12.27 M operations.

The exact channel widths of the original networks are not published, so
the reproduction's widths are the closest round numbers that reproduce the
parameter/operation budget (measured values are asserted in the tests and
recorded in EXPERIMENTS.md).

Inputs are 4-channel windows (PPG plus the three acceleration axes),
standardized per window, at 32 Hz / 256 samples, as in the TimePPG papers.

Inference mode and fleet fusion
-------------------------------
:meth:`TimePPGPredictor.freeze` builds a frozen inference network —
batch norm folded into the convolution weights
(:func:`repro.nn.network.fold_batchnorm`) on top of the numpy stack's
GEMM inference lowering — which :meth:`TimePPGPredictor._forward` then
uses instead of the training-oriented layer stack.  Folding changes
predictions only by floating-point rounding (weights absorb the
normalization exactly, up to one rounding per weight).

TimePPG's forward is stateless and every inference forward of the nn
stack is row-bit-stable (see :mod:`repro.nn.layers`): a window's
prediction has the same bits whatever batch it is computed in, at
float64, at float32 and on the int8 engine.  The predictor is therefore
``FLEET_BATCHABLE``: the fleet engine fuses its windows across all
subjects into one :meth:`~TimePPGPredictor.predict` call per fleet, and
the result is still bit-identical to per-subject sequential replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dtypes import resolve_dtype
from repro.models.base import FleetState, HeartRatePredictor, PredictorInfo
from repro.nn.layers import TILE_WINDOWS, AvgPool1d, BatchNorm1d, Conv1d, Dense, Flatten, ReLU
from repro.nn.network import Sequential, fold_batchnorm
from repro.nn.ops_count import count_macs, count_parameters
from repro.nn.quantization import QuantizedSequential
from repro.signal.filters import standardize


@dataclass(frozen=True)
class TimePPGConfig:
    """Architecture hyper-parameters of a TimePPG variant.

    Attributes
    ----------
    name:
        Variant name used in reports.
    input_channels:
        Number of input channels (4: PPG + 3 acceleration axes).
    input_length:
        Window length in samples (256).
    block_channels:
        Output channel count of each of the three blocks.
    kernel_size:
        Convolution kernel length (all layers).
    dilations:
        Dilation of the second and third convolution of each block (the
        first one uses stride 2 and no dilation).
    head_pool:
        Average-pooling factor applied before the dense head.
    head_hidden:
        Width of the hidden dense layer (0 disables it).
    paper_parameters, paper_macs, paper_mae_bpm:
        Reference values from the paper, kept alongside the architecture
        so reports can show "paper vs. measured" without lookups.
    """

    name: str
    input_channels: int = 4
    input_length: int = 256
    block_channels: tuple[int, int, int] = (6, 8, 8)
    kernel_size: int = 3
    dilations: tuple[int, int] = (2, 4)
    head_pool: int = 4
    head_hidden: int = 48
    paper_parameters: int = 0
    paper_macs: int = 0
    paper_mae_bpm: float = 0.0


#: TimePPG-Small: ~4.7 k parameters / ~80 k MACs measured
#: (paper: 5.09 k / 77.63 k).
TIMEPPG_SMALL_CONFIG = TimePPGConfig(
    name="TimePPG-Small",
    block_channels=(6, 8, 8),
    kernel_size=3,
    head_pool=4,
    head_hidden=48,
    paper_parameters=5_090,
    paper_macs=77_630,
    paper_mae_bpm=5.60,
)

#: TimePPG-Big: ~250 k parameters / ~10 M MACs measured
#: (paper: 232.6 k / 12.27 M).
TIMEPPG_BIG_CONFIG = TimePPGConfig(
    name="TimePPG-Big",
    block_channels=(24, 56, 128),
    kernel_size=5,
    head_pool=2,
    head_hidden=8,
    paper_parameters=232_600,
    paper_macs=12_270_000,
    paper_mae_bpm=4.87,
)


def build_timeppg_network(config: TimePPGConfig, seed: int = 0) -> Sequential:
    """Instantiate the TCN described by ``config``.

    Each block is ``[Conv(stride 2), BN, ReLU, Conv(dilation d1), BN, ReLU,
    Conv(dilation d2), BN, ReLU]``; the head is average pooling, flatten,
    an optional hidden dense layer with ReLU, and a single-output dense
    layer producing the HR estimate in BPM.
    """
    rng = np.random.default_rng(seed)
    layers = []
    in_channels = config.input_channels
    length = config.input_length
    for block_index, out_channels in enumerate(config.block_channels):
        # Strided convolution opening the block.
        layers.append(
            Conv1d(in_channels, out_channels, config.kernel_size, stride=2, dilation=1, rng=rng)
        )
        layers.append(BatchNorm1d(out_channels))
        layers.append(ReLU())
        length = (length + 1) // 2
        # Two dilated convolutions.
        for dilation in config.dilations:
            layers.append(
                Conv1d(out_channels, out_channels, config.kernel_size, stride=1, dilation=dilation, rng=rng)
            )
            layers.append(BatchNorm1d(out_channels))
            layers.append(ReLU())
        in_channels = out_channels
        del block_index

    layers.append(AvgPool1d(config.head_pool))
    length = length // config.head_pool
    layers.append(Flatten())
    flat = in_channels * length
    if config.head_hidden > 0:
        layers.append(Dense(flat, config.head_hidden, rng=rng))
        layers.append(ReLU())
        layers.append(Dense(config.head_hidden, 1, rng=rng))
    else:
        layers.append(Dense(flat, 1, rng=rng))
    return Sequential(layers)


class TimePPGPredictor(HeartRatePredictor):
    """HR predictor wrapping a (trained, possibly quantized) TimePPG network.

    Parameters
    ----------
    config:
        Architecture configuration (Small or Big).
    network:
        A pre-built/pre-trained network; freshly initialized from
        ``config`` when omitted.
    fs:
        Sampling frequency of the input windows.
    seed:
        Initialization seed used when ``network`` is omitted.
    """

    #: Stateless, row-bit-stable forward (see the module docstring): the
    #: fleet engine fuses every subject's windows into one batch.
    FLEET_BATCHABLE = True

    def __init__(
        self,
        config: TimePPGConfig = TIMEPPG_SMALL_CONFIG,
        network: Sequential | None = None,
        fs: float = 32.0,
        seed: int = 0,
    ) -> None:
        super().__init__(fs=fs)
        self.config = config
        self.network = network if network is not None else build_timeppg_network(config, seed=seed)
        self.quantized: QuantizedSequential | None = None
        #: Integer-engine opt-in (``set_inference_dtype("int8")``): route
        #: the quantized network through ``forward_integer`` instead of
        #: the fake-quantize float forward.
        self._integer = False
        self._frozen: Sequential | None = None
        #: Floating dtype of the inference path: input preparation builds
        #: the (batch, C, L) tensor in this dtype and the frozen network
        #: (when built with a matching ``freeze(dtype=...)``) keeps the
        #: whole forward in it.
        self._dtype = resolve_dtype(None)

    # ----------------------------------------------------------------- info
    @property
    def info(self) -> PredictorInfo:
        input_shape = (self.config.input_channels, self.config.input_length)
        return PredictorInfo(
            name=self.config.name,
            n_parameters=count_parameters(self.network),
            macs_per_window=count_macs(self.network, input_shape),
            uses_accelerometer=self.config.input_channels > 1,
        )

    # ------------------------------------------------------------ prepare IO
    def prepare_input(self, ppg_windows: np.ndarray, accel_windows: np.ndarray | None) -> np.ndarray:
        """Stack PPG and acceleration into the network's (batch, C, L) layout.

        Each channel is standardized per window; missing acceleration is
        replaced by zero channels so a PPG-only deployment still works.
        """
        ppg_windows = np.atleast_2d(np.asarray(ppg_windows, dtype=self._dtype))
        n, length = ppg_windows.shape
        if length != self.config.input_length:
            raise ValueError(
                f"{self.config.name} expects {self.config.input_length}-sample windows, got {length}"
            )
        channels = [standardize(ppg_windows, axis=-1)]
        n_accel_channels = self.config.input_channels - 1
        if n_accel_channels > 0:
            if accel_windows is None:
                channels.extend([np.zeros_like(ppg_windows)] * n_accel_channels)
            else:
                accel_windows = np.asarray(accel_windows, dtype=self._dtype)
                if accel_windows.ndim == 2:
                    accel_windows = accel_windows[None, ...]
                for axis in range(n_accel_channels):
                    channels.append(standardize(accel_windows[:, :, axis], axis=-1))
        return np.stack(channels, axis=1)

    # ----------------------------------------------------------- inference
    def freeze(self, dtype=None) -> "TimePPGPredictor":
        """Build the frozen inference network (batch norm folded into convs).

        Call after the weights are final (post-training, pre-deployment):
        :meth:`_forward` then runs the folded network through the GEMM
        inference lowering instead of the training-oriented layer stack.
        The fold snapshots the current weights — training afterwards
        requires calling :meth:`freeze` again (or :meth:`unfreeze`).  A
        quantized network (:attr:`quantized`) still takes precedence.

        ``dtype`` (e.g. ``"float32"``) builds a reduced-precision frozen
        network — fold in the source precision, cast once — and pins the
        input-preparation dtype to match, so the whole forward (im2col
        columns, GEMM, bias adds) runs in that dtype with no float64
        temporaries.  ``None`` keeps the training network's dtype.
        """
        self._frozen = fold_batchnorm(self.network, dtype=dtype)
        self._dtype = resolve_dtype(dtype, default=self.network.dtype)
        return self

    def set_inference_dtype(self, dtype) -> "TimePPGPredictor":
        """Pin the inference dtype (re-freezing the frozen net if needed).

        A frozen predictor re-folds at the new dtype; an unfrozen one is
        frozen on the spot when the requested dtype differs from the
        training network's (running reduced precision through the
        training stack would silently re-promote at every layer).

        ``"int8"`` is the deployment opt-in for the true integer engine:
        it requires a calibrated quantized network (:attr:`quantized`
        with an input spec) and routes :meth:`_forward` through
        :meth:`~repro.nn.quantization.QuantizedSequential.forward_integer`
        — int8 codes and integer accumulation end to end — instead of
        the fake-quantize float forward.  Any float dtype switches the
        integer path back off.
        """
        if isinstance(dtype, str) and dtype.lower() == "int8":
            if self.quantized is None or self.quantized.input_spec is None:
                raise RuntimeError(
                    f"{self.config.name}: int8 inference requires a calibrated "
                    "quantized network — assign `quantized` via "
                    "quantize_network(...) (with a calibration batch) first"
                )
            self._integer = True
            return self
        self._integer = False
        dtype = resolve_dtype(dtype)
        if self._frozen is not None or dtype != self.network.dtype:
            self.freeze(dtype=dtype)
        else:
            self._dtype = dtype
        return self

    def unfreeze(self) -> "TimePPGPredictor":
        """Drop the frozen inference network (back to the live weights)."""
        self._frozen = None
        return self

    # -------------------------------------------------------------- predict
    def _forward(self, batch: np.ndarray) -> np.ndarray:
        if self.quantized is not None:
            if self._integer:
                return self.quantized.forward_integer(batch)
            return self.quantized.forward(batch)
        if self._frozen is not None:
            return self._frozen.forward(batch, training=False)
        return self.network.forward(batch, training=False)

    def predict(  # hot-path
        self,
        ppg_windows: np.ndarray,
        accel_windows: np.ndarray | None = None,
        **context,
    ) -> np.ndarray:
        """Batched HR prediction (BPM) for a set of windows.

        The network runs one tile of :data:`~repro.nn.layers.TILE_WINDOWS`
        windows per forward, so every convolution is a single
        fixed-shape GEMM whose output stays channel-major from layer to
        layer; a short last chunk is zero-filled to a full tile.  On a
        2-core box (OpenBLAS 0.3.31), TimePPG-Big predicts 1,868 windows
        in ~0.76-0.79 s against ~0.97-1.05 s for the per-window GEMMs it
        replaced; a lone window pays for its whole tile (~5 ms against
        ~1 ms).  A zero-row batch is legal (zero-window subjects are
        legal fleet-wide) and yields a ``(0,)`` estimate array.
        """
        batch = self.prepare_input(ppg_windows, accel_windows)
        if batch.shape[0] == 0:
            return np.empty(0, dtype=self._dtype)
        outputs = []
        for start in range(0, batch.shape[0], TILE_WINDOWS):  # loop-ok: per tile of TILE_WINDOWS windows, not per element
            outputs.append(self._forward(batch[start:start + TILE_WINDOWS]))
        predictions = np.concatenate(outputs, axis=0).reshape(-1)
        return np.clip(predictions, 30.0, 220.0)

    def predict_window(
        self,
        ppg_window: np.ndarray,
        accel_window: np.ndarray | None = None,
        **context,
    ) -> float:
        accel = None if accel_window is None else np.asarray(accel_window)[None, ...]
        return float(self.predict(np.asarray(ppg_window)[None, :], accel)[0])

    # ---------------------------------------------------------------- fleet
    def predict_fleet(
        self,
        ppg_windows: np.ndarray,
        accel_windows: np.ndarray | None = None,
        subject_index: np.ndarray | None = None,
        state: FleetState | None = None,
        **context,
    ) -> np.ndarray:
        """Fused fleet prediction: one :meth:`predict` over the whole stack.

        The forward reads no per-run state and is row-bit-stable, so one
        batch over every subject's windows equals per-subject replay bit
        for bit, and ``state`` is left untouched.  The stack is still
        validated like every other fused call.
        """
        if subject_index is None or state is None:
            raise TypeError("predict_fleet requires subject_index and state")
        self._check_fleet_stack(np.shape(ppg_windows)[0], subject_index, state)
        return self.predict(ppg_windows, accel_windows)
