"""Common heart-rate predictor interface.

Every model in the zoo — classical, neural, or calibrated — implements the
same small API so that the CHRIS runtime, the profiler and the evaluation
harness can treat them interchangeably:

* :meth:`HeartRatePredictor.predict_window` — HR estimate (BPM) for one
  window;
* :meth:`HeartRatePredictor.predict` — vectorized batch prediction;
* :meth:`HeartRatePredictor.predict_fleet` — fused multi-subject batch
  prediction with stacked per-subject temporal state (:class:`FleetState`);
* :attr:`HeartRatePredictor.info` — static metadata (name, parameter and
  operation counts) used by the hardware model to derive per-prediction
  energy.

Stacked-state fleet prediction
------------------------------
The fleet engine stacks all subjects' windows into one array per model.
Stateless predictors (``FLEET_BATCHABLE = True``) simply run one big
batch; *stateful* predictors (anything whose predictions read
``_last_estimate``-style per-run temporal state) cannot fuse naively,
because sequential replay resets that state at every subject boundary.
:meth:`~HeartRatePredictor.predict_fleet` solves this with **stacked
state vectors**: a :class:`FleetState` carries one state slot per
subject, the fused call receives a ``subject_index`` vector naming the
slot of every window, and the per-subject reset boundaries of sequential
replay become fresh slots instead of serialization points.  Vectorized
implementations step all subjects' streams in lock-step (one vector
operation per stream position, see :class:`FleetStack`); the base-class
reference implementation replays one subject at a time and is
bit-identical by construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np


@dataclass
class FleetState:
    """Stacked per-subject temporal state for fused fleet prediction.

    One slot per fleet subject.  A slot holds the state
    :meth:`HeartRatePredictor.reset` would clear — today the last valid
    estimate, with ``NaN`` encoding "no estimate yet" (the scalar path's
    ``None``).  Slots are independent: re-initializing one (``free``)
    is exactly the per-subject ``reset()`` boundary of sequential
    replay, which is how dynamically arriving sessions get a fresh slot
    and retired sessions release theirs.
    """

    last_estimate: np.ndarray

    def __post_init__(self) -> None:
        self.last_estimate = np.asarray(self.last_estimate, dtype=float)
        if self.last_estimate.ndim != 1:
            raise ValueError(
                f"last_estimate must be 1-D (one slot per subject), "
                f"got shape {self.last_estimate.shape}"
            )

    @classmethod
    def for_slots(cls, n_slots: int) -> "FleetState":
        """Fresh state for ``n_slots`` subjects (every slot at reset state)."""
        if n_slots < 0:
            raise ValueError(f"n_slots must be >= 0, got {n_slots}")
        return cls(last_estimate=np.full(n_slots, np.nan))

    @property
    def n_slots(self) -> int:
        """Number of subject slots."""
        return int(self.last_estimate.shape[0])

    def free(self, slots) -> None:
        """Re-initialize the given slots (a retired/finished session's reset)."""
        self.last_estimate[np.asarray(slots, dtype=np.intp)] = np.nan

    # ----------------------------------------------- streaming continuations
    def take_slots(self, slots) -> "FleetState":
        """Gather ``slots`` into a batch-local sub-state (slot ``i`` = ``slots[i]``).

        The streaming scheduler keeps one long-lived state per model whose
        slots are stable stream ids, but a dispatched batch orders its
        windows by *arrival* (the order every predictor's random stream
        consumes), so the stream ids of a batch are an arbitrary — not
        necessarily monotone — subset.  ``take_slots`` bridges the two
        layouts: the returned sub-state's slots are batch positions
        ``0..len(slots)-1`` (monotone, as :meth:`HeartRatePredictor.predict_fleet`
        requires of ``subject_index``); after the fused call,
        :meth:`restore_slots` scatters the advanced per-slot values back so
        the next batch continues exactly where this one stopped.  Works
        field-wise over the dataclass, so subclasses carrying extra
        per-slot arrays (leading slot axis) inherit both helpers.
        """
        slots = np.asarray(slots, dtype=np.intp)
        if np.unique(slots).size != slots.size:
            raise ValueError("take_slots requires unique slots (one stream per slot)")
        return type(self)(
            **{
                f.name: getattr(self, f.name)[slots].copy()
                for f in dataclasses.fields(self)
            }
        )

    def restore_slots(self, slots, sub_state: "FleetState") -> None:
        """Scatter a :meth:`take_slots` sub-state back into the given slots."""
        slots = np.asarray(slots, dtype=np.intp)
        if sub_state.n_slots != slots.size:
            raise ValueError(
                f"sub-state has {sub_state.n_slots} slots, expected {slots.size}"
            )
        for f in dataclasses.fields(self):
            getattr(self, f.name)[slots] = getattr(sub_state, f.name)


class FleetStack:
    """Dense lock-step view of a subject-major flat window stream.

    Vectorized :meth:`HeartRatePredictor.predict_fleet` implementations
    carry a recurrence along each subject's stream.  This helper
    scatters flat per-window values (ordered subject-major, i.e. grouped
    by non-decreasing ``subject_index`` with recording order inside each
    group) into a dense ``(n_slots, max_len)`` matrix whose **rows are
    ordered by descending stream length**, so the slots still active at
    stream position ``t`` are always the prefix rows ``[:widths[t]]`` —
    the recurrence then advances all active subjects with one slice
    operation per step instead of one Python iteration per window.
    """

    def __init__(self, subject_index: np.ndarray, n_slots: int) -> None:
        subject_index = np.asarray(subject_index, dtype=np.intp)
        if subject_index.ndim != 1:
            raise ValueError(
                f"subject_index must be 1-D, got shape {subject_index.shape}"
            )
        n = subject_index.shape[0]
        counts = np.bincount(subject_index, minlength=n_slots) if n else np.zeros(
            n_slots, dtype=int
        )
        #: Slot id of each dense row (rows sorted by descending stream
        #: length; ties keep slot order, so the layout is deterministic).
        self.order = np.argsort(-counts, kind="stable")
        self.n_slots = int(n_slots)
        self.max_len = int(counts.max()) if n_slots else 0
        row_of_slot = np.empty(n_slots, dtype=np.intp)
        row_of_slot[self.order] = np.arange(n_slots)
        #: Dense row of each flat window.
        self.rows = row_of_slot[subject_index]
        if n:
            boundaries = np.flatnonzero(np.diff(subject_index) != 0) + 1
            seg_starts = np.concatenate([[0], boundaries])
            seg_lengths = np.diff(np.concatenate([seg_starts, [n]]))
            #: Stream position of each flat window within its subject.
            self.pos = np.arange(n) - np.repeat(seg_starts, seg_lengths)
        else:
            self.pos = np.zeros(0, dtype=np.intp)
        #: ``widths[t]``: how many dense prefix rows are active at step ``t``.
        counts_desc = counts[self.order]
        self.widths = np.searchsorted(
            -counts_desc, -np.arange(self.max_len), side="left"
        )

    @property
    def uniform(self) -> bool:
        """Whether every step is full-width (all streams equally long).

        True when the flat stream covers each of the ``n_slots`` slots
        with the same number of windows — the lock-step recurrences then
        skip all per-step width bookkeeping and run on whole rows.
        """
        return bool(self.max_len == 0 or (self.widths == self.n_slots).all())

    def stack(self, values: np.ndarray, fill: float = np.nan) -> np.ndarray:
        """Scatter flat per-window values into the dense (row, step) matrix."""
        dense = np.full((self.n_slots, self.max_len), fill, dtype=float)
        dense[self.rows, self.pos] = values
        return dense

    def unstack(self, dense: np.ndarray) -> np.ndarray:
        """Gather the flat per-window values back out of a dense matrix."""
        return dense[self.rows, self.pos]

    @property
    def contiguous_uniform(self) -> bool:
        """Whether the flat stream is exactly ``slot 0..n-1 × max_len`` windows.

        The common fleet layout — every slot present with equally long
        streams, subject-major — where dense stacking degenerates to a
        reshape+transpose instead of a fancy-index scatter.
        """
        return bool(
            self.max_len
            and self.rows.size == self.n_slots * self.max_len
            and self.uniform
        )

    def stack_steps(self, values: np.ndarray, fill: float = np.nan) -> np.ndarray:
        """Scatter into the transposed ``(max_len, n_slots)`` layout.

        Step-major: row ``t`` holds every active slot's value at stream
        position ``t`` *contiguously*, which is the access pattern of
        the lock-step recurrences (one row per step).
        """
        values = np.asarray(values, dtype=float)
        if self.contiguous_uniform:
            return np.ascontiguousarray(
                values.reshape(self.n_slots, self.max_len).T
            )
        dense = np.full((self.max_len, self.n_slots), fill, dtype=float)
        dense[self.pos, self.rows] = values
        return dense

    def unstack_steps(self, dense: np.ndarray) -> np.ndarray:
        """Gather flat per-window values out of a step-major matrix."""
        if self.contiguous_uniform:
            return dense.T.ravel()
        return dense[self.pos, self.rows]

    def gather_slots(self, per_slot: np.ndarray) -> np.ndarray:
        """Reorder a per-slot vector into dense row order (a copy)."""
        return np.asarray(per_slot)[self.order]

    def scatter_slots(self, per_row: np.ndarray, out: np.ndarray) -> None:
        """Write a dense-row-ordered vector back into per-slot order."""
        out[self.order] = per_row


@dataclass(frozen=True)
class PredictorInfo:
    """Static metadata describing an HR predictor.

    Attributes
    ----------
    name:
        Human-readable model name (e.g. ``"TimePPG-Small"``).
    n_parameters:
        Number of trainable parameters (0 for classical algorithms).
    macs_per_window:
        Multiply-accumulate (or elementary-operation) count per prediction,
        the quantity Table III calls "operations".
    uses_accelerometer:
        Whether the model consumes the accelerometer channels in addition
        to PPG.
    """

    name: str
    n_parameters: int
    macs_per_window: int
    uses_accelerometer: bool = False


class HeartRatePredictor:
    """Base class for all HR predictors."""

    #: Default prediction (BPM) returned when an estimate cannot be formed
    #: (e.g. no peaks found); chosen as a typical adult resting HR.
    FALLBACK_BPM = 70.0

    #: Whether the predictor actually reads the PPG/accelerometer windows.
    #: Calibrated stand-ins that only consume the context (ground-truth HR
    #: and activity) set this to ``False``, which lets the batched runtime
    #: skip materializing per-group copies of the large signal arrays.
    REQUIRES_SIGNALS: bool = True

    #: Whether :meth:`predict` reads the accelerometer windows.  Models
    #: that track HR from PPG alone set this to ``False`` (and must then
    #: report ``info.uses_accelerometer == False``); the batched runtime
    #: then passes ``accel_windows=None`` instead of gathering their
    #: windows' acceleration.  A class attribute, because :attr:`info`
    #: recounts the model's operations on every read.
    READS_ACCELEROMETER: bool = True

    #: Whether back-to-back runs can be fused into one batched
    #: :meth:`predict` call.  ``True`` requires that :meth:`reset` does not
    #: influence predictions (no per-run temporal state is consumed by
    #: :meth:`predict`) and that the batch lowering is row-bit-stable (a
    #: window's prediction does not depend on which windows share its
    #: batch), so concatenating two subjects' window streams is
    #: bit-identical to two sequential runs.  Stateful trackers (anything
    #: reading ``_last_estimate`` or similar) must keep this ``False``; the
    #: fleet engine then dispatches them through stacked-state
    #: :meth:`predict_fleet` instead.
    FLEET_BATCHABLE: bool = False

    def __init__(self, fs: float = 32.0) -> None:
        if fs <= 0:
            raise ValueError(f"fs must be positive, got {fs}")
        self.fs = fs
        self._last_estimate: float | None = None

    # ------------------------------------------------------------------ API
    @property
    def info(self) -> PredictorInfo:
        """Static metadata of this predictor."""
        raise NotImplementedError

    def predict_window(
        self,
        ppg_window: np.ndarray,
        accel_window: np.ndarray | None = None,
        **context,
    ) -> float:
        """Heart-rate estimate in BPM for one window.

        ``context`` carries optional side information (the calibrated
        model uses the ground-truth HR and activity); real models ignore
        it.
        """
        raise NotImplementedError

    def predict(
        self,
        ppg_windows: np.ndarray,
        accel_windows: np.ndarray | None = None,
        **context,
    ) -> np.ndarray:
        """Vectorized prediction over ``(n_windows, ...)`` batches.

        The default implementation loops over :meth:`predict_window`;
        subclasses with a cheaper batched path override it.
        """
        ppg_windows = np.asarray(ppg_windows, dtype=float)
        n = ppg_windows.shape[0]
        out = np.empty(n)
        for i in range(n):
            accel = None if accel_windows is None else accel_windows[i]
            window_context = {
                key: (value[i] if self._per_window_context(value, n) else value)
                for key, value in context.items()
            }
            out[i] = self.predict_window(ppg_windows[i], accel, **window_context)
        return out

    @staticmethod
    def _per_window_context(value, n: int) -> bool:
        """Whether a context payload carries one entry per batch window.

        Per-window payloads are sliced along axis 0 when the batch is
        distributed to :meth:`predict_window` calls or subject segments.
        A payload qualifies when its leading axis matches the batch
        length — except single-window batches, where only 1-D payloads
        are per-window: a multi-dimensional ``(1, k)`` payload is a
        whole object that must reach the predictor intact, not be
        silently reduced to its first row.
        """
        return (
            isinstance(value, np.ndarray)
            and value.ndim >= 1
            and value.shape[0] == n
            and (n != 1 or value.ndim == 1)
        )

    # ------------------------------------------------------ fleet prediction
    def make_fleet_state(self, n_slots: int) -> FleetState:
        """Fresh stacked state for a fused fleet call over ``n_slots`` subjects.

        Predictors with richer per-run state than the last valid
        estimate override this to return a :class:`FleetState` subclass
        carrying their extra slots.
        """
        return FleetState.for_slots(n_slots)

    def _check_fleet_stack(
        self, n_windows: int, subject_index, state: FleetState
    ) -> np.ndarray:
        """Validate a fused fleet call's slot vector; returns it as ``intp``.

        The stream must be *subject-major*: slots non-decreasing, every
        window of a subject contiguous and in recording order — exactly
        the order in which sequential replay feeds the predictor, which
        is what makes fused calls (including the random-stream consumers)
        bit-identical to per-subject replay.
        """
        subject_index = np.asarray(subject_index)
        if subject_index.ndim != 1 or subject_index.shape[0] != n_windows:
            raise ValueError(
                f"subject_index must be 1-D with one entry per window "
                f"({n_windows}), got shape {subject_index.shape}"
            )
        if n_windows:
            if not np.issubdtype(subject_index.dtype, np.integer):
                raise ValueError(
                    f"subject_index must be integer, got dtype {subject_index.dtype}"
                )
            if np.any(np.diff(subject_index) < 0):
                raise ValueError(
                    "subject_index must be non-decreasing (subject-major order)"
                )
            if int(subject_index[0]) < 0 or int(subject_index[-1]) >= state.n_slots:
                raise ValueError(
                    f"subject_index values must lie in [0, {state.n_slots}), "
                    f"got range [{int(subject_index[0])}, {int(subject_index[-1])}]"
                )
        return subject_index.astype(np.intp, copy=False)

    def predict_fleet(
        self,
        ppg_windows: np.ndarray,
        accel_windows: np.ndarray | None = None,
        subject_index: np.ndarray | None = None,
        state: FleetState | None = None,
        **context,
    ) -> np.ndarray:
        """Fused prediction over many subjects' stacked window streams.

        ``subject_index`` names the :class:`FleetState` slot of every
        window (subject-major order, see :meth:`_check_fleet_stack`);
        each slot evolves exactly like a private predictor replaying
        that subject alone, so one fused call is bit-identical to
        per-subject sequential replay.  Slots persist across calls:
        feeding a subject's next windows with the same slot continues
        its stream, and a fresh (or :meth:`FleetState.free`-d) slot is
        the per-subject ``reset()`` boundary.  The predictor's own
        per-run state is left reset — the temporal state lives in
        ``state``, not in the instance.

        The reference implementation replays one slot at a time through
        :meth:`predict`; stateful subclasses override it with vectorized
        lock-step versions (see :class:`FleetStack`).
        """
        if subject_index is None or state is None:
            raise TypeError("predict_fleet requires subject_index and state")
        ppg_windows = np.asarray(ppg_windows)
        n = ppg_windows.shape[0]
        subject_index = self._check_fleet_stack(n, subject_index, state)
        out = np.empty(n, dtype=float)
        if n == 0:
            return out
        boundaries = np.flatnonzero(np.diff(subject_index) != 0) + 1
        starts = np.concatenate([[0], boundaries])
        stops = np.concatenate([boundaries, [n]])
        for start, stop in zip(starts, stops):
            slot = int(subject_index[start])
            self.reset()
            seed = float(state.last_estimate[slot])
            if not np.isnan(seed):
                self._last_estimate = seed
            segment_context = {
                key: (value[start:stop] if self._per_window_context(value, n) else value)
                for key, value in context.items()
            }
            accel = None if accel_windows is None else accel_windows[start:stop]
            out[start:stop] = self.predict(
                ppg_windows[start:stop], accel, **segment_context
            )
            state.last_estimate[slot] = (
                np.nan if self._last_estimate is None else self._last_estimate
            )
        self.reset()
        return out

    # -------------------------------------------------------------- helpers
    def _with_fallback(self, bpm: float) -> float:
        """Replace NaN estimates with the last valid estimate (or default)."""
        if np.isnan(bpm):
            return self._last_estimate if self._last_estimate is not None else self.FALLBACK_BPM
        self._last_estimate = float(bpm)
        return float(bpm)

    def _with_fallback_fleet(  # hot-path
        self, bpm: np.ndarray, subject_index: np.ndarray, state: FleetState
    ) -> np.ndarray:
        """Vectorized per-slot :meth:`_with_fallback` over a stacked stream.

        ``bpm`` holds raw per-window estimates in subject-major order
        (NaN where no estimate could be formed).  Each slot's NaNs are
        replaced by the last valid estimate of *that* subject's stream
        (seeded from ``state``), or :attr:`FALLBACK_BPM` when none
        exists yet; ``state.last_estimate`` is updated to each slot's
        final valid estimate.  Exactly the scalar helper applied window
        by window — values pass through untouched, so the fused result
        is bit-identical.
        """
        bpm = np.asarray(bpm, dtype=float)
        if bpm.size == 0:
            return bpm.copy()
        stack = FleetStack(subject_index, state.n_slots)
        dense = np.full((stack.n_slots, stack.max_len + 1), np.nan)
        dense[:, 0] = stack.gather_slots(state.last_estimate)
        dense[stack.rows, stack.pos + 1] = bpm
        # Per-row forward fill: index of the last valid column at or
        # before each position, then gather.
        valid = ~np.isnan(dense)
        idx = np.where(valid, np.arange(stack.max_len + 1), 0)
        np.maximum.accumulate(idx, axis=1, out=idx)
        filled = np.take_along_axis(dense, idx, axis=1)
        stack.scatter_slots(filled[:, -1], state.last_estimate)
        out = filled[stack.rows, stack.pos + 1]
        # A NaN survives only where a slot has no valid estimate at all
        # (and no seed); like the scalar helper, report the default
        # without recording it as a last estimate.
        return np.where(np.isnan(out), self.FALLBACK_BPM, out)

    def reset(self) -> None:
        """Forget temporal state (the last valid estimate)."""
        self._last_estimate = None

    def set_inference_dtype(self, dtype) -> "HeartRatePredictor":
        """Pin the floating dtype the predictor computes in.

        Called by :class:`~repro.core.runtime.CHRISRuntime` when it is
        constructed with a non-default ``dtype`` (e.g. ``"float32"``) so
        signal-reading predictors coerce their inputs once and keep the
        whole forward in that precision.  The base implementation is a
        no-op — predictors that never touch the signal arrays (the
        calibrated stand-ins) are dtype-agnostic; subclasses with real
        compute (AT, TimePPG) override it.  Returns ``self``.
        """
        return self

    def advance_fleet_state(self, n_windows: int) -> None:
        """Fast-forward cross-run state past ``n_windows`` foreign windows.

        A fleet shard that starts mid-population must put every predictor
        in the exact state sequential replay would have reached after the
        preceding subjects' windows.  Per-run temporal state is cleared by
        :meth:`reset` at the start of every run, so for most predictors
        nothing persists and resetting is sufficient; predictors with
        cross-run state (the calibrated models' random streams) override
        this to consume exactly one state step per window.
        """
        if n_windows < 0:
            raise ValueError(f"n_windows must be >= 0, got {n_windows}")
        self.reset()

    def fleet_state_signature(self):
        """Comparable token of the *cross-run* state (what survives :meth:`reset`).

        Two predictors with equal signatures produce identical prediction
        streams from the next run onward.  The fleet scheduler's
        equivalence tests use this to check that
        :meth:`advance_fleet_state` lands on exactly the state ``n``
        executed predictions would have reached.  Predictors whose only
        temporal state is per-run (cleared by :meth:`reset`) have no
        cross-run state and return ``None``; predictors with cross-run
        state (the calibrated models' random streams) override this.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.info.name})"
