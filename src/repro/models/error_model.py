"""Calibrated per-activity error models.

The CHRIS design-space exploration (Figs. 4 and 5 of the paper, and the
headline energy-reduction factors) depends only on two per-model
quantities: the energy per prediction on each device, and the MAE
*conditioned on the activity being performed*.  The energy side is
anchored to the paper's Table III by :mod:`repro.hw.profiles`; this module
anchors the accuracy side.

Because the real PPG-DaLiA recordings are not available offline, the
benchmark harness uses **calibrated error models**: for each HR predictor
a per-difficulty-level MAE profile is defined such that

* the average over the nine (equally represented) activities equals the
  overall MAE the paper reports for that model on PPG-DaLiA
  (AT 10.99, TimePPG-Small 5.60, TimePPG-Big 4.87 BPM), and
* the error grows with the activity difficulty, much more steeply for the
  classical AT algorithm than for the deep models — the qualitative
  behaviour that makes the paper's hybrid configurations (cheap model on
  easy windows, accurate model offloaded for hard windows) Pareto-optimal.

A :class:`CalibratedHRModel` samples a Laplace-distributed error with the
profile's per-activity MAE around the ground-truth HR, so any quantity the
CHRIS profiler computes from its predictions (per-configuration MAE,
Pareto fronts, constraint selections) reproduces the paper's shape.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.data.activities import Activity, difficulties_of, difficulty_of
from repro.models.base import FleetStack, FleetState, HeartRatePredictor, PredictorInfo

#: Per-difficulty-level MAE profiles (index 0 = difficulty 1 … index 8 =
#: difficulty 9), in BPM.  Each profile averages exactly to the overall
#: MAE reported in the paper's Table III under the uniform activity
#: distribution of PPG-DaLiA.
PAPER_ACTIVITY_MAE_PROFILES: dict[str, tuple[float, ...]] = {
    # Classical peak tracking is never better than the deep models (so the
    # all-TimePPG-Big configuration stays Pareto-optimal, as in the paper's
    # Fig. 4) but collapses under heavy motion artifacts.
    "AT": (3.0, 3.4, 3.8, 4.6, 6.2, 9.0, 12.0, 13.0, 43.9),           # mean 10.99
    # The deep models degrade gracefully with motion.
    "TimePPG-Small": (3.2, 3.6, 4.0, 4.6, 5.2, 5.8, 6.6, 7.8, 9.6),   # mean 5.60
    "TimePPG-Big": (2.9, 3.2, 3.5, 4.0, 4.5, 5.0, 5.7, 6.7, 8.3),     # mean 4.867
}

#: Overall MAE on PPG-DaLiA reported by the paper (Table III).
PAPER_OVERALL_MAE: dict[str, float] = {
    "AT": 10.99,
    "TimePPG-Small": 5.60,
    "TimePPG-Big": 4.87,
}


@dataclass(frozen=True)
class ErrorProfile:
    """Per-difficulty MAE profile of one model."""

    model_name: str
    mae_per_difficulty: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.mae_per_difficulty) != 9:
            raise ValueError(
                f"profile must have 9 difficulty levels, got {len(self.mae_per_difficulty)}"
            )
        if any(v <= 0 for v in self.mae_per_difficulty):
            raise ValueError("per-difficulty MAE values must be positive")

    @property
    def overall_mae(self) -> float:
        """MAE under the uniform activity distribution of PPG-DaLiA."""
        return float(np.mean(self.mae_per_difficulty))

    def mae_for_difficulty(self, level: int) -> float:
        """MAE (BPM) at difficulty level ``level`` (1–9)."""
        if not 1 <= level <= 9:
            raise ValueError(f"difficulty level must be in [1, 9], got {level}")
        return self.mae_per_difficulty[level - 1]

    def mae_for_activity(self, activity: Activity | int) -> float:
        """MAE (BPM) for a specific activity."""
        return self.mae_for_difficulty(difficulty_of(activity))

    def expected_mae(self, easy_threshold: int | None = None, easy: bool | None = None) -> float:
        """Expected MAE over a subset of difficulty levels.

        With ``easy_threshold`` set and ``easy=True`` the average is taken
        over levels ``<= easy_threshold``; with ``easy=False`` over levels
        ``> easy_threshold``; otherwise over all levels.
        """
        levels = np.arange(1, 10)
        if easy_threshold is not None:
            if easy is None:
                raise ValueError("easy must be given together with easy_threshold")
            levels = levels[levels <= easy_threshold] if easy else levels[levels > easy_threshold]
        if levels.size == 0:
            return float("nan")
        return float(np.mean([self.mae_for_difficulty(int(l)) for l in levels]))


class CalibratedHRModel(HeartRatePredictor):
    """Predictor that reproduces a model's per-activity accuracy statistically.

    The model needs the ground-truth HR and activity of each window (passed
    through the ``context`` keyword arguments of the predictor API, which
    the profiler provides); its prediction is the ground truth plus a
    Laplace-distributed error whose expected absolute value equals the
    profile's MAE for that activity.

    Parameters
    ----------
    profile:
        Per-difficulty error profile.
    reference:
        Predictor whose static metadata (parameters, operation count)
        should be mirrored, so the hardware model treats the calibrated
        stand-in exactly like the real model; optional.
    seed:
        Seed of the error generator (predictions are reproducible).
    """

    REQUIRES_SIGNALS = False
    #: Predictions never read the per-run state ``reset()`` clears (the
    #: Laplace stream continues across runs), so whole fleets of subjects
    #: can be fused into one ``predict`` call per model.
    FLEET_BATCHABLE = True

    def __init__(
        self,
        profile: ErrorProfile,
        reference_info: PredictorInfo | None = None,
        fs: float = 32.0,
        seed: int = 0,
    ) -> None:
        super().__init__(fs=fs)
        self.profile = profile
        self._info = reference_info or PredictorInfo(
            name=profile.model_name, n_parameters=0, macs_per_window=0
        )
        self._rng = np.random.default_rng(seed)
        self._mae_by_difficulty = np.asarray(profile.mae_per_difficulty, dtype=float)

    @property
    def info(self) -> PredictorInfo:
        return self._info

    def predict_window(
        self,
        ppg_window: np.ndarray,
        accel_window: np.ndarray | None = None,
        **context,
    ) -> float:
        if "true_hr" not in context or "activity" not in context:
            raise ValueError(
                "CalibratedHRModel requires 'true_hr' and 'activity' context entries"
            )
        true_hr = float(context["true_hr"])
        activity = Activity(int(context["activity"]))
        mae = self.profile.mae_for_activity(activity)
        # For a Laplace(0, b) error, E|err| = b, so using b = MAE makes the
        # long-run mean absolute error equal the calibrated value.
        error = self._rng.laplace(0.0, mae)
        return float(np.clip(true_hr + error, 30.0, 220.0))

    def predict(
        self,
        ppg_windows: np.ndarray,
        accel_windows: np.ndarray | None = None,
        **context,
    ) -> np.ndarray:
        """Vectorized batch prediction.

        One Laplace draw per window, scaled by the per-window MAE.  NumPy
        consumes the generator's bitstream in element order, so a batch
        call produces bit-identical predictions to the equivalent sequence
        of :meth:`predict_window` calls — the property the batched CHRIS
        runtime relies on for exact equivalence with the per-window path.
        """
        if "true_hr" not in context or "activity" not in context:
            raise ValueError(
                "CalibratedHRModel requires 'true_hr' and 'activity' context entries"
            )
        n = np.asarray(ppg_windows).shape[0]
        true_hr = np.broadcast_to(
            np.asarray(context["true_hr"], dtype=float), (n,)
        )
        activity = np.broadcast_to(np.asarray(context["activity"], dtype=int), (n,))
        mae = self._mae_by_difficulty[difficulties_of(activity) - 1]
        errors = self._rng.laplace(0.0, mae)
        return np.clip(true_hr + errors, 30.0, 220.0)

    def predict_fleet(
        self,
        ppg_windows: np.ndarray,
        accel_windows: np.ndarray | None = None,
        subject_index: np.ndarray | None = None,
        state: FleetState | None = None,
        **context,
    ) -> np.ndarray:
        """Fused multi-subject prediction: one Laplace batch for the stack.

        Predictions read no per-subject temporal state, so the stacked
        call is a single :meth:`predict`; the subject-major window order
        guarantees the generator's bitstream is consumed exactly as
        per-subject sequential replay would.
        """
        if subject_index is None or state is None:
            raise TypeError("predict_fleet requires subject_index and state")
        n = np.asarray(ppg_windows).shape[0]
        self._check_fleet_stack(n, subject_index, state)
        return self.predict(ppg_windows, accel_windows, **context)

    def advance_fleet_state(self, n_windows: int) -> None:
        """Consume exactly the random variates ``n_windows`` predictions would.

        ``random_laplace`` draws one uniform per variate regardless of the
        scale parameter, so drawing ``n_windows`` unit-scale variates
        advances the generator bit-exactly as the skipped predictions
        would have — the property fleet shards rely on to start from the
        same stream position as sequential replay.
        """
        super().advance_fleet_state(n_windows)
        if n_windows:
            self._rng.laplace(0.0, 1.0, size=n_windows)

    def fleet_state_signature(self):
        """The generator's bit-stream position (the only cross-run state)."""
        return self._rng.bit_generator.state


class SmoothedCalibratedHRModel(CalibratedHRModel):
    """Calibrated error model with a temporal smoothing tracker (stateful).

    On top of the parent's per-activity Laplace error, every estimate is
    exponentially smoothed toward the previous one — the first-order
    tracking filter classical HR pipelines run on-device.  Reading
    ``_last_estimate`` makes predictions depend on per-run temporal
    state, so the model is **not** fleet-batchable: sequential replay's
    per-subject ``reset()`` boundaries matter.  It is the workhorse of
    the stacked-state fleet benchmarks — a zoo of these exercises the
    :meth:`predict_fleet` lock-step path end to end.

    Parameters
    ----------
    profile, reference_info, fs, seed:
        As in :class:`CalibratedHRModel`.
    smoothing:
        Weight of the previous estimate in ``[0, 1)``; 0 disables the
        tracker (but keeps the stateful dispatch).
    """

    #: The smoothing recurrence is replayed bit-identically by the
    #: stacked fleet path.
    FLEET_BATCHABLE = False

    def __init__(
        self,
        profile: ErrorProfile,
        reference_info: PredictorInfo | None = None,
        fs: float = 32.0,
        seed: int = 0,
        smoothing: float = 0.5,
    ) -> None:
        super().__init__(profile=profile, reference_info=reference_info, fs=fs, seed=seed)
        if not 0.0 <= smoothing < 1.0:
            raise ValueError(f"smoothing must lie in [0, 1), got {smoothing}")
        self.smoothing = smoothing

    @classmethod
    def from_calibrated(
        cls, model: CalibratedHRModel, smoothing: float = 0.5
    ) -> "SmoothedCalibratedHRModel":
        """A smoothed twin of ``model`` continuing its exact random stream."""
        smoothed = cls(
            profile=model.profile,
            reference_info=model.info,
            fs=model.fs,
            smoothing=smoothing,
        )
        smoothed._rng = copy.deepcopy(model._rng)
        return smoothed

    def predict_window(
        self,
        ppg_window: np.ndarray,
        accel_window: np.ndarray | None = None,
        **context,
    ) -> float:
        raw = CalibratedHRModel.predict_window(self, ppg_window, accel_window, **context)
        if self._last_estimate is not None:
            raw = self.smoothing * self._last_estimate + (1.0 - self.smoothing) * raw
        return self._with_fallback(raw)

    def predict(
        self,
        ppg_windows: np.ndarray,
        accel_windows: np.ndarray | None = None,
        **context,
    ) -> np.ndarray:
        """Per-subject batch: vectorized error draws, sequential smoothing scan.

        The Laplace errors are drawn in one vectorized call (same
        bitstream as per-window draws); the smoothing recurrence is
        inherently sequential along one subject's stream, so it scans in
        Python — the per-subject cost the stacked fleet path amortizes.
        """
        raw = CalibratedHRModel.predict(self, ppg_windows, accel_windows, **context)
        out = np.empty(raw.shape[0])
        last = self._last_estimate
        s = self.smoothing
        c = 1.0 - s
        for i in range(raw.shape[0]):
            r = float(raw[i])
            if last is not None:
                r = s * last + c * r
            last = r
            out[i] = r
        if out.shape[0]:
            self._last_estimate = last
        return out

    def predict_fleet(  # hot-path
        self,
        ppg_windows: np.ndarray,
        accel_windows: np.ndarray | None = None,
        subject_index: np.ndarray | None = None,
        state: FleetState | None = None,
        **context,
    ) -> np.ndarray:
        """Stacked-state fused prediction: lock-step smoothing across slots.

        One vectorized error draw for the whole stack (subject-major
        order keeps the bitstream identical to per-subject replay), then
        the smoothing recurrence advances **all** subjects one stream
        position per step — ``max_len`` vector operations instead of one
        Python iteration per window.
        """
        if subject_index is None or state is None:
            raise TypeError("predict_fleet requires subject_index and state")
        raw = CalibratedHRModel.predict(self, ppg_windows, accel_windows, **context)
        subject_index = self._check_fleet_stack(raw.shape[0], subject_index, state)
        if raw.size == 0:
            return raw
        stack = FleetStack(subject_index, state.n_slots)
        dense = stack.stack_steps(raw)
        out = np.empty_like(dense)
        est = stack.gather_slots(state.last_estimate)
        s = self.smoothing
        # The innovation term is state-free: pre-scale every window in
        # one vectorized pass, leaving two in-place ufuncs per step.
        # ``(1.0 - s) * raw`` matches the scalar path's ``c * r`` exactly.
        scaled = (1.0 - s) * dense
        # Step 0 is the only step where a slot can lack a previous
        # estimate (each participating slot's first window sits at
        # stream position 0); later steps always smooth.
        with np.errstate(invalid="ignore"):
            out[0] = np.where(np.isnan(est), dense[0], s * est + scaled[0])
        if stack.uniform:
            # Full-width streams: each row smooths the previous one
            # in place — no per-step width bookkeeping.
            for t in range(1, dense.shape[0]):  # loop-ok: lock-step over stream positions, vectorized across slots
                row = out[t]
                np.multiply(out[t - 1], s, out=row)
                np.add(row, scaled[t], out=row)
            est = out[-1].copy() if dense.shape[0] else est
        else:
            est[: stack.widths[0]] = out[0, : stack.widths[0]]
            for t in range(1, dense.shape[0]):  # loop-ok: lock-step over stream positions, vectorized across slots
                k = int(stack.widths[t])
                e = est[:k]
                np.multiply(e, s, out=e)
                np.add(e, scaled[t, :k], out=e)
                out[t, :k] = e
        stack.scatter_slots(est, state.last_estimate)
        self.reset()
        return stack.unstack_steps(out)


def calibrated_model_zoo(seed: int = 0) -> dict[str, CalibratedHRModel]:
    """The three paper models as calibrated error models, keyed by name."""
    from repro.models.adaptive_threshold import AT_OPERATIONS_PER_WINDOW

    infos = {
        "AT": PredictorInfo("AT", 0, AT_OPERATIONS_PER_WINDOW, uses_accelerometer=False),
        "TimePPG-Small": PredictorInfo("TimePPG-Small", 5_090, 77_630, uses_accelerometer=True),
        "TimePPG-Big": PredictorInfo("TimePPG-Big", 232_600, 12_270_000, uses_accelerometer=True),
    }
    zoo = {}
    for offset, (name, profile_values) in enumerate(PAPER_ACTIVITY_MAE_PROFILES.items()):
        profile = ErrorProfile(model_name=name, mae_per_difficulty=profile_values)
        zoo[name] = CalibratedHRModel(
            profile=profile, reference_info=infos[name], seed=seed + offset
        )
    return zoo


def smoothed_calibrated_zoo(
    seed: int = 0, smoothing: float = 0.5
) -> dict[str, SmoothedCalibratedHRModel]:
    """The three paper models as *stateful* smoothed error models.

    A stateful-heavy twin of :func:`calibrated_model_zoo` (same profiles,
    same random streams, ``FLEET_BATCHABLE = False``), used to exercise
    and benchmark the stacked-state fleet dispatch.
    """
    return {
        name: SmoothedCalibratedHRModel.from_calibrated(model, smoothing=smoothing)
        for name, model in calibrated_model_zoo(seed=seed).items()
    }
