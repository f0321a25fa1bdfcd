"""CHRIS runtime simulator (vectorized fleet execution engine).

The runtime plays windowed recordings through the full CHRIS loop: the
decision engine selects a configuration from the stored table according to
the user constraint and the BLE connection status, then for every window
the activity recognizer predicts a difficulty level, the configuration
routes the window to one of its two models (watch or phone), the selected
predictor produces the HR estimate, and the hardware co-model charges the
corresponding energy.  The result mirrors what the paper measures on the
real system: per-window decisions, overall MAE, per-prediction smartwatch
energy, and offload statistics.

Execution model
---------------
Every run — one recording or a whole fleet — takes the same path,
:meth:`CHRISRuntime._plan_fleet` → :meth:`CHRISRuntime._run_many_planned`
→ :meth:`CHRISRuntime._execute_fleet`; :meth:`CHRISRuntime.run`,
:meth:`~CHRISRuntime.run_with_configuration` and
:meth:`~CHRISRuntime.run_with_connection_trace` are one-subject fleet
runs.

1. **Plan** — difficulty prediction, configuration (re-)selection and
   per-window model routing are computed up front as NumPy arrays.  The
   difficulty detector runs once over every subject's windows and its
   labels are sliced back per subject; selection and routing then run
   per subject (so per-subject difficulty streams, connection traces and
   configuration segments are preserved).  Routing maps each
   difficulty level through a per-``(configuration, connection status)``
   lookup table.  A traced subject's plan is built segment-wise: the
   feasible configuration set changes with the BLE status, so the engine
   re-selects exactly at each connection-status change and phone targets
   degrade to the watch while disconnected.
2. **Execute** — all subjects' windows are stacked into per-model groups
   across the whole population and **one** fused call per model is
   dispatched for the entire fleet.  How that call looks depends on the
   predictor:

   * ``FLEET_BATCHABLE = True`` — predictions read no per-run temporal
     state and a window's prediction does not depend on its batch, so the
     fused call is a plain batch
     :meth:`~repro.models.base.HeartRatePredictor.predict` over the stack.
   * ``FLEET_BATCHABLE = False`` (stateful trackers, anything consuming
     ``_last_estimate``-style state) — the fused call is **stacked-state**
     :meth:`~repro.models.base.HeartRatePredictor.predict_fleet`: a
     :class:`~repro.models.base.FleetState` carries one state slot per
     subject, a ``subject_index`` vector names each window's slot, and
     the per-subject ``reset()`` boundaries of sequential replay become
     fresh state slots instead of serialization points.

   Within each group windows are subject-major in recording order, so
   every predictor (trackers, calibrated error models with a private
   random stream) sees exactly the inputs, in exactly the order, that
   one-subject-at-a-time replay feeds it.  Per-window costs come from a
   ``(hardware revision, model, target)`` lookup table filled through
   :meth:`repro.hw.platform.WearableSystem.cached_prediction_cost`.

A fleet run is therefore decision-for-decision identical to a loop of
per-subject :meth:`~CHRISRuntime.run` calls, and a run is identical to
the per-window reference (one ``predict_window`` per window), which the
tests and :func:`repro.eval.benchmarking.benchmark_runtime` reach through
:meth:`CHRISRuntime._run_scalar_oracle`.

Results are stored as a struct-of-arrays :class:`RunResult`; the familiar
:class:`WindowDecision` objects are materialized lazily on first access to
:attr:`RunResult.decisions`.  :meth:`CHRISRuntime.run_many` aggregates a
fleet into a :class:`FleetResult`.  Multi-process sharding on top of
this lives in :mod:`repro.core.fleet`; dynamically arriving/leaving
sessions in :mod:`repro.core.scheduler`.  Zero-window subjects are legal
in every entry point except :meth:`~CHRISRuntime.run_with_configuration`
and contribute an empty result.

Equivalence contract
--------------------
There is one contract: every fused path — ``run_many``,
:class:`~repro.core.fleet.FleetExecutor` shards and
:class:`~repro.core.scheduler.FleetScheduler` batches — is
**bit-identical** to sequential replay at the runtime's dtype.  Fusing
a stateless predictor across subjects is sound because its batch
lowering is row-bit-stable: the TimePPG TCNs run every inference
forward of :mod:`repro.nn.layers` one GEMM per window and one
vector-matrix product per dense row, so a window's prediction does not
depend on the windows batched with it.  The property suite
(``tests/core/test_fleet_properties.py``) pins the contract across
worker counts, arrivals, retirements and both dtypes, with a real TCN
whose predictions are not clipped.

The inference dtype selects the reference, not the contract: a
``CHRISRuntime(dtype="float32")`` runs the whole signal hot path in
single precision and is bit-identical to sequential float32 replay.
Comparisons *across* numerics — float32 against float64, a folded
network against its unfolded evaluation forward — are bounded by the
per-dtype :data:`EQUIVALENCE_TOLERANCES`.

Heterogeneous hardware
----------------------
A fleet does not have to run on one hardware build: every multi-subject
entry point accepts ``systems``, a per-subject-id mapping to the
:class:`~repro.hw.platform.WearableSystem` that subject's device runs
(subjects absent from the mapping use the runtime's default system).
Difficulty prediction and model routing are hardware-independent; per
subject, the connection status of *its* system gates configuration
selection, and the cost table has a hardware-revision axis so each
``(deployment, target)`` pair is looked up once per revision through the
shared :class:`~repro.hw.platform.CostTableRegistry`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.configuration import NUM_DIFFICULTY_LEVELS, ProfiledConfiguration
from repro.core.decision_engine import Constraint, DecisionEngine
from repro.core.zoo import ModelsZoo
from repro.data.dataset import WindowedSubject
from repro.dtypes import resolve_dtype
from repro.hw.platform import PredictionCost, WearableSystem
from repro.hw.profiles import ExecutionTarget
from repro.ml.activity_classifier import ActivityClassifier
from repro.models.base import FleetState


#: Absolute tolerance (BPM) of a float64 comparison across numerics
#: (a folded network against its unfolded evaluation forward): the only
#: legal difference is floating-point reassociation, ~1e-12 BPM on the
#: [30, 220] BPM range.  The bound leaves six orders of magnitude of
#: headroom while still catching any real divergence (a different
#: routing or a state leak shifts predictions by whole BPM).
EQUIVALENCE_ATOL = 1e-6

#: Relative tolerance companion of :data:`EQUIVALENCE_ATOL`.
EQUIVALENCE_RTOL = 1e-9

#: Per-dtype ``(atol, rtol)`` of comparisons across numerics.  Fused
#: paths never need them — they are bit-identical to sequential replay
#: at their own dtype.
#:
#: * ``"float64"`` — :data:`EQUIVALENCE_ATOL` / :data:`EQUIVALENCE_RTOL`.
#: * ``"float32"`` — a float32 forward against the float64 reference
#:   re-rounds every intermediate to 24-bit significands; ``atol=1e-3``
#:   BPM bounds that while still flagging any real divergence, which
#:   shifts predictions by whole BPM.
EQUIVALENCE_TOLERANCES: dict[str, tuple[float, float]] = {
    "float64": (EQUIVALENCE_ATOL, EQUIVALENCE_RTOL),
    "float32": (1e-3, 1e-5),
}


@dataclass(frozen=True)
class WindowDecision:
    """The outcome of processing one window."""

    window_index: int
    predicted_difficulty: int
    true_difficulty: int
    model_name: str
    target: ExecutionTarget
    predicted_hr: float
    true_hr: float
    cost: PredictionCost

    @property
    def absolute_error(self) -> float:
        """Absolute HR error (BPM) of this prediction."""
        return abs(self.predicted_hr - self.true_hr)

    @property
    def offloaded(self) -> bool:
        """Whether the window was processed on the phone."""
        return self.target is ExecutionTarget.PHONE


def _empty_float() -> np.ndarray:
    return np.empty(0, dtype=float)


def _empty_int() -> np.ndarray:
    return np.empty(0, dtype=int)


#: RunResult per-window array fields, in declaration order; also the order
#: in which :func:`_cost_values` unpacks a :class:`PredictionCost`.
_COST_FIELDS = (
    "watch_compute_j",
    "watch_radio_j",
    "watch_idle_j",
    "phone_compute_j",
    "latency_s",
)


def _cost_values(cost: PredictionCost) -> tuple[float, ...]:
    """The cost components in :data:`_COST_FIELDS` order."""
    return tuple(getattr(cost, name) for name in _COST_FIELDS)


#: RunResult per-window fields stored as plain (non-object) arrays by the
#: npz round-trip; ``model_names`` is object-dtyped and handled separately
#: (stored as fixed-width unicode so the dump needs no pickled arrays).
_NPZ_ARRAY_FIELDS = (
    "window_index",
    "predicted_difficulty",
    "true_difficulty",
    "offloaded",
    "predicted_hr",
    "true_hr",
    *_COST_FIELDS,
)


def _check_fleet_inputs(
    subjects: Iterable[WindowedSubject],
    traces: Mapping[str, np.ndarray],
    systems: Mapping[str, WearableSystem],
) -> None:
    """Validate a fleet before anything executes.

    Raises like :meth:`FleetResult.add` would on the first duplicate
    subject id, and ``KeyError`` for traces or systems of subjects not
    in the fleet.
    """
    seen: set[str] = set()
    for subject in subjects:
        if subject.subject_id in seen:
            raise ValueError(f"subject {subject.subject_id!r} already recorded")
        seen.add(subject.subject_id)
    for what, keyed in (("connection traces", traces), ("systems", systems)):
        unknown = sorted(set(keyed) - seen)
        if unknown:
            raise KeyError(f"{what} for unknown subjects: {unknown}")


@dataclass(eq=False)
class RunResult:
    """Aggregate outcome of a CHRIS run over a recording.

    The per-window data lives in parallel NumPy arrays (one entry per
    window, in recording order); every aggregate metric is computed
    vectorized from them.  :attr:`decisions` materializes the classic
    :class:`WindowDecision` view lazily for callers that want per-window
    objects.
    """

    configuration: ProfiledConfiguration
    window_index: np.ndarray = field(default_factory=_empty_int)
    predicted_difficulty: np.ndarray = field(default_factory=_empty_int)
    true_difficulty: np.ndarray = field(default_factory=_empty_int)
    model_names: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=object))
    offloaded: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    predicted_hr: np.ndarray = field(default_factory=_empty_float)
    true_hr: np.ndarray = field(default_factory=_empty_float)
    watch_compute_j: np.ndarray = field(default_factory=_empty_float)
    watch_radio_j: np.ndarray = field(default_factory=_empty_float)
    watch_idle_j: np.ndarray = field(default_factory=_empty_float)
    phone_compute_j: np.ndarray = field(default_factory=_empty_float)
    latency_s: np.ndarray = field(default_factory=_empty_float)
    #: ``(start_window_index, configuration)`` for every stretch of windows
    #: processed under one configuration; a single entry for plain runs,
    #: one entry per connection-status change for traced runs.
    configuration_segments: list[tuple[int, ProfiledConfiguration]] = field(default_factory=list)
    _decisions: tuple[WindowDecision, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __eq__(self, other: object) -> bool:
        # The dataclass-generated __eq__ would raise on array fields; keep
        # the value semantics the list-based representation had.
        if not isinstance(other, RunResult):
            return NotImplemented
        if (
            self.configuration != other.configuration
            or self.configuration_segments != other.configuration_segments
        ):
            return False
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in (
                "window_index",
                "predicted_difficulty",
                "true_difficulty",
                "model_names",
                "offloaded",
                "predicted_hr",
                "true_hr",
                *_COST_FIELDS,
            )
        )

    # ------------------------------------------------------------ lazy view
    @property
    def decisions(self) -> tuple[WindowDecision, ...]:
        """Per-window decisions, materialized lazily from the arrays."""
        if self._decisions is None:
            self._decisions = tuple(
                WindowDecision(
                    window_index=int(self.window_index[i]),
                    predicted_difficulty=int(self.predicted_difficulty[i]),
                    true_difficulty=int(self.true_difficulty[i]),
                    model_name=str(self.model_names[i]),
                    target=ExecutionTarget.PHONE if self.offloaded[i] else ExecutionTarget.WATCH,
                    predicted_hr=float(self.predicted_hr[i]),
                    true_hr=float(self.true_hr[i]),
                    cost=PredictionCost(
                        model_name=str(self.model_names[i]),
                        target=ExecutionTarget.PHONE
                        if self.offloaded[i]
                        else ExecutionTarget.WATCH,
                        watch_compute_j=float(self.watch_compute_j[i]),
                        watch_radio_j=float(self.watch_radio_j[i]),
                        watch_idle_j=float(self.watch_idle_j[i]),
                        phone_compute_j=float(self.phone_compute_j[i]),
                        latency_s=float(self.latency_s[i]),
                    ),
                )
                for i in range(self.n_windows)
            )
        return self._decisions

    @classmethod
    def from_decisions(
        cls,
        configuration: ProfiledConfiguration,
        decisions: Sequence[WindowDecision],
        configuration_segments: list[tuple[int, ProfiledConfiguration]] | None = None,
    ) -> "RunResult":
        """Build a result from per-window decision objects (compat helper)."""
        return cls(
            configuration=configuration,
            window_index=np.array([d.window_index for d in decisions], dtype=int),
            predicted_difficulty=np.array([d.predicted_difficulty for d in decisions], dtype=int),
            true_difficulty=np.array([d.true_difficulty for d in decisions], dtype=int),
            model_names=np.array([d.model_name for d in decisions], dtype=object),
            offloaded=np.array([d.offloaded for d in decisions], dtype=bool),
            predicted_hr=np.array([d.predicted_hr for d in decisions], dtype=float),
            true_hr=np.array([d.true_hr for d in decisions], dtype=float),
            watch_compute_j=np.array([d.cost.watch_compute_j for d in decisions], dtype=float),
            watch_radio_j=np.array([d.cost.watch_radio_j for d in decisions], dtype=float),
            watch_idle_j=np.array([d.cost.watch_idle_j for d in decisions], dtype=float),
            phone_compute_j=np.array([d.cost.phone_compute_j for d in decisions], dtype=float),
            latency_s=np.array([d.cost.latency_s for d in decisions], dtype=float),
            configuration_segments=list(configuration_segments or []),
        )

    # ---------------------------------------------------------- persistence
    def to_npz(self, file: "str | IO[bytes]") -> None:
        """Dump the struct-of-arrays representation to an ``.npz`` archive.

        The per-window arrays are stored verbatim (bit-identical on
        reload); ``model_names`` becomes fixed-width unicode so no array
        in the archive needs pickling; the configuration objects (the
        selected configuration plus the per-segment ones) travel as one
        pickled blob in a ``uint8`` array.  ``file`` may be a path or a
        binary file object.  The lazy :attr:`decisions` cache is *not*
        serialized — a reloaded result materializes decisions on demand
        exactly like a freshly executed one.
        """
        payload: dict[str, np.ndarray] = {
            name: getattr(self, name) for name in _NPZ_ARRAY_FIELDS
        }
        payload["model_names"] = self.model_names.astype(str)
        payload["segment_starts"] = np.array(
            [start for start, _ in self.configuration_segments], dtype=np.int64
        )
        blob = pickle.dumps(
            (self.configuration, [cfg for _, cfg in self.configuration_segments]),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        payload["configurations"] = np.frombuffer(blob, dtype=np.uint8)
        np.savez(file, **payload)

    @classmethod
    def from_npz(cls, file: "str | IO[bytes]") -> "RunResult":
        """Rebuild a result dumped by :meth:`to_npz` (bit-identical)."""
        with np.load(file, allow_pickle=False) as data:
            configuration, segment_configs = pickle.loads(
                data["configurations"].tobytes()
            )
            segments = [
                (int(start), cfg)
                for start, cfg in zip(data["segment_starts"], segment_configs)
            ]
            return cls(
                configuration=configuration,
                model_names=data["model_names"].astype(object),
                configuration_segments=segments,
                **{name: data[name] for name in _NPZ_ARRAY_FIELDS},
            )

    # ------------------------------------------------------------ aggregates
    @property
    def n_windows(self) -> int:
        """Number of processed windows."""
        return int(self.window_index.shape[0])

    @property
    def absolute_errors(self) -> np.ndarray:
        """Per-window absolute HR error (BPM)."""
        return np.abs(self.predicted_hr - self.true_hr)

    @property
    def watch_total_j_per_window(self) -> np.ndarray:
        """Per-window total smartwatch energy (J)."""
        return self.watch_compute_j + self.watch_radio_j + self.watch_idle_j

    @property
    def mae_bpm(self) -> float:
        """Mean absolute HR error over the run."""
        if self.n_windows == 0:
            return float("nan")
        return float(np.mean(self.absolute_errors))

    @property
    def mean_watch_energy_j(self) -> float:
        """Average smartwatch energy per prediction (J)."""
        if self.n_windows == 0:
            return float("nan")
        return float(np.mean(self.watch_total_j_per_window))

    @property
    def mean_watch_energy_mj(self) -> float:
        """Average smartwatch energy per prediction (mJ)."""
        return self.mean_watch_energy_j * 1e3

    @property
    def mean_phone_energy_j(self) -> float:
        """Average phone energy per prediction (J)."""
        if self.n_windows == 0:
            return float("nan")
        return float(np.mean(self.phone_compute_j))

    @property
    def total_watch_energy_j(self) -> float:
        """Total smartwatch energy over the run (J)."""
        return float(np.sum(self.watch_total_j_per_window))

    @property
    def offload_fraction(self) -> float:
        """Fraction of windows processed on the phone."""
        if self.n_windows == 0:
            return 0.0
        return float(np.mean(self.offloaded))

    @property
    def mean_latency_s(self) -> float:
        """Average end-to-end prediction latency (s)."""
        if self.n_windows == 0:
            return float("nan")
        return float(np.mean(self.latency_s))

    def per_model_counts(self) -> dict[str, int]:
        """Number of windows handled by each model."""
        names, counts = np.unique(self.model_names.astype(str), return_counts=True)
        return {str(name): int(count) for name, count in zip(names, counts)}

    def summary(self) -> str:
        """Compact one-paragraph report of the run."""
        counts = ", ".join(f"{k}: {v}" for k, v in sorted(self.per_model_counts().items()))
        return (
            f"configuration {self.configuration.label()}: "
            f"MAE {self.mae_bpm:.2f} BPM, "
            f"watch energy {self.mean_watch_energy_mj:.3f} mJ/prediction, "
            f"{100 * self.offload_fraction:.1f}% offloaded over {self.n_windows} windows "
            f"({counts})"
        )


@dataclass
class FleetResult:
    """Aggregate outcome of replaying many subjects (a device fleet).

    Produced by :meth:`CHRISRuntime.run_many`; aggregates are weighted by
    each subject's window count, so they equal the metrics of one long
    concatenated run.

    Fault-tolerant paths (:class:`repro.core.fleet.FleetExecutor` with
    retries) may *quarantine* subjects whose shard kept failing: those
    appear in :attr:`failed` (subject id -> error description) instead of
    :attr:`results`, and every aggregate is computed over the successful
    subjects only.
    """

    results: dict[str, RunResult] = field(default_factory=dict)
    #: Quarantined subjects: id -> error description of the failure that
    #: exhausted the shard's retries.  Empty on non-fault-tolerant paths.
    failed: dict[str, str] = field(default_factory=dict)

    def add(self, subject_id: str, result: RunResult) -> None:
        """Record one subject's run."""
        if subject_id in self.results or subject_id in self.failed:
            raise ValueError(f"subject {subject_id!r} already recorded")
        self.results[subject_id] = result

    def add_failure(self, subject_id: str, error: str) -> None:
        """Record a subject quarantined after its shard exhausted retries."""
        if subject_id in self.results or subject_id in self.failed:
            raise ValueError(f"subject {subject_id!r} already recorded")
        self.failed[subject_id] = error

    @property
    def subject_ids(self) -> list[str]:
        """Replayed subjects, in insertion order."""
        return list(self.results)

    @property
    def n_subjects(self) -> int:
        """Number of replayed subjects."""
        return len(self.results)

    @property
    def n_failed(self) -> int:
        """Number of quarantined subjects."""
        return len(self.failed)

    @property
    def failed_subject_ids(self) -> list[str]:
        """Quarantined subjects, in insertion order."""
        return list(self.failed)

    @property
    def n_windows(self) -> int:
        """Total windows across the fleet."""
        return int(sum(r.n_windows for r in self.results.values()))

    def _weighted_mean(self, values: Iterable[float]) -> float:
        total_windows = self.n_windows
        if total_windows == 0:
            return float("nan")
        # Zero-window subjects carry a NaN metric with zero weight; they
        # must drop out instead of poisoning the aggregate (NaN * 0 is
        # NaN, not 0).
        weighted = sum(
            v * r.n_windows
            for v, r in zip(values, self.results.values())
            if r.n_windows
        )
        return float(weighted / total_windows)

    @property
    def mae_bpm(self) -> float:
        """Window-weighted MAE over all subjects."""
        return self._weighted_mean(r.mae_bpm for r in self.results.values())

    @property
    def mean_watch_energy_j(self) -> float:
        """Window-weighted smartwatch energy per prediction (J)."""
        return self._weighted_mean(r.mean_watch_energy_j for r in self.results.values())

    @property
    def offload_fraction(self) -> float:
        """Window-weighted fraction of offloaded windows."""
        return self._weighted_mean(r.offload_fraction for r in self.results.values())

    def mae_per_subject(self) -> dict[str, float]:
        """MAE of every subject's run."""
        return {sid: r.mae_bpm for sid, r in self.results.items()}

    def summary(self) -> str:
        """One line per subject plus the fleet aggregate."""
        lines = [f"{sid}: {r.summary()}" for sid, r in self.results.items()]
        lines.extend(f"{sid}: FAILED ({error})" for sid, error in self.failed.items())
        tail = f", {self.n_failed} quarantined" if self.failed else ""
        lines.append(
            f"fleet: MAE {self.mae_bpm:.2f} BPM, "
            f"watch energy {self.mean_watch_energy_j * 1e3:.3f} mJ/prediction, "
            f"{100 * self.offload_fraction:.1f}% offloaded over "
            f"{self.n_windows} windows from {self.n_subjects} subjects{tail}"
        )
        return "\n".join(lines)


@dataclass
class _ExecutionPlan:
    """Per-window routing computed up front, before any model executes.

    Models are referenced by their index in the zoo's name order
    (``model_codes``) so grouping and mask operations run on small
    integers instead of string arrays.
    """

    configuration: ProfiledConfiguration
    difficulties: np.ndarray
    model_codes: np.ndarray
    offloaded: np.ndarray
    segments: list[tuple[int, ProfiledConfiguration]]


class CHRISRuntime:
    """End-to-end CHRIS execution over windowed recordings.

    Parameters
    ----------
    zoo, engine, system, activity_classifier:
        The CHRIS building blocks (hardware co-model and difficulty
        detector are optional).
    dtype:
        Floating dtype of the inference hot path (``"float64"`` default,
        or ``"float32"``).  Float32 re-freezes every TimePPG in the zoo
        to single-precision folded weights and pins the AT kernels to
        float32 inputs, so the fleet path runs with zero float64
        temporaries on the signal arrays; ``predicted_hr`` is reported in
        this dtype.  Routing, energy costs and ``true_hr`` stay float64 —
        they never depend on signal precision.  The per-window oracle
        computes and reports at this dtype too.
        Constructing a non-float64 runtime re-pins the (shared) zoo's
        predictors in place; when comparing dtypes side by side, build
        each runtime over its own zoo instance.
    """

    def __init__(
        self,
        zoo: ModelsZoo,
        engine: DecisionEngine,
        system: WearableSystem | None = None,
        activity_classifier: ActivityClassifier | None = None,
        dtype: str | np.dtype = "float64",
    ) -> None:
        self.dtype = resolve_dtype(dtype)
        self.zoo = zoo
        self.engine = engine
        self.system = system or WearableSystem()
        self.activity_classifier = activity_classifier
        if self.dtype != np.dtype("float64"):
            # Re-pin every predictor's compute dtype (float64 runtimes
            # leave the zoo untouched for back-compat bit-exactness).
            for entry in self.zoo:
                entry.predictor.set_inference_dtype(self.dtype)

    # ------------------------------------------------------------ difficulty
    def _fleet_difficulties(
        self, subjects: Sequence[WindowedSubject], use_oracle: bool
    ) -> list[np.ndarray]:
        """Per-subject difficulty arrays, from one classifier call for the fleet.

        Every non-empty subject's accelerometer windows go through one
        :meth:`~repro.ml.activity_classifier.ActivityClassifier.predict_difficulty`
        call, and the labels are sliced back by window offsets.  Feature
        extraction and the forest are per row, so a window's label does not
        depend on the windows batched with it.  Oracle planning (or no
        classifier) reads each subject's ground-truth difficulty.  The
        result is returned, not stored: the scheduler's dispatcher plans on
        another thread than its worker executes on.
        """
        if use_oracle or self.activity_classifier is None:
            return [subject.difficulty for subject in subjects]
        predicted = [subject for subject in subjects if subject.n_windows]
        if not predicted:
            return [subject.difficulty for subject in subjects]
        labels = self.activity_classifier.predict_difficulty(
            np.concatenate([subject.accel_windows for subject in predicted])
        )
        offsets = np.cumsum([subject.n_windows for subject in predicted])[:-1]
        by_subject = iter(np.split(labels, offsets))
        return [
            next(by_subject) if subject.n_windows else subject.difficulty
            for subject in subjects
        ]

    # -------------------------------------------------------------- planning
    def _reset_predictors(self) -> None:
        """Clear temporal predictor state so runs never leak across subjects."""
        for entry in self.zoo:
            entry.predictor.reset()

    def _model_code(self, name: str) -> int:
        """Index of a model in the zoo's registration order."""
        return self.zoo.names.index(name)

    def _fleet_router(self):
        """The routing function every plan maps its difficulties through.

        Routing is a pure function of ``(configuration, connection
        status)`` per difficulty level, so the router resolves all nine
        levels once per key into a lookup table and maps every further
        difficulty array through it, without re-querying the engine per
        subject.  Phone targets degrade to the watch when the link is
        down.
        """
        lut_cache: dict[tuple[int, bool], tuple[np.ndarray, np.ndarray]] = {}

        def route(
            configuration: ProfiledConfiguration,
            difficulties: np.ndarray,
            connected: bool,
        ) -> tuple[np.ndarray, np.ndarray]:
            key = (id(configuration), connected)
            lut = lut_cache.get(key)
            if lut is None:
                codes = np.zeros(NUM_DIFFICULTY_LEVELS + 1, dtype=np.intp)
                offloaded = np.zeros(NUM_DIFFICULTY_LEVELS + 1, dtype=bool)
                for level in range(1, NUM_DIFFICULTY_LEVELS + 1):
                    name, target = self.engine.select_model(configuration, level)
                    if target is ExecutionTarget.PHONE and not connected:
                        target = ExecutionTarget.WATCH
                    codes[level] = self._model_code(name)
                    offloaded[level] = target is ExecutionTarget.PHONE
                lut = (codes, offloaded)
                lut_cache[key] = lut
            codes, offloaded = lut
            return codes[difficulties], offloaded[difficulties]

        return route

    def _plan_plain(
        self,
        configuration: ProfiledConfiguration,
        difficulties: np.ndarray,
        route,
        connected: bool | None = None,
    ) -> _ExecutionPlan:
        """Routing plan for one recording's difficulties under a fixed configuration.

        ``connected`` overrides the default system's current BLE status —
        heterogeneous fleets route each subject against the status of its
        own hardware.
        """
        if connected is None:
            connected = self.system.connected
        model_codes, offloaded = route(configuration, difficulties, connected=connected)
        return _ExecutionPlan(
            configuration=configuration,
            difficulties=difficulties,
            model_codes=model_codes,
            offloaded=offloaded,
            segments=[(0, configuration)],
        )

    def _plan_configured(
        self,
        windows: WindowedSubject,
        configuration: ProfiledConfiguration,
        use_oracle_difficulty: bool,
        connected: bool | None = None,
    ) -> _ExecutionPlan:
        """One recording's plan under an explicit configuration."""
        (difficulties,) = self._fleet_difficulties([windows], use_oracle_difficulty)
        return self._plan_plain(
            configuration, difficulties, self._fleet_router(), connected=connected
        )

    def _plan_traced(
        self,
        configuration_for: Callable[[bool], ProfiledConfiguration],
        connected: np.ndarray,
        difficulties: np.ndarray,
        route,
    ) -> _ExecutionPlan:
        """Segment-wise routing plan for a recording with a BLE trace.

        The engine re-selects the operating configuration at every
        connection-status change, through the plan's per-status
        ``configuration_for`` cache; the resulting plan carries one
        configuration segment per change and the configuration active at
        the *end* of the run.  ``connected`` has been validated to one
        entry per window (``difficulties`` has one too), and the
        recording has at least one.
        """
        n = difficulties.shape[0]
        model_codes = np.zeros(n, dtype=np.intp)
        offloaded = np.zeros(n, dtype=bool)
        segments: list[tuple[int, ProfiledConfiguration]] = []

        starts = np.concatenate([[0], np.flatnonzero(np.diff(connected)) + 1])
        ends = np.concatenate([starts[1:], [n]])
        for start, end in zip(starts, ends):
            status = bool(connected[start])
            configuration = configuration_for(status)
            segments.append((int(start), configuration))
            codes, off = route(configuration, difficulties[start:end], connected=status)
            model_codes[start:end] = codes
            offloaded[start:end] = off

        return _ExecutionPlan(
            configuration=segments[-1][1],
            difficulties=difficulties,
            model_codes=model_codes,
            offloaded=offloaded,
            segments=segments,
        )

    # ------------------------------------------------------------- execution
    def _run_result(
        self,
        subject: WindowedSubject,
        plan: _ExecutionPlan,
        names: np.ndarray,
        predicted_hr: np.ndarray,
        costs: Iterable[np.ndarray],
    ) -> RunResult:
        """One subject's result from its plan and its executed arrays."""
        return RunResult(
            configuration=plan.configuration,
            window_index=np.arange(subject.n_windows, dtype=int),
            predicted_difficulty=plan.difficulties.astype(int),
            true_difficulty=subject.difficulty.astype(int),
            model_names=names[plan.model_codes],
            offloaded=plan.offloaded,
            predicted_hr=predicted_hr,
            true_hr=np.asarray(subject.hr, dtype=float).copy(),
            configuration_segments=plan.segments,
            **dict(zip(_COST_FIELDS, costs)),
        )

    def _execute_scalar(
        self, windows: WindowedSubject, plan: _ExecutionPlan
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Reference per-window path: one ``predict_window`` call per window."""
        n = windows.n_windows
        entries = [self.zoo.entry(name) for name in self.zoo.names]
        predicted_hr = np.empty(n, dtype=self.dtype)
        cost_arrays = tuple(np.empty(n, dtype=float) for _ in _COST_FIELDS)
        for i in range(n):
            entry = entries[plan.model_codes[i]]
            predicted_hr[i] = float(
                entry.predictor.predict_window(
                    windows.ppg_windows[i],
                    windows.accel_windows[i],
                    true_hr=float(windows.hr[i]),
                    activity=int(windows.activity[i]),
                )
            )
            if plan.offloaded[i]:
                cost = self.system.offloaded_cost(entry.deployment)
            else:
                cost = self.system.local_prediction_cost(entry.deployment)
            for array, value in zip(cost_arrays, _cost_values(cost)):
                array[i] = value
        return predicted_hr, cost_arrays

    def _run_scalar_oracle(
        self, windows: WindowedSubject, plan: _ExecutionPlan
    ) -> RunResult:
        """Execute one planned recording window by window (the oracle).

        The per-window reference the fleet path is pinned against: one
        ``predict_window`` call and one uncached cost computation per
        window, through :meth:`_execute_scalar`.  It is not an execution
        mode of the runtime; the tests and
        :func:`repro.eval.benchmarking.benchmark_runtime` call it with a
        plan from :meth:`_plan_fleet` (or :meth:`_plan_configured` for an
        explicit configuration).
        """
        self._reset_predictors()
        predicted_hr, costs = self._execute_scalar(windows, plan)
        names = np.array(self.zoo.names, dtype=object)
        return self._run_result(windows, plan, names, predicted_hr, costs)

    # ----------------------------------------------------------------- run
    def run(
        self,
        windows: WindowedSubject,
        constraint: Constraint,
        use_oracle_difficulty: bool = False,
        system: WearableSystem | None = None,
    ) -> RunResult:
        """Process a windowed recording under a user constraint.

        The configuration is selected once at the start of the run from
        the current connection status (as the paper does: re-selection
        only happens when the constraint or the connection changes).
        ``system`` overrides the runtime's default hardware for this run
        (heterogeneous fleets pass each subject's own device).  This is a
        one-subject :meth:`run_many`.
        """
        return self._run_one(windows, constraint, use_oracle_difficulty, None, system)

    def run_with_configuration(
        self,
        windows: WindowedSubject,
        configuration: ProfiledConfiguration,
        use_oracle_difficulty: bool = False,
        system: WearableSystem | None = None,
    ) -> RunResult:
        """Process a recording with an explicitly chosen configuration.

        Phone-mapped windows degrade to local execution when the BLE link
        is currently down (the configuration itself would be re-selected
        at the next decision point).  A recording without windows is
        rejected.
        """
        if windows.n_windows == 0:
            raise ValueError("the recording contains no windows")
        system = system if system is not None else self.system
        plan = self._plan_configured(
            windows, configuration, use_oracle_difficulty, connected=system.connected
        )
        fleet = self._run_many_planned(
            [windows], [plan], systems={windows.subject_id: system}
        )
        return fleet.results[windows.subject_id]

    def run_with_connection_trace(
        self,
        windows: WindowedSubject,
        constraint: Constraint,
        connected: np.ndarray,
        use_oracle_difficulty: bool = False,
        system: WearableSystem | None = None,
    ) -> RunResult:
        """Process a recording while the BLE connection comes and goes.

        ``connected`` is a boolean array with one entry per window.  The
        decision engine re-selects the operating configuration every time
        the connection status changes (the behaviour Sec. III-B describes:
        the connection status restricts the feasible set), so the run may
        switch between hybrid and local-only configurations mid-stream;
        the switch points are recorded in
        :attr:`RunResult.configuration_segments`.  The returned
        :class:`RunResult` carries the configuration active at the *end*
        of the run; per-window decisions record what actually executed.
        """
        return self._run_one(
            windows, constraint, use_oracle_difficulty, connected, system
        )

    def _run_one(
        self,
        windows: WindowedSubject,
        constraint: Constraint,
        use_oracle_difficulty: bool,
        connected: np.ndarray | None,
        system: WearableSystem | None,
    ) -> RunResult:
        """The one-subject :meth:`run_many` behind :meth:`run` and the trace run."""
        sid = windows.subject_id
        fleet = self.run_many(
            [windows],
            constraint,
            use_oracle_difficulty=use_oracle_difficulty,
            connected_traces=None if connected is None else {sid: connected},
            systems=None if system is None else {sid: system},
        )
        return fleet.results[sid]

    # ------------------------------------------------------------- run_many
    def run_many(
        self,
        subjects: Iterable[WindowedSubject],
        constraint: Constraint,
        use_oracle_difficulty: bool = False,
        connected_traces: Mapping[str, np.ndarray] | None = None,
        systems: Mapping[str, WearableSystem] | None = None,
    ) -> FleetResult:
        """Replay a fleet of subjects under one constraint.

        Every subject is planned individually, the whole population
        executes in one fused call per model, and the fleet arrays are
        split back into per-subject :class:`RunResult` views (see the
        module docstring).  The result is decision-for-decision identical
        to a loop of per-subject :meth:`run` calls in the given order:
        predictor state is reset before every subject, while cross-run
        streams (the calibrated models' random streams) advance across
        the fleet.  Zero-window subjects contribute an empty result.

        Parameters
        ----------
        subjects, constraint, use_oracle_difficulty:
            As in :meth:`run`.
        connected_traces:
            Optional per-subject BLE traces keyed by subject id; traced
            subjects are planned like :meth:`run_with_connection_trace`
            (segment re-selection), the others with their system's current
            connection status.
        systems:
            Optional per-subject hardware keyed by subject id — one fleet
            run can mix device revisions.  Subjects absent from the
            mapping run on the runtime's default system.
        """
        subjects = list(subjects)
        traces = dict(connected_traces or {})
        systems = dict(systems or {})
        _check_fleet_inputs(subjects, traces, systems)
        if not subjects:
            return FleetResult()
        plans = self._plan_fleet(
            subjects, constraint, use_oracle_difficulty, traces, systems=systems
        )
        return self._run_many_planned(subjects, plans, systems=systems)

    # --------------------------------------------------------- fleet planning
    def _plan_fleet(
        self,
        subjects: Sequence[WindowedSubject],
        constraint: Constraint,
        use_oracle_difficulty: bool,
        traces: Mapping[str, np.ndarray],
        systems: Mapping[str, WearableSystem] | None = None,
    ) -> list[_ExecutionPlan]:
        """One execution plan per subject, in fleet order.

        Subjects and trace segments on the same connection status share
        one configuration: selection is a deterministic function of
        ``(constraint, connection status)``, so selecting once per status
        is decision-identical to selecting per subject or per segment.  With per-subject
        ``systems`` the status is each subject's own hardware's.  A
        zero-window subject plans to nothing, under the configuration its
        current status selects.  Difficulty comes from one detector pass
        over the whole fleet (:meth:`_fleet_difficulties`).  Planning never
        touches predictor state.
        """
        systems = systems or {}
        route = self._fleet_router()
        configuration_by_status: dict[bool, ProfiledConfiguration] = {}

        def configuration_for(status: bool) -> ProfiledConfiguration:
            if status not in configuration_by_status:
                configuration_by_status[status] = self.engine.select_or_closest(
                    constraint, connected=status
                )
            return configuration_by_status[status]

        difficulties = self._fleet_difficulties(subjects, use_oracle_difficulty)
        plans = []
        for subject, subject_difficulties in zip(subjects, difficulties):
            trace = traces.get(subject.subject_id)
            if trace is not None:
                trace = np.asarray(trace, dtype=bool)
                if trace.shape != (subject.n_windows,):
                    raise ValueError(
                        f"connected must have one entry per window "
                        f"({subject.n_windows}), got shape {trace.shape}"
                    )
            if trace is not None and subject.n_windows:
                plans.append(
                    self._plan_traced(configuration_for, trace, subject_difficulties, route)
                )
            else:
                status = bool(
                    systems.get(subject.subject_id, self.system).connected
                )
                plans.append(
                    self._plan_plain(
                        configuration_for(status),
                        subject_difficulties,
                        route,
                        connected=status,
                    )
                )
        return plans

    def model_window_counts(self, plans: "Sequence[_ExecutionPlan]") -> list[dict[str, int]]:
        """Planned window count of every zoo model, one dict per plan.

        Cross-run predictor state advances per routed window, so these
        counts are what :meth:`~repro.models.base.HeartRatePredictor.advance_fleet_state`
        consumes — the fleet executor accumulates them to fast-forward
        shard-local predictor copies.
        """
        return [
            {
                name: int(np.count_nonzero(plan.model_codes == code))
                for code, name in enumerate(self.zoo.names)
            }
            for plan in plans
        ]

    # ------------------------------------------------------- fleet execution
    def _run_many_planned(
        self,
        subjects: Sequence[WindowedSubject],
        plans: Sequence[_ExecutionPlan],
        systems: Mapping[str, WearableSystem] | None = None,
        fleet_states: Mapping[str, "FleetState"] | None = None,
    ) -> FleetResult:
        """Execute precomputed fleet plans.

        Executes the whole population in per-model groups, then splits the
        fleet arrays back into per-subject :class:`RunResult` views (NumPy
        slices of the shared arrays, so the split allocates nothing per
        subject).  Split from planning so fleet-executor workers replay a
        shard from plans computed once in the parent, and the scheduler
        executes batches it planned on its dispatcher thread.

        ``fleet_states`` gives every stateful model a batch-positional
        :class:`~repro.models.base.FleetState` (slot ``i`` continues
        subject ``i``) to start from and advance in place, instead of
        fresh per-subject state — the online scheduler gathers its
        streams' long-lived slots into these
        (:class:`repro.core.scheduler.FleetScheduler`).
        """
        self._reset_predictors()
        predicted_hr, cost_arrays = self._execute_fleet(
            subjects,
            plans,
            systems=systems,
            fleet_states=fleet_states,
        )

        fleet = FleetResult()
        names = np.array(self.zoo.names, dtype=object)
        start = 0
        for subject, plan in zip(subjects, plans):
            end = start + subject.n_windows
            fleet.add(
                subject.subject_id,
                self._run_result(
                    subject,
                    plan,
                    names,
                    predicted_hr[start:end],
                    (array[start:end] for array in cost_arrays),
                ),
            )
            start = end
        return fleet

    def _execute_fleet(
        self,
        subjects: Sequence[WindowedSubject],
        plans: Sequence[_ExecutionPlan],
        systems: Mapping[str, WearableSystem] | None = None,
        fleet_states: Mapping[str, FleetState] | None = None,
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Execute all subjects' plans in per-model fleet-wide groups.

        Window order within each group is subject-major with recording
        order inside every subject — exactly the order in which
        one-subject-at-a-time replay feeds each predictor, which is what
        makes the fused calls bit-identical.  Stateless, row-bit-stable
        predictors (``FLEET_BATCHABLE = True``: the calibrated models and
        the TimePPG TCNs) fuse into one batch ``predict`` per model;
        stateful predictors fuse into one ``predict_fleet`` per model
        with a subject-index vector and a fresh
        :class:`~repro.models.base.FleetState` (or ``fleet_states[name]``)
        whose slots re-enact the per-subject ``reset()`` boundaries.

        Costs are gathered from a ``(hardware revision, model, target)``
        value table: each combination the plans route is looked up once
        for the whole fleet, whatever the mix of ``systems``.
        """
        counts = [s.n_windows for s in subjects]
        n_total = int(sum(counts))
        window_slots = np.repeat(np.arange(len(subjects), dtype=np.intp), counts)
        model_codes = np.concatenate([p.model_codes for p in plans])
        offloaded = np.concatenate([p.offloaded for p in plans])
        hr = np.concatenate([np.asarray(s.hr, dtype=float) for s in subjects])
        activity = np.concatenate([np.asarray(s.activity, dtype=int) for s in subjects])
        predicted_hr = np.empty(n_total, dtype=self.dtype)

        for code, name in enumerate(self.zoo.names):
            predictor = self.zoo.entry(name).predictor
            if not predictor.FLEET_BATCHABLE:
                # Per-run instance state is reset once; the per-subject
                # boundaries live in the state slots.
                predictor.reset()
            idx = np.flatnonzero(model_codes == code)
            if idx.size == 0:
                continue
            if predictor.REQUIRES_SIGNALS:
                ppg = np.concatenate(
                    [s.ppg_windows[p.model_codes == code] for s, p in zip(subjects, plans)]
                )
                accel = np.concatenate(
                    [s.accel_windows[p.model_codes == code] for s, p in zip(subjects, plans)]
                )
            else:
                # Signal-free predictors only need the batch length: one
                # window of any non-empty subject, broadcast over the group.
                template = next(s.ppg_windows[:1] for s in subjects if s.n_windows)
                ppg = np.broadcast_to(template, (idx.size,) + template.shape[1:])
                accel = None
            if predictor.FLEET_BATCHABLE:
                predictions = predictor.predict(
                    ppg, accel, true_hr=hr[idx], activity=activity[idx]
                )
            else:
                state = (
                    fleet_states[name]
                    if fleet_states is not None
                    else predictor.make_fleet_state(len(subjects))
                )
                predictions = predictor.predict_fleet(
                    ppg,
                    accel,
                    subject_index=window_slots[idx],
                    state=state,
                    true_hr=hr[idx],
                    activity=activity[idx],
                )
            predicted_hr[idx] = np.asarray(predictions, dtype=self.dtype)

        # Hardware revisions in first-seen order; a homogeneous fleet has
        # one, and its windows all index revision 0 of the table.
        systems = systems or {}
        revision_systems: list[WearableSystem] = []
        revision_index: dict[tuple, int] = {}
        subject_revisions = np.empty(len(subjects), dtype=np.intp)
        for i, subject in enumerate(subjects):
            system = systems.get(subject.subject_id, self.system)
            rid = revision_index.setdefault(system.hardware_revision(), len(revision_systems))
            if rid == len(revision_systems):
                revision_systems.append(system)
            subject_revisions[i] = rid
        n_models = len(self.zoo.names)
        packed = model_codes * 2 + offloaded
        if len(revision_systems) > 1:
            packed = packed + np.repeat(subject_revisions, counts) * (2 * n_models)
        # Only combinations the plans actually route are looked up.
        lut = np.zeros((len(revision_systems) * 2 * n_models, len(_COST_FIELDS)))
        for key in np.flatnonzero(np.bincount(packed, minlength=lut.shape[0])):
            rid, rest = divmod(int(key), 2 * n_models)
            code, is_offloaded = divmod(rest, 2)
            target = ExecutionTarget.PHONE if is_offloaded else ExecutionTarget.WATCH
            cost = revision_systems[rid].cached_prediction_cost(
                self.zoo.entry(self.zoo.names[code]).deployment, target
            )
            lut[key] = _cost_values(cost)
        return predicted_hr, tuple(lut[packed, j] for j in range(len(_COST_FIELDS)))
