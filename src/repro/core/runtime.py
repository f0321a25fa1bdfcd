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

1. **Plan** — one columnar plan for the whole fleet, computed before
   any model runs: per-window difficulty, connection status, model code
   and offload flag, plus per-subject window offsets and configuration
   segments.  The difficulty detector runs once over every subject's
   windows.  A window's connection status is its subject's BLE trace
   entry, or else the status of its subject's system; the engine selects
   one configuration per status, and one lookup table indexed by
   ``(status, difficulty)`` routes every window, with phone targets
   degraded to the watch while disconnected.  A subject's configuration
   segments start at its first window and at every status change inside
   it.  ``plan[a:b]`` is the plan of a subject range, which is how the
   fleet executor ships shards.
2. **Execute** — all subjects' windows are stacked into per-model groups
   across the whole population and **one** fused call per model is
   dispatched for the entire fleet.  A model's signals are gathered in
   one concatenation that takes a fully routed subject's arrays whole
   and masks only partly routed ones, so a one-window subject costs no
   fancy indexing.  How the fused call looks depends on the predictor:

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

3. **Split** — every result column (window index, both difficulties,
   model names, offload flag, true and predicted HR, costs) is built
   once for the fleet, and each subject's :class:`RunResult` holds
   offset views of those columns.

A fleet run is therefore decision-for-decision identical to a loop of
per-subject :meth:`~CHRISRuntime.run` calls, and a run is identical to
the per-window reference (one ``predict_window`` per window) that the
tests keep in ``tests/core/scalar_oracle.py``.

Results are stored as a struct-of-arrays :class:`RunResult`, one column
per per-window field; :meth:`CHRISRuntime.run_many` aggregates a fleet
into a :class:`FleetResult`.  Multi-process sharding on top of this
lives in :mod:`repro.core.fleet`; dynamically arriving/leaving sessions
in :mod:`repro.core.scheduler`.  Zero-window subjects are legal in every
entry point except :meth:`~CHRISRuntime.run_with_configuration` and
contribute an empty result.

Equivalence contract
--------------------
There is one contract: every fused path — ``run_many``,
:class:`~repro.core.fleet.FleetExecutor` shards and
:class:`~repro.core.scheduler.FleetScheduler` batches — is
**bit-identical** to sequential replay at the runtime's dtype.  Fusing
a stateless predictor across subjects is sound because its batch
lowering is row-bit-stable: the TimePPG TCNs run every inference
convolution of :mod:`repro.nn.layers` as fixed-shape GEMMs over
zero-filled 16-window tiles and one vector-matrix product per dense
row, so a window's prediction does not depend on the windows batched
with it.  The property suite
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
selection, and the per-call cost table has a hardware-revision axis so
each routed ``(deployment, target)`` pair is costed once per revision,
however many subjects share it.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.configuration import NUM_DIFFICULTY_LEVELS, ProfiledConfiguration
from repro.core.decision_engine import Constraint, DecisionEngine
from repro.core.zoo import ModelsZoo
from repro.data.activities import difficulties_of
from repro.data.dataset import WindowedSubject
from repro.dtypes import resolve_dtype
from repro.hw.platform import PredictionCost, WearableSystem
from repro.hw.profiles import ExecutionTarget
from repro.ml.activity_classifier import ActivityClassifier
from repro.models.base import FleetState


#: Per-dtype ``(atol, rtol)`` of comparisons across numerics.  Fused
#: paths never need them — they are bit-identical to sequential replay
#: at their own dtype.
#:
#: * ``"float64"`` — a folded network against its unfolded evaluation
#:   forward: the only legal difference is floating-point reassociation,
#:   ~1e-12 BPM on the [30, 220] BPM range.  ``atol=1e-6`` BPM leaves six
#:   orders of magnitude of headroom while still catching any real
#:   divergence (a different routing or a state leak shifts predictions
#:   by whole BPM).
#: * ``"float32"`` — a float32 forward against the float64 reference
#:   re-rounds every intermediate to 24-bit significands; ``atol=1e-3``
#:   BPM bounds that while still flagging any real divergence, which
#:   shifts predictions by whole BPM.
EQUIVALENCE_TOLERANCES: dict[str, tuple[float, float]] = {
    "float64": (1e-6, 1e-9),
    "float32": (1e-3, 1e-5),
}


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


#: RunResult per-window array fields, in declaration order.
_RESULT_COLUMNS = (
    "window_index",
    "predicted_difficulty",
    "true_difficulty",
    "model_names",
    "offloaded",
    "predicted_hr",
    "true_hr",
    *_COST_FIELDS,
)

#: RunResult per-window fields stored as plain (non-object) arrays by the
#: npz round-trip; ``model_names`` is object-dtyped and handled separately
#: (stored as fixed-width unicode so the dump needs no pickled arrays).
_NPZ_ARRAY_FIELDS = tuple(name for name in _RESULT_COLUMNS if name != "model_names")


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
    vectorized from them.
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
            for name in _RESULT_COLUMNS
        )

    # ---------------------------------------------------------- persistence
    def to_npz(self, file: "str | IO[bytes]") -> None:
        """Dump the struct-of-arrays representation to an ``.npz`` archive.

        The per-window arrays are stored verbatim (bit-identical on
        reload); ``model_names`` becomes fixed-width unicode so no array
        in the archive needs pickling; the configuration objects (the
        selected configuration plus the per-segment ones) travel as one
        pickled blob in a ``uint8`` array.  ``file`` may be a path or a
        binary file object.
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


def _column(arrays: Sequence[np.ndarray], dtype) -> np.ndarray:
    """One fresh array holding ``arrays`` end to end, in ``dtype``."""
    if not arrays:
        return np.empty(0, dtype=dtype)
    return np.concatenate([np.asarray(array, dtype=dtype) for array in arrays])


@dataclass(frozen=True)
class _FleetPlan:
    """Columnar routing of a fleet, computed before any model executes.

    Per-window columns hold every subject's windows end to end, in fleet
    order: ``difficulties``, ``connected`` (the connection status that
    routed the window), ``model_codes`` (the model's index in the zoo's
    name order, so grouping and masks run on small integers) and
    ``offloaded``.  Subject ``i`` owns windows ``offsets[i]:offsets[i + 1]``
    and its system's status is ``subject_status[i]``; ``configurations``
    maps every status the plan uses to the configuration it selected.
    ``plan[a:b]`` is the plan of subjects ``a..b-1``.
    """

    subject_ids: tuple[str, ...]
    offsets: np.ndarray
    subject_status: np.ndarray
    difficulties: np.ndarray
    connected: np.ndarray
    model_codes: np.ndarray
    offloaded: np.ndarray
    configurations: Mapping[bool, ProfiledConfiguration]

    @property
    def n_subjects(self) -> int:
        return len(self.subject_ids)

    @property
    def n_windows(self) -> int:
        return int(self.offsets[-1])

    def window_subjects(self) -> np.ndarray:
        """The subject index of every window."""
        return np.repeat(
            np.arange(self.n_subjects, dtype=np.intp), np.diff(self.offsets)
        )

    def segments(self) -> list[list[tuple[int, ProfiledConfiguration]]]:
        """Every subject's ``(start window, configuration)`` segments.

        A segment starts at a subject's first window and at every status
        change inside the subject; a zero-window subject has one, under
        its system status.
        """
        counts = np.diff(self.offsets)
        is_start = np.zeros(self.n_windows, dtype=bool)
        is_start[self.offsets[:-1][counts > 0]] = True
        is_start[1:] |= self.connected[1:] != self.connected[:-1]
        starts = np.flatnonzero(is_start)
        owners = self.window_subjects()[starts]
        by_subject: list[list[tuple[int, ProfiledConfiguration]]] = [
            [] for _ in range(self.n_subjects)
        ]
        for owner, start, status in zip(
            owners.tolist(),
            (starts - self.offsets[owners]).tolist(),
            self.connected[starts].tolist(),
        ):
            by_subject[owner].append((start, self.configurations[status]))
        for owner in np.flatnonzero(counts == 0).tolist():
            by_subject[owner].append((0, self.configurations[bool(self.subject_status[owner])]))
        return by_subject

    def __getitem__(self, subjects: slice) -> "_FleetPlan":
        start, stop, step = subjects.indices(self.n_subjects)
        if step != 1:
            raise ValueError("a plan slices into contiguous subject ranges only")
        stop = max(start, stop)
        lo, hi = int(self.offsets[start]), int(self.offsets[stop])
        return _FleetPlan(
            subject_ids=self.subject_ids[start:stop],
            offsets=self.offsets[start : stop + 1] - lo,
            subject_status=self.subject_status[start:stop],
            difficulties=self.difficulties[lo:hi],
            connected=self.connected[lo:hi],
            model_codes=self.model_codes[lo:hi],
            offloaded=self.offloaded[lo:hi],
            configurations=self.configurations,
        )


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
    ) -> np.ndarray:
        """Every subject's window difficulties end to end, from one classifier call.

        Every non-empty subject's accelerometer windows go through one
        :meth:`~repro.ml.activity_classifier.ActivityClassifier.predict_difficulty`
        call.  Feature extraction and the forest are per row, so a
        window's label does not depend on the windows batched with it.
        Oracle planning (or no classifier) reads the ground-truth
        difficulty.  The result is returned, not stored: the scheduler's
        dispatcher plans on another thread than its worker executes on.
        """
        predicted = [subject.accel_windows for subject in subjects if subject.n_windows]
        if use_oracle or self.activity_classifier is None or not predicted:
            return difficulties_of(_column([s.activity for s in subjects], int))
        return self.activity_classifier.predict_difficulty(np.concatenate(predicted))

    # -------------------------------------------------------------- planning
    def _reset_predictors(self) -> None:
        """Clear temporal predictor state so runs never leak across subjects."""
        for entry in self.zoo:
            entry.predictor.reset()

    def _plan_configured(
        self,
        windows: WindowedSubject,
        configuration: ProfiledConfiguration,
        use_oracle_difficulty: bool,
        system: WearableSystem | None = None,
    ) -> _FleetPlan:
        """One recording's plan under an explicit configuration.

        ``system`` (default: the runtime's) gives the connection status
        that routes the recording.
        """
        systems = {} if system is None else {windows.subject_id: system}
        return self._plan_routes(
            [windows], lambda status: configuration, use_oracle_difficulty, {}, systems
        )

    def _plan_routes(
        self,
        subjects: Sequence[WindowedSubject],
        configuration_for: Callable[[bool], ProfiledConfiguration],
        use_oracle_difficulty: bool,
        traces: Mapping[str, np.ndarray],
        systems: Mapping[str, WearableSystem],
    ) -> _FleetPlan:
        """The columnar plan of ``subjects`` (see :meth:`_plan_fleet`).

        A window's connection status is its trace entry, or else its
        subject's system status.  ``configuration_for`` is asked once per
        status the plan uses (:meth:`_FleetPlan.segments` derives each
        subject's configuration segments from the statuses), and one
        routing table indexed by ``(status, difficulty)`` gives every
        window its model and target, with phone targets degraded to the
        watch while disconnected.
        """
        n_subjects = len(subjects)
        counts = np.fromiter(
            (subject.n_windows for subject in subjects), dtype=np.intp, count=n_subjects
        )
        offsets = np.zeros(n_subjects + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        subject_ids = tuple(subject.subject_id for subject in subjects)
        index = {sid: i for i, sid in enumerate(subject_ids)} if traces or systems else {}

        status = np.full(n_subjects, bool(self.system.connected))
        for sid, system in systems.items():
            if sid in index:
                status[index[sid]] = bool(system.connected)
        connected = np.repeat(status, counts)
        for sid, trace in traces.items():
            i = index.get(sid)
            if i is None:
                continue
            trace = np.asarray(trace, dtype=bool)
            if trace.shape != (counts[i],):
                raise ValueError(
                    f"connected must have one entry per window "
                    f"({counts[i]}), got shape {trace.shape}"
                )
            connected[offsets[i] : offsets[i + 1]] = trace
        difficulties = self._fleet_difficulties(subjects, use_oracle_difficulty)

        used = np.concatenate([connected, status[counts == 0]])
        configurations = {bool(s): configuration_for(bool(s)) for s in np.unique(used)}
        code_of = {name: code for code, name in enumerate(self.zoo.names)}
        codes = np.zeros((2, NUM_DIFFICULTY_LEVELS + 1), dtype=np.intp)
        offload = np.zeros((2, NUM_DIFFICULTY_LEVELS + 1), dtype=bool)
        for s, configuration in configurations.items():
            for level in range(1, NUM_DIFFICULTY_LEVELS + 1):
                name, target = self.engine.select_model(configuration, level)
                codes[int(s), level] = code_of[name]
                offload[int(s), level] = s and target is ExecutionTarget.PHONE
        route = (connected.astype(np.intp), difficulties)
        return _FleetPlan(
            subject_ids=subject_ids,
            offsets=offsets,
            subject_status=status,
            difficulties=difficulties,
            connected=connected,
            model_codes=codes[route],
            offloaded=offload[route],
            configurations=configurations,
        )

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
        plan = self._plan_configured(windows, configuration, use_oracle_difficulty, system)
        fleet = self._run_many_planned(
            [windows], plan, systems={windows.subject_id: system}
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

        The fleet is planned in one columnar pass, the whole population
        executes in one fused call per model, and the result columns are
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
        plan = self._plan_fleet(
            subjects, constraint, use_oracle_difficulty, traces, systems=systems
        )
        return self._run_many_planned(subjects, plan, systems=systems)

    # --------------------------------------------------------- fleet planning
    def _plan_fleet(
        self,
        subjects: Sequence[WindowedSubject],
        constraint: Constraint,
        use_oracle_difficulty: bool,
        traces: Mapping[str, np.ndarray],
        systems: Mapping[str, WearableSystem] | None = None,
    ) -> _FleetPlan:
        """The columnar execution plan of a fleet, in fleet order.

        Windows and trace segments on the same connection status share
        one configuration: selection is a deterministic function of
        ``(constraint, connection status)``, so selecting once per status
        is decision-identical to selecting per subject or per segment.
        With per-subject ``systems`` the status is each subject's own
        hardware's.  A zero-window subject plans to nothing, under the
        configuration its current status selects.  Difficulty comes from
        one detector pass over the whole fleet
        (:meth:`_fleet_difficulties`).  Planning never touches predictor
        state.
        """
        return self._plan_routes(
            subjects,
            lambda status: self.engine.select_or_closest(constraint, connected=status),
            use_oracle_difficulty,
            traces,
            systems or {},
        )

    def model_window_counts(self, plan: _FleetPlan) -> np.ndarray:
        """Planned window count of every zoo model, one row per subject.

        Columns follow the zoo's name order.  Cross-run predictor state
        advances per routed window, so these counts are what
        :meth:`~repro.models.base.HeartRatePredictor.advance_fleet_state`
        consumes — the fleet executor accumulates them to fast-forward
        shard-local predictor copies, and the scheduler to track its
        stream position.
        """
        n_models = len(self.zoo.names)
        keys = plan.window_subjects() * n_models + plan.model_codes
        counts = np.bincount(keys, minlength=plan.n_subjects * n_models)
        return counts.reshape(plan.n_subjects, n_models)

    # ------------------------------------------------------- fleet execution
    def _run_many_planned(
        self,
        subjects: Sequence[WindowedSubject],
        plan: _FleetPlan,
        systems: Mapping[str, WearableSystem] | None = None,
        fleet_states: Mapping[str, "FleetState"] | None = None,
    ) -> FleetResult:
        """Execute a precomputed fleet plan over its ``subjects``' windows.

        The whole population executes in per-model groups
        (:meth:`_execute_fleet`), then every result column is built once
        and each subject's :class:`RunResult` is offset views of those
        columns.  Only the subjects' window arrays are read: the plan
        carries the ids.  Split from planning so fleet-executor workers
        replay a shard from a plan sliced in the parent, and the
        scheduler executes batches it planned on its dispatcher thread.

        ``fleet_states`` gives every stateful model a batch-positional
        :class:`~repro.models.base.FleetState` (slot ``i`` continues
        subject ``i``) to start from and advance in place, instead of
        fresh per-subject state — the online scheduler gathers its
        streams' long-lived slots into these
        (:class:`repro.core.scheduler.FleetScheduler`).
        """
        counts = [subject.n_windows for subject in subjects]
        if counts != np.diff(plan.offsets).tolist():
            raise ValueError(
                f"the plan routes {plan.n_windows} windows of {plan.n_subjects} subjects, "
                f"got {sum(counts)} windows of {len(counts)}"
            )
        self._reset_predictors()
        activity = _column([subject.activity for subject in subjects], int)
        true_hr = _column([subject.hr for subject in subjects], float)
        predicted_hr, costs = self._execute_fleet(
            subjects, plan, activity, true_hr, systems=systems, fleet_states=fleet_states
        )
        return self._fleet_result(plan, activity, true_hr, predicted_hr, costs)

    def _fleet_result(
        self,
        plan: _FleetPlan,
        activity: np.ndarray,
        true_hr: np.ndarray,
        predicted_hr: np.ndarray,
        costs: Sequence[np.ndarray],
    ) -> FleetResult:
        """Per-subject results as offset views of one set of result columns."""
        names = np.array(self.zoo.names, dtype=object)
        columns = (
            np.arange(plan.n_windows, dtype=int) - plan.offsets[plan.window_subjects()],
            plan.difficulties.astype(int),
            difficulties_of(activity).astype(int),
            names[plan.model_codes],
            plan.offloaded,
            predicted_hr,
            true_hr,
            *costs,
        )
        bounds = plan.offsets.tolist()
        views = [
            [column[start:end] for start, end in zip(bounds[:-1], bounds[1:])]
            for column in columns
        ]
        fleet = FleetResult()
        for sid, segments, *arrays in zip(plan.subject_ids, plan.segments(), *views):
            # Positional: the configuration, then _RESULT_COLUMNS in
            # declaration order, then the segments.
            fleet.add(sid, RunResult(segments[-1][1], *arrays, segments))
        return fleet

    def _execute_fleet(
        self,
        subjects: Sequence[WindowedSubject],
        plan: _FleetPlan,
        activity: np.ndarray,
        hr: np.ndarray,
        systems: Mapping[str, WearableSystem] | None = None,
        fleet_states: Mapping[str, FleetState] | None = None,
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Execute a fleet plan in per-model fleet-wide groups.

        Window order within each group is subject-major with recording
        order inside every subject — exactly the order in which
        one-subject-at-a-time replay feeds each predictor, which is what
        makes the fused calls bit-identical.  A model's signals are
        gathered in one concatenation: a subject routed to it entirely
        contributes its arrays as they are, a partly routed one through
        its slice of the model's mask, an unrouted one nothing.
        Stateless, row-bit-stable predictors (``FLEET_BATCHABLE = True``:
        the calibrated models and the TimePPG TCNs) fuse into one batch
        ``predict`` per model; stateful predictors fuse into one
        ``predict_fleet`` per model with a subject-index vector and a
        fresh :class:`~repro.models.base.FleetState` (or
        ``fleet_states[name]``) whose slots re-enact the per-subject
        ``reset()`` boundaries.

        Costs are gathered from a ``(hardware revision, model, target)``
        value table: each combination the plan routes is looked up once
        for the whole fleet, whatever the mix of ``systems``.
        """
        model_codes = plan.model_codes
        window_subjects = plan.window_subjects()
        bounds = plan.offsets.tolist()
        counts = np.diff(plan.offsets).tolist()
        predicted_hr = np.empty(plan.n_windows, dtype=self.dtype)

        def picks(mask: np.ndarray) -> list[tuple[WindowedSubject, np.ndarray | None]]:
            """Each subject with a masked window, and its row mask (``None``: all rows)."""
            hits = np.bincount(window_subjects[mask], minlength=plan.n_subjects).tolist()
            return [
                (subjects[i], None if hit == counts[i] else mask[bounds[i] : bounds[i + 1]])
                for i, hit in enumerate(hits)
                if hit
            ]

        def gather(picked: list, field: str) -> np.ndarray:
            return np.concatenate(
                [getattr(s, field) if rows is None else getattr(s, field)[rows] for s, rows in picked]
            )

        for code, name in enumerate(self.zoo.names):
            predictor = self.zoo.entry(name).predictor
            if not predictor.FLEET_BATCHABLE:
                # Per-run instance state is reset once; the per-subject
                # boundaries live in the state slots.
                predictor.reset()
            mask = model_codes == code
            idx = np.flatnonzero(mask)
            if idx.size == 0:
                continue
            if predictor.REQUIRES_SIGNALS:
                picked = picks(mask)
                ppg = gather(picked, "ppg_windows")
                # PPG-only models (AT) get no accelerometer copy.
                accel = gather(picked, "accel_windows") if predictor.READS_ACCELEROMETER else None
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
                    else predictor.make_fleet_state(plan.n_subjects)
                )
                predictions = predictor.predict_fleet(
                    ppg,
                    accel,
                    subject_index=window_subjects[idx],
                    state=state,
                    true_hr=hr[idx],
                    activity=activity[idx],
                )
            predicted_hr[idx] = np.asarray(predictions, dtype=self.dtype)

        # Hardware revisions: the default system's is revision 0, and every
        # distinct revision among ``systems`` gets the next index.  Equal
        # revisions produce identical costs, so any system of a revision
        # can fill its part of the table.
        revision_systems = [self.system]
        revision_index = {self.system.hardware_revision(): 0}
        subject_revisions = np.zeros(plan.n_subjects, dtype=np.intp)
        if systems:
            position = {sid: i for i, sid in enumerate(plan.subject_ids)}
            for sid, system in systems.items():
                if sid not in position:
                    continue
                rid = revision_index.setdefault(system.hardware_revision(), len(revision_systems))
                if rid == len(revision_systems):
                    revision_systems.append(system)
                subject_revisions[position[sid]] = rid
        n_models = len(self.zoo.names)
        packed = model_codes * 2 + plan.offloaded
        if len(revision_systems) > 1:
            packed = packed + subject_revisions[window_subjects] * (2 * n_models)
        # Only combinations the plan actually routes are looked up.
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
