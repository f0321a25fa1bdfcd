"""Runtime throughput benchmarking utilities.

Shared by the checked-in throughput benchmark
(``benchmarks/test_runtime_throughput.py``) and the perf-trajectory
summary script (``benchmarks/summarize_runtime.py``): both measure the
same fixed synthetic workload, so the numbers are comparable across PRs.

The workload is a large windowed pseudo-recording built directly from
arrays (no signal synthesis), replayed once through the per-window
oracle (:meth:`~repro.core.runtime.CHRISRuntime._run_scalar_oracle`) and
once through :class:`~repro.core.runtime.CHRISRuntime`'s fleet path.
Besides the two throughputs (windows/second) the measurement records the
fleet run's accuracy and offload statistics and verifies that the two
paths routed every window identically.  The multi-subject benchmarks
compare against :func:`sequential_replay`, a loop of per-subject
:meth:`~repro.core.runtime.CHRISRuntime.run` calls.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import os
import tempfile
import time

import numpy as np

from repro.core.decision_engine import Constraint
from repro.core.fleet import FleetExecutor
from repro.core.profiling import ConfigurationProfiler, ProfilingData
from repro.core.runtime import (
    CHRISRuntime,
    EQUIVALENCE_ATOL,
    EQUIVALENCE_RTOL,
    EQUIVALENCE_TOLERANCES,
    FleetResult,
)
from repro.core.scheduler import FleetScheduler, SessionState
from repro.core.zoo import ModelsZoo, ZooEntry
from repro.data.activities import ACTIVITIES
from repro.data.dataset import WindowedDataset, WindowedSubject
from repro.data.synthetic import SyntheticDaliaGenerator, SyntheticDatasetConfig
from repro.hw.platform import WearableSystem
from repro.ml.activity_classifier import ActivityClassifier
from repro.ml.random_forest import RandomForestClassifier
from repro.models.adaptive_threshold import AdaptiveThresholdPredictor
from repro.models.error_model import SmoothedCalibratedHRModel
from repro.models.spectral_tracker import SpectralHRPredictor
from repro.models.timeppg import (
    TIMEPPG_BIG_CONFIG,
    TIMEPPG_SMALL_CONFIG,
    TimePPGConfig,
    TimePPGPredictor,
)
from repro.signal.windowing import DEFAULT_WINDOW_SPEC


def synthetic_workload(
    n_windows: int = 10_000,
    window_length: int = 256,
    seed: int = 0,
) -> WindowedSubject:
    """A large windowed pseudo-recording for throughput measurements.

    Activities cycle through all nine difficulty levels in contiguous
    blocks (so every model of a hybrid configuration receives work), the
    HR follows a slow sinusoid, and the raw signals are white noise — the
    calibrated zoo never reads them, and the workload builds in
    milliseconds instead of synthesizing hours of PPG.
    """
    if n_windows <= 0:
        raise ValueError(f"n_windows must be positive, got {n_windows}")
    rng = np.random.default_rng(seed)
    activity = np.arange(n_windows, dtype=int) // max(1, n_windows // 90) % 9
    hr = 70.0 + 30.0 * np.sin(np.linspace(0.0, 20.0 * np.pi, n_windows))
    return WindowedSubject(
        subject_id=f"synthetic-{n_windows}w",
        ppg_windows=rng.standard_normal((n_windows, window_length)),
        accel_windows=rng.standard_normal((n_windows, window_length, 3)),
        activity=activity,
        hr=hr,
        spec=DEFAULT_WINDOW_SPEC,
    )


def benchmark_runtime(
    experiment,
    n_windows: int = 10_000,
    constraint: Constraint | None = None,
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """Measure per-window oracle vs. runtime throughput on one workload.

    Parameters
    ----------
    experiment:
        A :class:`~repro.eval.experiment.CalibratedExperiment` (its zoo,
        engine and system are replayed).
    n_windows:
        Workload size (10k windows ≈ 5.5 h of recording at the paper's
        2-second stride).
    constraint:
        Operating constraint; the paper's headline MAE ≤ 5.60 BPM bound
        when omitted.
    seed:
        Workload generator seed.
    repeats:
        Timed repetitions per path; the best (minimum) time is reported,
        which filters out scheduler and allocator noise.

    Returns a JSON-serializable dict with both throughputs (``batched_*``
    is :meth:`~repro.core.runtime.CHRISRuntime.run_with_configuration`),
    the speedup, the runtime's MAE / offload / energy statistics, and a
    ``routing_identical`` flag confirming both paths made the same
    per-window decisions.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    constraint = constraint or Constraint.max_mae(5.60)
    workload = synthetic_workload(n_windows=n_windows, seed=seed)
    runtime = experiment.runtime()
    configuration = experiment.engine.select_or_closest(constraint, connected=True)

    def timed(run):
        best = float("inf")
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = run()
            best = min(best, time.perf_counter() - start)
        return result, best

    def oracle():
        plan = runtime._plan_configured(workload, configuration, True)
        return runtime._run_scalar_oracle(workload, plan)

    scalar, scalar_s = timed(oracle)
    batched, batched_s = timed(
        lambda: runtime.run_with_configuration(
            workload, configuration, use_oracle_difficulty=True
        )
    )

    routing_identical = bool(
        np.array_equal(scalar.model_names.astype(str), batched.model_names.astype(str))
        and np.array_equal(scalar.offloaded, batched.offloaded)
        and np.allclose(scalar.watch_total_j_per_window, batched.watch_total_j_per_window)
    )
    return {
        "n_windows": int(n_windows),
        "configuration": configuration.label(),
        "scalar_seconds": scalar_s,
        "batched_seconds": batched_s,
        "scalar_windows_per_s": n_windows / scalar_s,
        "batched_windows_per_s": n_windows / batched_s,
        "speedup": scalar_s / batched_s,
        "mae_bpm": batched.mae_bpm,
        "offload_fraction": batched.offload_fraction,
        "mean_watch_energy_mj": batched.mean_watch_energy_mj,
        "routing_identical": routing_identical,
    }


def synthetic_fleet(
    n_subjects: int = 50,
    n_windows_per_subject: int = 2_000,
    window_length: int = 16,
    seed: int = 0,
) -> list[WindowedSubject]:
    """A fleet of windowed pseudo-recordings for fleet-throughput runs.

    One :func:`synthetic_workload` per subject with a distinct seed and
    id.  The window length is kept short because the calibrated zoo never
    reads the signal arrays; 50 subjects x 2k windows fit in ~40 MB
    instead of the ~1 GB full-length windows would take.
    """
    if n_subjects <= 0:
        raise ValueError(f"n_subjects must be positive, got {n_subjects}")
    fleet = []
    for i in range(n_subjects):
        subject = synthetic_workload(
            n_windows=n_windows_per_subject, window_length=window_length, seed=seed + i
        )
        subject.subject_id = f"fleet-{i:03d}"
        fleet.append(subject)
    return fleet


def sequential_replay(
    runtime: CHRISRuntime,
    subjects,
    constraint: Constraint,
    use_oracle_difficulty: bool = False,
    connected_traces=None,
    systems=None,
) -> FleetResult:
    """Replay a fleet one subject at a time: a loop of per-subject runs.

    The baseline every multi-subject path is pinned against, bit for bit
    and in throughput: one
    :meth:`~repro.core.runtime.CHRISRuntime.run` per subject, or
    :meth:`~repro.core.runtime.CHRISRuntime.run_with_connection_trace`
    for subjects with a trace in ``connected_traces``, on the hardware
    ``systems`` maps them to.
    """
    traces = connected_traces or {}
    systems = systems or {}
    fleet = FleetResult()
    for subject in subjects:
        sid = subject.subject_id
        if sid in traces:
            result = runtime.run_with_connection_trace(
                subject, constraint, traces[sid], use_oracle_difficulty, system=systems.get(sid)
            )
        else:
            result = runtime.run(
                subject, constraint, use_oracle_difficulty, system=systems.get(sid)
            )
        fleet.add(sid, result)
    return fleet


def benchmark_fleet(
    experiment,
    n_subjects: int = 50,
    n_windows_per_subject: int = 2_000,
    constraint: Constraint | None = None,
    seed: int = 0,
    repeats: int = 3,
    max_workers: int | None = None,
) -> dict:
    """Measure fleet-replay throughput: sequential vs mega-batched vs pool.

    Three paths replay the same ``n_subjects`` x ``n_windows_per_subject``
    fleet:

    * **sequential** — :func:`sequential_replay`, one ``run`` per subject;
    * **mega** — cross-subject mega-batching: one ``predict`` call per
      model for the entire population, in-process;
    * **pool** — :class:`~repro.core.fleet.FleetExecutor` sharding across
      ``max_workers`` worker processes (``os.cpu_count()`` by default).

    Every timed run starts from a deep copy of the runtime so all paths
    consume identical predictor state; the best of ``repeats`` wall
    times is reported per path, plus a ``decisions_identical`` flag
    confirming the fast paths replayed every window exactly like the
    sequential reference.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    constraint = constraint or Constraint.max_mae(5.60)
    subjects = synthetic_fleet(
        n_subjects=n_subjects, n_windows_per_subject=n_windows_per_subject, seed=seed
    )
    n_windows_total = sum(s.n_windows for s in subjects)
    workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
    configuration = experiment.engine.select_or_closest(constraint, connected=True)

    def timed(run):
        best = float("inf")
        result = None
        for _ in range(repeats):
            runtime = copy.deepcopy(experiment.runtime())
            start = time.perf_counter()
            result = run(runtime)
            best = min(best, time.perf_counter() - start)
        return result, best

    sequential, sequential_s = timed(
        lambda rt: sequential_replay(rt, subjects, constraint, use_oracle_difficulty=True)
    )
    mega, mega_s = timed(
        lambda rt: rt.run_many(subjects, constraint, use_oracle_difficulty=True)
    )
    pool, pool_s = timed(
        lambda rt: FleetExecutor(rt, max_workers=workers).run_fleet(
            subjects, constraint, use_oracle_difficulty=True
        )
    )

    def identical(fleet) -> bool:
        return fleet.subject_ids == sequential.subject_ids and all(
            fleet.results[sid] == sequential.results[sid] for sid in fleet.subject_ids
        )

    return {
        "n_subjects": int(n_subjects),
        "n_windows_per_subject": int(n_windows_per_subject),
        "n_windows_total": int(n_windows_total),
        "configuration": configuration.label(),
        "workers": int(workers),
        "sequential_seconds": sequential_s,
        "mega_seconds": mega_s,
        "pool_seconds": pool_s,
        "sequential_subjects_per_s": n_subjects / sequential_s,
        "mega_subjects_per_s": n_subjects / mega_s,
        "pool_subjects_per_s": n_subjects / pool_s,
        "sequential_windows_per_s": n_windows_total / sequential_s,
        "mega_windows_per_s": n_windows_total / mega_s,
        "pool_windows_per_s": n_windows_total / pool_s,
        "mega_speedup": sequential_s / mega_s,
        "pool_speedup": sequential_s / pool_s,
        "mae_bpm": mega.mae_bpm,
        "offload_fraction": mega.offload_fraction,
        "decisions_identical": bool(identical(mega) and identical(pool)),
    }


def stateful_zoo(
    zoo: ModelsZoo, smoothing: float = 0.5, spectral: str | None = "AT"
) -> ModelsZoo:
    """A stateful-heavy twin of a calibrated zoo.

    Every predictor becomes a stateful tracker (``FLEET_BATCHABLE =
    False``): the ``spectral`` deployment gets a real
    :class:`~repro.models.spectral_tracker.SpectralHRPredictor` (a
    signal-reading tracker whose tracking recurrence runs window by
    window within a subject), the others become
    :class:`~repro.models.error_model.SmoothedCalibratedHRModel` twins
    continuing the original's exact random stream.  Deployments are
    untouched, so engine configurations stay valid.  This is the zoo the
    stacked-state fleet benchmark and equivalence tests replay.
    """
    twin = ModelsZoo()
    for entry in zoo:
        if entry.name == spectral:
            predictor: object = SpectralHRPredictor()
        else:
            predictor = SmoothedCalibratedHRModel.from_calibrated(
                entry.predictor, smoothing=smoothing
            )
        twin.add(ZooEntry(predictor=predictor, deployment=entry.deployment))
    return twin


def benchmark_stateful_fleet(
    experiment,
    n_subjects: int = 50,
    n_windows_per_subject: int = 2_000,
    constraint: Constraint | None = None,
    seed: int = 0,
    repeats: int = 3,
    smoothing: float = 0.5,
) -> dict:
    """Measure stacked-state fleet dispatch against per-subject replay.

    The whole zoo is made stateful (:func:`stateful_zoo`: a spectral
    tracker plus smoothed calibrated trackers, all ``FLEET_BATCHABLE =
    False``), so *every* window rides the stateful dispatch.  Two paths
    replay the same fleet from identical predictor state:

    * **sequential** — :func:`sequential_replay`, one ``run`` (one
      one-slot ``predict_fleet`` per model) per subject;
    * **stacked** — ``run_many``: one fused ``predict_fleet`` call per
      model — state-free work (spectra, error draws) vectorized over the
      whole stack, the tracking recurrences advancing all subjects in
      lock-step.

    Each path reports the best of ``repeats``, and a
    ``decisions_identical`` flag confirms the two replayed every window
    bit-identically.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    constraint = constraint or Constraint.max_mae(5.60)
    subjects = synthetic_fleet(
        n_subjects=n_subjects, n_windows_per_subject=n_windows_per_subject, seed=seed
    )
    n_windows_total = sum(s.n_windows for s in subjects)
    configuration = experiment.engine.select_or_closest(constraint, connected=True)
    zoo = stateful_zoo(experiment.zoo, smoothing=smoothing)

    def timed(run):
        best = float("inf")
        result = None
        for _ in range(repeats):
            runtime = CHRISRuntime(
                zoo=copy.deepcopy(zoo), engine=experiment.engine, system=experiment.system
            )
            start = time.perf_counter()
            result = run(runtime)
            best = min(best, time.perf_counter() - start)
        return result, best

    sequential, sequential_s = timed(
        lambda rt: sequential_replay(rt, subjects, constraint, use_oracle_difficulty=True)
    )
    stacked, stacked_s = timed(
        lambda rt: rt.run_many(subjects, constraint, use_oracle_difficulty=True)
    )

    decisions_identical = sequential.subject_ids == stacked.subject_ids and all(
        sequential.results[sid] == stacked.results[sid]
        for sid in sequential.subject_ids
    )
    return {
        "n_subjects": int(n_subjects),
        "n_windows_per_subject": int(n_windows_per_subject),
        "n_windows_total": int(n_windows_total),
        "configuration": configuration.label(),
        "n_stateful_models": sum(
            1 for entry in zoo if not entry.predictor.FLEET_BATCHABLE
        ),
        "smoothing": float(smoothing),
        "sequential_seconds": sequential_s,
        "stacked_seconds": stacked_s,
        "sequential_windows_per_s": n_windows_total / sequential_s,
        "stacked_windows_per_s": n_windows_total / stacked_s,
        "stacked_speedup": sequential_s / stacked_s,
        "mae_bpm": stacked.mae_bpm,
        "offload_fraction": stacked.offload_fraction,
        "decisions_identical": bool(decisions_identical),
    }


def timeppg_zoo(
    zoo: ModelsZoo, window_length: int = 16, seed: int = 0
) -> ModelsZoo:
    """A twin zoo whose TimePPG-Big entry is a real (tiny, frozen) TCN.

    The calibrated stand-ins never read the signal arrays; swapping a
    genuine signal-reading TimePPG network behind the TimePPG-Big
    deployment (the model the selected configurations route windows to)
    makes the fleet workload exercise real BLAS forwards, which is what
    the fused-fleet benchmark measures.  The network is sized for the
    fleet workload's short windows and frozen (batch norm folded) so the
    inference lowering is the path under test.  Its head bias is shifted
    by 120 BPM: the untrained network outputs ~0 BPM, which ``predict``
    would clip to a constant 30 BPM.
    """
    config = TimePPGConfig(
        name="TimePPG-Big",
        input_length=window_length,
        block_channels=(4, 6, 8),
        kernel_size=3,
        head_pool=2,
        head_hidden=0,
    )
    twin = ModelsZoo()
    for entry in zoo:
        if entry.name == "TimePPG-Big":
            predictor: object = TimePPGPredictor(config, seed=seed)
            predictor.network.layers[-1].params["bias"] += 120.0
            predictor.freeze()
        else:
            predictor = copy.deepcopy(entry.predictor)
        twin.add(ZooEntry(predictor=predictor, deployment=entry.deployment))
    return twin


def benchmark_inference(
    experiment,
    n_windows: int = 10_000,
    window_length: int = 256,
    n_subjects: int = 120,
    n_windows_per_subject: int = 80,
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """Measure the fused inference engine's three hot paths.

    * **AT batched** — the vectorized adaptive-threshold detector
      (batched threshold recurrence + region extraction) against the
      scalar per-window reference on ``n_windows`` real
      ``window_length``-sample windows, with a ``bit_identical`` flag
      (the batched detector is pinned bit-exact per row).
    * **TimePPG inference mode** — the frozen network (batch norm folded
      into the convolutions, GEMM im2col lowering, no backward caches)
      against the training-mode forward of the same weights on the same
      prepared batches.  The ``outputs_equal`` flag compares the frozen
      outputs with the reference *evaluation* forward (captured before
      any training-mode pass mutates the batch-norm running statistics):
      training mode normalizes with batch statistics by design, so the
      deployed semantics — what folding must preserve — are the
      evaluation forward's.
    * **Fused fleet** — a fleet whose TimePPG-Big is a real TCN,
      replayed by ``run_many`` (one fused cross-subject forward per
      model) against :func:`sequential_replay` (one ``run`` per subject),
      with a ``decisions_identical`` flag: the two must be bit-identical.
      The two are timed in ``repeats`` interleaved pairs and ``speedup``
      is the median of the per-pair ratios.

    The AT and TimePPG paths report the best of ``repeats``; the scalar
    AT reference is timed once (a multi-second measurement).
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    rng = np.random.default_rng(seed)

    # ------------------------------------------------------------- AT batched
    at_windows = rng.standard_normal((n_windows, window_length))
    at = AdaptiveThresholdPredictor()
    at.reset()
    start = time.perf_counter()
    at_scalar = np.array([at.predict_window(w) for w in at_windows])
    at_scalar_s = time.perf_counter() - start
    at_batched_s = float("inf")
    at_batched = None
    for _ in range(repeats):
        at.reset()
        start = time.perf_counter()
        at_batched = at.predict(at_windows)
        at_batched_s = min(at_batched_s, time.perf_counter() - start)
    at_bit_identical = bool(np.array_equal(at_scalar, at_batched))

    # ------------------------------------------------- TimePPG inference mode
    n_nn_windows = 2_048
    predictor = TimePPGPredictor(TIMEPPG_SMALL_CONFIG, seed=seed)
    batch = predictor.prepare_input(
        rng.standard_normal((n_nn_windows, predictor.config.input_length)),
        rng.standard_normal((n_nn_windows, predictor.config.input_length, 3)),
    )
    chunks = [batch[i : i + 64] for i in range(0, n_nn_windows, 64)]
    # The deployed semantics folding must preserve: the evaluation
    # forward, captured before training-mode passes touch the batch-norm
    # running statistics.
    eval_out = np.concatenate(
        [predictor.network.forward(c, training=False) for c in chunks]
    )
    frozen = predictor.freeze()._frozen

    def run_training() -> np.ndarray:
        return np.concatenate(
            [predictor.network.forward(c, training=True) for c in chunks]
        )

    def run_inference() -> np.ndarray:
        return np.concatenate([frozen.forward(c, training=False) for c in chunks])

    def timed(run):
        best = float("inf")
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = run()
            best = min(best, time.perf_counter() - start)
        return result, best

    _, nn_training_s = timed(run_training)
    infer_out, nn_inference_s = timed(run_inference)
    outputs_equal = bool(
        np.allclose(infer_out, eval_out, atol=EQUIVALENCE_ATOL, rtol=EQUIVALENCE_RTOL)
    )

    # ------------------------------------------------------------ fused fleet
    constraint = Constraint.max_mae(5.60)
    subjects = synthetic_fleet(
        n_subjects=n_subjects, n_windows_per_subject=n_windows_per_subject, seed=seed
    )
    fleet_windows = sum(s.n_windows for s in subjects)
    zoo = timeppg_zoo(experiment.zoo, seed=seed)

    def fleet_runtime() -> CHRISRuntime:
        return CHRISRuntime(
            zoo=copy.deepcopy(zoo), engine=experiment.engine, system=experiment.system
        )

    fused_s, sequential_s = [], []
    for _ in range(repeats):
        runtime = fleet_runtime()
        start = time.perf_counter()
        fused = runtime.run_many(subjects, constraint, use_oracle_difficulty=True)
        fused_s.append(time.perf_counter() - start)
        runtime = fleet_runtime()
        start = time.perf_counter()
        sequential = sequential_replay(
            runtime, subjects, constraint, use_oracle_difficulty=True
        )
        sequential_s.append(time.perf_counter() - start)
    fleet_identical = bool(
        fused.subject_ids == sequential.subject_ids
        and all(
            sequential.results[sid] == fused.results[sid]
            for sid in sequential.subject_ids
        )
    )
    fused_median = float(np.median(fused_s))
    sequential_median = float(np.median(sequential_s))

    return {
        "at": {
            "n_windows": int(n_windows),
            "window_length": int(window_length),
            "scalar_seconds": at_scalar_s,
            "batched_seconds": at_batched_s,
            "scalar_windows_per_s": n_windows / at_scalar_s,
            "batched_windows_per_s": n_windows / at_batched_s,
            "speedup": at_scalar_s / at_batched_s,
            "bit_identical": at_bit_identical,
        },
        "timeppg": {
            "variant": predictor.config.name,
            "n_windows": int(n_nn_windows),
            "training_seconds": nn_training_s,
            "inference_seconds": nn_inference_s,
            "training_windows_per_s": n_nn_windows / nn_training_s,
            "inference_windows_per_s": n_nn_windows / nn_inference_s,
            "speedup": nn_training_s / nn_inference_s,
            "outputs_equal": outputs_equal,
        },
        "fused_fleet": {
            "n_subjects": int(n_subjects),
            "n_windows_per_subject": int(n_windows_per_subject),
            "n_windows_total": int(fleet_windows),
            "pairs": int(repeats),
            "sequential_seconds": sequential_median,
            "fused_seconds": fused_median,
            "sequential_windows_per_s": fleet_windows / sequential_median,
            "fused_windows_per_s": fleet_windows / fused_median,
            "speedup": float(
                np.median(np.asarray(sequential_s) / np.asarray(fused_s))
            ),
            "decisions_identical": fleet_identical,
        },
    }


def benchmark_dtype_inference(
    n_windows: int = 10_000,
    window_length: int = 256,
    n_nn_windows: int = 4_096,
    nn_chunk: int = 256,
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """Measure the float32 engine against the float64 reference per path.

    * **Batched AT per dtype** — the vectorized adaptive-threshold
      detector on the same ``n_windows`` stack at float64 and at
      float32.  The detector's elementwise kernels (cumsum recurrence,
      region maxima) are memory-bound, so halving the element width is
      the whole win.  ``bpm_identical`` records whether the two dtypes
      detected identical peak trains (integer positions feed a float64
      BPM conversion, so coinciding trains give bit-equal BPM); it is
      not a universal guarantee — threshold-straddling samples can flip
      with precision — but on this workload the margins are macroscopic.
    * **Frozen TimePPG per dtype** — the inference-mode forward of the
      same weights frozen at float64 (``freeze()``) and at float32
      (``freeze(dtype="float32")``) on identical prepared batches, with
      a ``within_tolerance`` flag checked against the documented float32
      equivalence bound (:data:`EQUIVALENCE_TOLERANCES`).  The frozen
      GEMMs dominate, so this isolates the BLAS single-precision win.

    Every timed path reports the best of ``repeats``.  The checked-in
    floors live in ``benchmarks/test_dtype_throughput.py``.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    rng = np.random.default_rng(seed)
    atol32, rtol32 = EQUIVALENCE_TOLERANCES["float32"]

    def timed(run):
        best = float("inf")
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = run()
            best = min(best, time.perf_counter() - start)
        return result, best

    # ------------------------------------------------------ AT per dtype
    # Noisy sinusoids (not white noise): the detector should find real
    # peak trains so the threshold recurrence runs its full workload.
    t = np.arange(window_length) / 32.0
    hr_hz = 1.0 + 1.5 * rng.random((n_windows, 1))
    windows64 = np.sin(2 * np.pi * hr_hz * t)
    windows64 += 0.3 * rng.standard_normal((n_windows, window_length))
    windows32 = windows64.astype(np.float32)

    def run_at(windows, dtype):
        # Pin the detector to the benchmark dtype the way the runtime
        # does (set_inference_dtype) — otherwise ``predict``'s boundary
        # coercion would silently cast the batch back to float64.
        at = AdaptiveThresholdPredictor().set_inference_dtype(dtype)

        def run():
            at.reset()
            return at.predict(windows)

        return run

    bpm64, at64_s = timed(run_at(windows64, "float64"))
    bpm32, at32_s = timed(run_at(windows32, "float32"))
    both = ~(np.isnan(bpm64) | np.isnan(bpm32))
    bpm_identical = bool(
        np.array_equal(np.isnan(bpm64), np.isnan(bpm32))
        and np.array_equal(bpm64[both], bpm32[both])
    )

    # ------------------------------------------------ TimePPG per dtype
    ppg = rng.standard_normal((n_nn_windows, TIMEPPG_SMALL_CONFIG.input_length))
    accel = rng.standard_normal((n_nn_windows, TIMEPPG_SMALL_CONFIG.input_length, 3))
    p64 = TimePPGPredictor(TIMEPPG_SMALL_CONFIG, seed=seed).freeze()
    p32 = TimePPGPredictor(TIMEPPG_SMALL_CONFIG, seed=seed).freeze(dtype="float32")
    batch64 = p64.prepare_input(ppg, accel)
    batch32 = p32.prepare_input(ppg, accel)
    # Mega-batch-scale chunks: small chunks are im2col-overhead bound,
    # which buries the single-precision GEMM win this path measures.
    chunks64 = [batch64[i : i + nn_chunk] for i in range(0, n_nn_windows, nn_chunk)]
    chunks32 = [batch32[i : i + nn_chunk] for i in range(0, n_nn_windows, nn_chunk)]

    def run_nn(frozen, chunks):
        def run():
            return np.concatenate([frozen.forward(c, training=False) for c in chunks])

        return run

    out64, nn64_s = timed(run_nn(p64._frozen, chunks64))
    out32, nn32_s = timed(run_nn(p32._frozen, chunks32))
    within_tolerance = bool(
        np.allclose(out32.astype(np.float64), out64, atol=atol32, rtol=rtol32)
    )

    return {
        "at": {
            "n_windows": int(n_windows),
            "window_length": int(window_length),
            "float64_seconds": at64_s,
            "float32_seconds": at32_s,
            "float64_windows_per_s": n_windows / at64_s,
            "float32_windows_per_s": n_windows / at32_s,
            "float32_speedup": at64_s / at32_s,
            "bpm_identical": bpm_identical,
        },
        "timeppg": {
            "variant": TIMEPPG_SMALL_CONFIG.name,
            "n_windows": int(n_nn_windows),
            "float64_seconds": nn64_s,
            "float32_seconds": nn32_s,
            "float64_windows_per_s": n_nn_windows / nn64_s,
            "float32_windows_per_s": n_nn_windows / nn32_s,
            "float32_speedup": nn64_s / nn32_s,
            "within_tolerance": within_tolerance,
            "atol": atol32,
            "rtol": rtol32,
        },
    }


def benchmark_scheduler(
    experiment,
    n_subjects: int = 50,
    n_windows_per_subject: int = 2_000,
    constraint: Constraint | None = None,
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """Measure online-scheduler throughput against sequential fleet replay.

    The same ``n_subjects`` x ``n_windows_per_subject`` fleet is replayed
    twice:

    * **sequential** — :func:`sequential_replay` (the same baseline
      :func:`benchmark_fleet` pins the mega path against);
    * **scheduler** — every subject submitted as a dynamic session to a
      :class:`~repro.core.scheduler.FleetScheduler`; the timing covers
      submission, batch dispatch and completion of the whole population
      (arrivals coalesce into mega-batches while the worker is busy,
      which is where the speedup comes from — not parallelism).

    Both paths start from deep-copied predictor state, and a
    ``decisions_identical`` flag confirms the scheduler reproduced the
    sequential decisions bit-exactly.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    constraint = constraint or Constraint.max_mae(5.60)
    subjects = synthetic_fleet(
        n_subjects=n_subjects, n_windows_per_subject=n_windows_per_subject, seed=seed
    )
    n_windows_total = sum(s.n_windows for s in subjects)
    configuration = experiment.engine.select_or_closest(constraint, connected=True)

    def timed(run):
        best = float("inf")
        result = None
        for _ in range(repeats):
            runtime = copy.deepcopy(experiment.runtime())
            start = time.perf_counter()
            result = run(runtime)
            best = min(best, time.perf_counter() - start)
        return result, best

    sequential, sequential_s = timed(
        lambda rt: sequential_replay(rt, subjects, constraint, use_oracle_difficulty=True)
    )

    # Construction (the scheduler's private runtime copy) happens outside
    # the timed window, mirroring the sequential path whose deep copy is
    # also untimed; the measurement covers submission through completion.
    scheduler_s = float("inf")
    sessions = None
    for _ in range(repeats):
        # FleetScheduler deep-copies the runtime itself; no outer copy.
        scheduler = FleetScheduler(
            experiment.runtime(), constraint, use_oracle_difficulty=True
        )
        try:
            start = time.perf_counter()
            sessions = [scheduler.submit(s.subject_id, s) for s in subjects]
            scheduler.join()
            scheduler_s = min(scheduler_s, time.perf_counter() - start)
        finally:
            scheduler.close()

    decisions_identical = all(
        session.state is SessionState.DONE
        and session.result == sequential.results[session.subject_id]
        for session in sessions
    )
    return {
        "n_subjects": int(n_subjects),
        "n_windows_per_subject": int(n_windows_per_subject),
        "n_windows_total": int(n_windows_total),
        "configuration": configuration.label(),
        "sequential_seconds": sequential_s,
        "scheduler_seconds": scheduler_s,
        "sequential_sessions_per_s": n_subjects / sequential_s,
        "scheduler_sessions_per_s": n_subjects / scheduler_s,
        "sequential_windows_per_s": n_windows_total / sequential_s,
        "scheduler_windows_per_s": n_windows_total / scheduler_s,
        "scheduler_speedup": sequential_s / scheduler_s,
        "mae_bpm": sequential.mae_bpm,
        "offload_fraction": sequential.offload_fraction,
        "decisions_identical": bool(decisions_identical),
    }


def benchmark_checkpoint(
    experiment,
    n_subjects: int = 50,
    n_windows_per_subject: int = 2_000,
    constraint: Constraint | None = None,
    seed: int = 0,
    pairs: int = 7,
    max_workers: int | None = None,
) -> dict:
    """Measure the durability tax of checkpointed fleet execution.

    The fleet replays on the stateful zoo (:func:`stateful_zoo`), whose
    per-window tracker work is the compute the ~125 staged bytes per
    window are weighed against, as on device, through a pooled
    :class:`~repro.core.fleet.FleetExecutor`:

    * **unstaged** — the executor without a ``checkpoint_dir``;
    * **checkpointed** — the same executor with a fresh ``checkpoint_dir``
      per run, paying journal writes and atomic shard staging;
    * **resume** — a run over a *completed* checkpoint directory: every
      shard loads from verified staged bytes, nothing executes.

    Unstaged and checkpointed runs alternate in ``pairs`` interleaved
    pairs, so each pair shares machine state (caches, frequency phase);
    ``checkpoint_relative_throughput`` is the median over pairs of
    unstaged / checkpointed wall time — the number the floor in
    ``benchmarks/test_checkpoint_throughput.py`` pins — with its range
    alongside.  Wall times are per-path medians.  Also reported: the
    resume speedup over re-execution and a ``decisions_identical`` flag
    confirming the checkpointed run and the resumed replay reproduced
    the unstaged results exactly.
    """
    if pairs <= 0:
        raise ValueError(f"pairs must be positive, got {pairs}")
    constraint = constraint or Constraint.max_mae(5.60)
    subjects = synthetic_fleet(
        n_subjects=n_subjects, n_windows_per_subject=n_windows_per_subject, seed=seed
    )
    n_windows_total = sum(s.n_windows for s in subjects)
    # Both sides must take the pooled shard path even on one-core boxes,
    # otherwise the unstaged run falls into the in-process fast path and
    # the comparison measures sharding, not durability.
    workers = max_workers if max_workers is not None else max(2, os.cpu_count() or 1)
    # Executors replay pristine copies of their runtime, so one runtime
    # serves every run.
    runtime = CHRISRuntime(
        zoo=stateful_zoo(experiment.zoo),
        engine=experiment.engine,
        system=experiment.system,
    )

    def run(checkpoint_dir):
        executor = FleetExecutor(
            runtime, max_workers=workers, checkpoint_dir=checkpoint_dir
        )
        start = time.perf_counter()
        fleet = executor.run_fleet(subjects, constraint, use_oracle_difficulty=True)
        return fleet, time.perf_counter() - start

    unstaged_times, checkpointed_times, resume_times = [], [], []
    unstaged = checkpointed = resumed = None
    for _ in range(pairs):
        unstaged, elapsed = run(None)
        unstaged_times.append(elapsed)
        with tempfile.TemporaryDirectory() as directory:
            checkpointed, elapsed = run(directory)
            checkpointed_times.append(elapsed)
            resumed, elapsed = run(directory)
            resume_times.append(elapsed)
    ratios = np.asarray(unstaged_times) / np.asarray(checkpointed_times)
    unstaged_s = float(np.median(unstaged_times))
    checkpointed_s = float(np.median(checkpointed_times))
    resume_s = float(np.median(resume_times))

    def identical(fleet) -> bool:
        return fleet.subject_ids == unstaged.subject_ids and all(
            fleet.results[sid] == unstaged.results[sid] for sid in fleet.subject_ids
        )

    return {
        "n_subjects": int(n_subjects),
        "n_windows_per_subject": int(n_windows_per_subject),
        "n_windows_total": int(n_windows_total),
        "workers": int(workers),
        "pairs": int(pairs),
        "unstaged_seconds": unstaged_s,
        "checkpointed_seconds": checkpointed_s,
        "resume_seconds": resume_s,
        "unstaged_windows_per_s": n_windows_total / unstaged_s,
        "checkpointed_windows_per_s": n_windows_total / checkpointed_s,
        "resume_windows_per_s": n_windows_total / resume_s,
        "checkpoint_relative_throughput": float(np.median(ratios)),
        "checkpoint_relative_throughput_min": float(ratios.min()),
        "checkpoint_relative_throughput_max": float(ratios.max()),
        "resume_speedup": checkpointed_s / resume_s,
        "decisions_identical": bool(identical(checkpointed) and identical(resumed)),
    }


def benchmark_latency(
    experiment,
    n_streams: int = 6,
    n_windows_per_stream: int = 120,
    arrival_rate_hz: float = 1_500.0,
    slo_s: float = 0.4,
    deadline_slack_s: float = 0.1,
    saturated_windows_per_stream: int = 1_500,
    constraint: Constraint | None = None,
    seed: int = 0,
    repeats: int = 5,
    clock=None,
    sleep=None,
) -> dict:
    """Measure online serving latency under the deadline batching policy.

    Two phases over the same synthetic arrival process (round-robin
    across ``n_streams`` open streams, exponential inter-arrival gaps at
    ``arrival_rate_hz``, seeded — the schedule is a pure function of
    ``seed``):

    * **paced** — every window is pushed at its scheduled arrival time
      through a ``policy="deadline"`` scheduler
      (:meth:`~repro.core.scheduler.FleetScheduler.open_stream`) and the
      per-window enqueue→dispatch→complete stamps are aggregated into
      p50/p95/p99 latency, achieved windows/sec and the deadline-miss
      fraction.  The serving contract under test: with the dispatcher
      releasing ``deadline_slack_s`` before the oldest deadline, p95
      completion latency stays under ``slo_s`` at the benchmark rate.
    * **saturated** — a larger workload (``saturated_windows_per_stream``
      windows per stream) is chunked into many short sessions and
      prefilled into a *paused* scheduler, identically under both
      policies, then the ``resume()``→``join()`` drain is timed.  The
      chunking makes the drain span dozens of release cycles, so the
      measurement is dominated by the dispatch machinery the policies
      differ in rather than by one vectorised mega-batch.  Deadline-mode
      throughput must hold ≥ 0.9x of drain mode: with the queue full,
      every release is triggered by batch fullness, so batching later
      must not cost throughput when there is no idle time to trade (a
      deadline dispatcher that held full batches back would collapse
      here).

    ``clock``/``sleep`` inject the time source
    (:class:`~repro.core.scheduler.VirtualClock` + its ``sleep``): the
    paced phase then pauses dispatch while the virtual schedule replays,
    so every timestamp — and therefore the whole latency block — is
    bit-deterministic run after run, the same ``Date``-free discipline
    as the fault harness.  Saturated throughput is always wall-clock
    (a virtual clock has no notion of execution speed).
    """
    if n_streams < 1:
        raise ValueError(f"n_streams must be >= 1, got {n_streams}")
    if arrival_rate_hz <= 0:
        raise ValueError(f"arrival_rate_hz must be > 0, got {arrival_rate_hz}")
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    constraint = constraint or Constraint.max_mae(5.60)
    virtual = clock is not None
    clock = clock if clock is not None else time.monotonic
    sleep = sleep if sleep is not None else time.sleep
    subjects = synthetic_fleet(
        n_subjects=n_streams,
        n_windows_per_subject=n_windows_per_stream,
        seed=seed,
    )
    n_windows_total = sum(s.n_windows for s in subjects)

    # The arrival process: stream k's w-th window arrives at offsets[k + w*n]
    # (round-robin keeps per-stream ordering; exponential gaps make the
    # aggregate Poisson-ish like real wearable traffic).
    rng = np.random.default_rng(seed)
    offsets = np.cumsum(rng.exponential(1.0 / arrival_rate_hz, size=n_windows_total))

    def open_serving_scheduler(policy: str, max_batch_size: int | None):
        return FleetScheduler(
            experiment.runtime(),
            constraint,
            max_batch_size=max_batch_size,
            use_oracle_difficulty=True,
            policy=policy,
            slo_s=slo_s,
            deadline_slack_s=deadline_slack_s,
            max_streams=n_streams,
            clock=clock if policy == "deadline" else None,
        )

    def push_all(workload, streams, paced: bool, start: float) -> None:
        event = 0
        for w in range(workload[0].n_windows):
            for subject, stream in zip(workload, streams):
                if paced:
                    delay = (start + offsets[event]) - clock()
                    if delay > 0:
                        sleep(delay)
                stream.push(
                    subject.ppg_windows[w],
                    subject.accel_windows[w],
                    activity=int(subject.activity[w]),
                    hr=float(subject.hr[w]),
                )
                event += 1

    # ------------------------------------------------------- paced phase
    scheduler = open_serving_scheduler("deadline", max_batch_size=None)
    try:
        streams = [scheduler.open_stream(s.subject_id) for s in subjects]
        if virtual:
            # Deterministic replay: hold dispatch while the virtual
            # schedule plays out, then release — every stamp becomes a
            # pure function of the seed instead of thread timing.
            scheduler.pause()
        start = clock()
        push_all(subjects, streams, paced=True, start=start)
        if virtual:
            # Virtual time stands still unless advanced: expire every
            # held deadline so the tail of the schedule dispatches (the
            # replay measures determinism, not wall-clock latency).
            sleep(slo_s)
            scheduler.resume()
        scheduler.join()
        paced_elapsed = max(clock() - start, 1e-9)
        stats = scheduler.latency_stats()
        for stream in streams:
            stream.close()
    finally:
        scheduler.close()

    # --------------------------------------------------- saturated phase
    # Chunked into many short sessions with unique ids, submitted
    # round-robin so every full batch mixes n_streams distinct subjects.
    # Prefilling while paused fixes the batch composition exactly (no
    # submitter/dispatcher race), so the two policies drain an identical
    # queue and the ratio isolates the release logic.
    chunk_windows = 25
    chunks: list[list[WindowedSubject]] = []
    for base in synthetic_fleet(
        n_subjects=n_streams,
        n_windows_per_subject=saturated_windows_per_stream,
        seed=seed,
    ):
        chunks.append(
            [
                dataclasses.replace(
                    base,
                    subject_id=f"{base.subject_id}#{c // chunk_windows}",
                    ppg_windows=base.ppg_windows[c : c + chunk_windows],
                    accel_windows=base.accel_windows[c : c + chunk_windows],
                    activity=base.activity[c : c + chunk_windows],
                    hr=base.hr[c : c + chunk_windows],
                )
                for c in range(0, base.n_windows, chunk_windows)
            ]
        )
    order = [rec for group in zip(*chunks) for rec in group]
    n_saturated_total = sum(rec.n_windows for rec in order)

    def saturated_drain(policy: str) -> float:
        sat = FleetScheduler(
            experiment.runtime(),
            constraint,
            max_batch_size=n_streams,
            use_oracle_difficulty=True,
            policy=policy,
            slo_s=slo_s,
            deadline_slack_s=deadline_slack_s,
        )
        try:
            sat.pause()
            for rec in order:
                sat.submit(rec.subject_id, rec)
            begin = time.perf_counter()
            sat.resume()
            sat.join()
            return time.perf_counter() - begin
        finally:
            sat.close()

    # Interleaved pairs share machine state (caches, thermal phase); the
    # ratio is the best pair, so it only sinks below 1 when the deadline
    # drain is slower in *every* pair — a policy cost, not OS jitter.
    drain_times = []
    deadline_times = []
    for _ in range(repeats):
        drain_times.append(saturated_drain("drain"))
        deadline_times.append(saturated_drain("deadline"))
    drain_windows_per_s = n_saturated_total / min(drain_times)
    deadline_windows_per_s = n_saturated_total / min(deadline_times)
    throughput_ratio = max(d / dl for d, dl in zip(drain_times, deadline_times))

    return {
        "n_streams": int(n_streams),
        "n_windows_per_stream": int(n_windows_per_stream),
        "n_windows_total": int(n_windows_total),
        "arrival_rate_hz": float(arrival_rate_hz),
        "slo_s": float(slo_s),
        "deadline_slack_s": float(deadline_slack_s),
        "saturated_windows_per_stream": int(saturated_windows_per_stream),
        "virtual_clock": bool(virtual),
        "p50_s": stats["complete_p50_s"],
        "p95_s": stats["complete_p95_s"],
        "p99_s": stats["complete_p99_s"],
        "dispatch_p95_s": stats["dispatch_p95_s"],
        "deadline_miss_fraction": stats["deadline_miss_fraction"],
        "achieved_windows_per_s": n_windows_total / paced_elapsed,
        "n_batches": stats["n_batches"],
        "mean_batch_windows": stats["mean_batch_windows"],
        "p95_within_slo": bool(stats["complete_p95_s"] <= slo_s),
        "drain_saturated_windows_per_s": drain_windows_per_s,
        "deadline_saturated_windows_per_s": deadline_windows_per_s,
        "deadline_throughput_ratio": throughput_ratio,
    }


def host_fingerprint() -> dict:
    """Cores, numpy version and BLAS of the measuring host."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def _spread(values) -> dict:
    """Median and interquartile range of a list of measurements."""
    q25, median, q75 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q25": float(q25), "q75": float(q75)}


#: ``(n_subjects, n_windows_per_subject)`` fleets :func:`benchmark_difficulty`
#: times: the benchmark's replay fleet and its one-window-per-stream serving tick.
DIFFICULTY_SHAPES = ((8, 537), (500, 1))
#: Interleaved rounds :func:`benchmark_difficulty` times per fleet.
DIFFICULTY_ROUNDS = 7


def benchmark_difficulty(experiment, reference) -> dict:
    """Fused fleet difficulty detection vs one reference call per subject.

    A paper-sized ``ActivityClassifier`` (8 trees, depth 5) is trained on
    one synthetic subject; the fleets of :data:`DIFFICULTY_SHAPES` are cut
    from a second subject's accelerometer windows.  Three sides are timed
    per fleet, in a rotating order within each of
    :data:`DIFFICULTY_ROUNDS` interleaved rounds:

    * ``fused`` — :meth:`~repro.core.runtime.CHRISRuntime._fleet_difficulties`,
      the one ``predict_difficulty`` call per plan the runtime makes;
    * ``per_subject`` — one ``predict_difficulty`` call per subject (the
      runtime's former call pattern on the current kernels);
    * ``reference`` — the detector ``reference(classifier)`` returns,
      called once per subject; the benchmarks pass the per-window feature
      loop and linked-tree walk the kernels replaced
      (``tests/ml/forest_oracle.py``).

    ``speedup`` is the median over rounds of reference time / fused time,
    with its interquartile range; ``labels_identical`` confirms all three
    sides labelled every window alike.
    """
    train, pool = SyntheticDaliaGenerator(
        SyntheticDatasetConfig(n_subjects=2, activity_duration_s=120.0, seed=0)
    ).generate_windowed().subjects
    classifier = ActivityClassifier(random_state=0).fit(train.accel_windows, train.activity)
    runtime = experiment.runtime(activity_classifier=classifier)
    reference_detector = reference(classifier)

    def fleet_of(n_subjects: int, n_windows: int) -> list[WindowedSubject]:
        subjects = []
        for i in range(n_subjects):
            rows = np.arange(i * n_windows, (i + 1) * n_windows) % pool.n_windows
            subjects.append(
                WindowedSubject(
                    subject_id=f"difficulty-{i:04d}",
                    ppg_windows=pool.ppg_windows[rows],
                    accel_windows=pool.accel_windows[rows],
                    activity=pool.activity[rows],
                    hr=pool.hr[rows],
                    spec=pool.spec,
                )
            )
        return subjects

    sides = {
        "fused": lambda fleet: [runtime._fleet_difficulties(fleet, False)],
        "per_subject": lambda fleet: [
            classifier.predict_difficulty(s.accel_windows) for s in fleet
        ],
        "reference": lambda fleet: [reference_detector(s.accel_windows) for s in fleet],
    }
    out: dict = {"host": host_fingerprint(), "pairs": DIFFICULTY_ROUNDS, "shapes": {}}
    for n_subjects, n_windows in DIFFICULTY_SHAPES:
        fleet = fleet_of(n_subjects, n_windows)
        total = n_subjects * n_windows
        times: dict[str, list[float]] = {name: [] for name in sides}
        labels: dict[str, np.ndarray] = {}
        names = list(sides)
        for round_ in range(DIFFICULTY_ROUNDS):
            for name in names[round_ % 3 :] + names[: round_ % 3]:
                start = time.perf_counter()
                result = sides[name](fleet)
                times[name].append(time.perf_counter() - start)
                labels[name] = np.concatenate(result)
        ratios = [r / f for r, f in zip(times["reference"], times["fused"])]
        block = {
            "n_subjects": int(n_subjects),
            "n_windows_per_subject": int(n_windows),
            "n_windows_total": int(total),
            "speedup": _spread(ratios),
            "labels_identical": bool(
                np.array_equal(labels["fused"], labels["reference"])
                and np.array_equal(labels["per_subject"], labels["reference"])
            ),
        }
        for name in names:
            block[f"{name}_windows_per_s"] = _spread([total / t for t in times[name]])
        out["shapes"][f"{n_subjects}x{n_windows}"] = block
    return out


#: Stream counts :func:`benchmark_serving_scale` bursts one window from each.
SERVING_SCALE_STREAMS = (100, 1_000, 10_000)
#: Interleaved rounds :func:`benchmark_serving_scale` times per stream count.
SERVING_SCALE_ROUNDS = 7


def benchmark_serving_scale(experiment) -> dict:
    """Serving throughput of one-window-per-stream bursts, against one recording.

    For each stream count ``N`` of :data:`SERVING_SCALE_STREAMS`, one
    drain :class:`~repro.core.scheduler.FleetScheduler` over the
    calibrated zoo (oracle difficulty) serves ``N`` open streams.  Each of
    :data:`SERVING_SCALE_ROUNDS` rounds times two sides, in alternating
    order, on the same ``N`` windows:

    * ``burst`` — with the dispatcher paused, every stream pushes one
      window; the time from ``resume()`` to the last session resolving;
    * ``recording`` — with the dispatcher paused, the windows are
      ``submit``-ted as one ``N``-window recording; the same span.

    Push and submit time are excluded from both, and reported apart as
    ``push_windows_per_s``.  ``burst_to_recording`` is the per-round
    ratio of burst to recording windows/s: both sides run the same
    routing and models inside one pass, so what the ratio shows is the
    per-session cost of serving ``N`` sessions instead of one, with host
    drift cancelled.  Every statistic is a median with its interquartile
    range; ``routing_identical`` confirms both sides routed and costed
    every window alike.
    """
    constraint = Constraint.max_mae(5.60)
    out: dict = {"host": host_fingerprint(), "rounds": SERVING_SCALE_ROUNDS, "shapes": {}}
    for n_streams in SERVING_SCALE_STREAMS:
        recording = synthetic_workload(n_windows=n_streams, window_length=16, seed=n_streams)
        scheduler = FleetScheduler(
            experiment.runtime(), constraint, use_oracle_difficulty=True, max_streams=n_streams
        )
        times: dict[str, list[float]] = {"burst": [], "recording": [], "push": []}
        routing_identical = True
        try:
            streams = [scheduler.open_stream(f"stream-{i:05d}") for i in range(n_streams)]

            def burst(round_: int) -> list:
                start = time.perf_counter()
                sessions = [
                    stream.push(
                        recording.ppg_windows[i],
                        recording.accel_windows[i],
                        activity=int(recording.activity[i]),
                        hr=float(recording.hr[i]),
                    )
                    for i, stream in enumerate(streams)
                ]
                times["push"].append(time.perf_counter() - start)
                return sessions

            def one_recording(round_: int) -> list:
                return [scheduler.submit(f"recording-{round_}", recording)]

            sides = [("burst", burst), ("recording", one_recording)]
            for round_ in range(SERVING_SCALE_ROUNDS):
                served = {}
                for name, side in sides[round_ % 2 :] + sides[: round_ % 2]:
                    scheduler.pause()
                    sessions = side(round_)
                    start = time.perf_counter()
                    scheduler.resume()
                    scheduler.join()
                    times[name].append(time.perf_counter() - start)
                    served[name] = [session.result for session in sessions]
                routing_identical &= all(
                    np.array_equal(
                        np.concatenate([getattr(r, field) for r in served["burst"]]),
                        getattr(served["recording"][0], field),
                    )
                    for field in (
                        "model_names",
                        "offloaded",
                        "watch_compute_j",
                        "watch_radio_j",
                        "watch_idle_j",
                        "phone_compute_j",
                        "latency_s",
                    )
                )
        finally:
            scheduler.close()
        ratios = [r / b for b, r in zip(times["burst"], times["recording"])]
        out["shapes"][f"{n_streams}x1"] = {
            "n_streams": int(n_streams),
            "burst_windows_per_s": _spread([n_streams / t for t in times["burst"]]),
            "recording_windows_per_s": _spread([n_streams / t for t in times["recording"]]),
            "push_windows_per_s": _spread([n_streams / t for t in times["push"]]),
            "burst_to_recording": _spread(ratios),
            "routing_identical": bool(routing_identical),
        }
    return out


#: The offline set-up :func:`benchmark_setup` times, as the benchmark
#: pipeline runs it: ``CalibratedExperiment.build(seed=0, n_subjects=4,
#: activity_duration_s=40.0)`` (classifier trained on the first half of
#: its corpus, configurations profiled on the rest) plus a classifier on
#: a 2-subject x 60 s corpus and frozen TimePPG-Small/Big.
SETUP_EXPERIMENT_CORPUS = SyntheticDatasetConfig(n_subjects=4, activity_duration_s=40.0, seed=0)
SETUP_CLASSIFIER_CORPUS = SyntheticDatasetConfig(
    n_subjects=2, activity_duration_s=60.0, seed=20230417
)
#: Rounds :func:`benchmark_setup` times.
SETUP_ROUNDS = 7


def _setup_stages() -> dict[str, float]:
    """Seconds of each stage of one offline set-up."""
    times = {}
    start = time.perf_counter()
    corpus = SyntheticDaliaGenerator(SETUP_EXPERIMENT_CORPUS).generate_windowed()
    classifier_train = SyntheticDaliaGenerator(SETUP_CLASSIFIER_CORPUS).generate_windowed()
    times["synthesis_s"] = time.perf_counter() - start

    start = time.perf_counter()
    half = len(corpus.subjects) // 2
    train = WindowedDataset(corpus.subjects[:half]).concatenated()
    classifier = ActivityClassifier(random_state=0).fit(train.accel_windows, train.activity)
    train = classifier_train.concatenated()
    ActivityClassifier(random_state=0).fit(train.accel_windows, train.activity)
    times["forest_fit_s"] = time.perf_counter() - start

    from repro.eval.experiment import build_calibrated_zoo  # experiment imports this module

    start = time.perf_counter()
    zoo = build_calibrated_zoo(seed=0)
    for config in (TIMEPPG_SMALL_CONFIG, TIMEPPG_BIG_CONFIG):
        TimePPGPredictor(config, seed=0).freeze()
    times["zoo_build_freeze_s"] = time.perf_counter() - start

    start = time.perf_counter()
    profiling = WindowedDataset(corpus.subjects[half:]).concatenated()
    data = ProfilingData.from_zoo_predictions(zoo, profiling, activity_classifier=classifier)
    ConfigurationProfiler(zoo, WearableSystem()).profile_all(data)
    times["profiling_s"] = time.perf_counter() - start
    return times


def benchmark_setup(reference_split_search) -> dict:
    """Offline set-up seconds per stage, and the forest fit vs a reference search.

    ``stages`` holds the median and interquartile range over
    :data:`SETUP_ROUNDS` rounds of each stage of the set-up described at
    :data:`SETUP_EXPERIMENT_CORPUS` (synthesis, forest fits, zoo build
    and TimePPG freeze, configuration profiling) and of their sum.

    ``forest_fit`` times the paper's 8-tree, depth-5 forest on the
    classifier corpus's features, alternating each round between the
    shipped split search and the one ``reference_split_search()`` (a
    context manager) swaps in; the benchmarks pass the per-threshold
    loop of ``tests/ml/split_oracle.py``.  ``speedup`` is the median of
    the per-round reference / shipped time ratios; ``nodes_identical``
    confirms both fits built the same node arrays.
    """
    rounds_times = [_setup_stages() for _ in range(SETUP_ROUNDS)]
    stages = {name: _spread([r[name] for r in rounds_times]) for name in rounds_times[0]}
    stages["total_s"] = _spread([sum(r.values()) for r in rounds_times])

    train = SyntheticDaliaGenerator(SETUP_CLASSIFIER_CORPUS).generate_windowed().concatenated()
    features = ActivityClassifier().extract_features(train.accel_windows)
    features = (features - features.mean(axis=0)) / (features.std(axis=0) + 1e-12)

    def fit():
        return RandomForestClassifier(n_estimators=8, max_depth=5, random_state=0).fit(
            features, train.activity, n_classes=len(ACTIVITIES)
        )

    searches = {"shipped": contextlib.nullcontext, "reference": reference_split_search}
    times: dict[str, list[float]] = {name: [] for name in searches}
    forests = {}
    for round_ in range(SETUP_ROUNDS):
        for name in list(searches)[:: 1 if round_ % 2 == 0 else -1]:
            start = time.perf_counter()
            with searches[name]():
                forests[name] = fit()
            times[name].append(time.perf_counter() - start)
    shipped, reference = forests["shipped"], forests["reference"]
    nodes_identical = all(
        np.array_equal(getattr(shipped, name), getattr(reference, name), equal_nan=True)
        for name in ("_feature", "_threshold", "_left", "_right", "_value", "_roots")
    )
    return {
        "host": host_fingerprint(),
        "rounds": SETUP_ROUNDS,
        "stages": stages,
        "forest_fit": {
            "n_samples": int(features.shape[0]),
            "shipped_s": _spread(times["shipped"]),
            "reference_s": _spread(times["reference"]),
            "speedup": _spread([r / v for r, v in zip(times["reference"], times["shipped"])]),
            "nodes_identical": bool(nodes_identical),
        },
    }
