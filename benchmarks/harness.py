"""Throughput benchmarks of the CHRIS engine.

Shared by the floor tests in this directory and the perf-trajectory
summary script (``benchmarks/summarize_runtime.py``): both measure the
same fixed synthetic workloads (:mod:`repro.eval.workloads`), so the
numbers are comparable across changes.

Every block is timed by :func:`time_sides`: named sides in interleaved
rounds, each round led by the next side, with untimed per-side set-up
and a full garbage collection before each timed call.  Each block keeps
its statistic: best-of-N blocks report the minimum of their samples,
paired blocks the median of per-round ratios.  The fast paths are
compared against the per-window oracle
(``tests/core/scalar_oracle.py``) or against
:func:`~repro.eval.workloads.sequential_replay`, a loop of per-subject
:meth:`~repro.core.runtime.CHRISRuntime.run` calls, and each block
checks that both sides decided every window alike.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import gc
import itertools
import os
import tempfile
import time
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.decision_engine import Constraint
from repro.core.fleet import FleetExecutor
from repro.core.profiling import ConfigurationProfiler, ProfilingData
from repro.core.runtime import EQUIVALENCE_TOLERANCES, CHRISRuntime
from repro.core.scheduler import FleetScheduler, SessionState
from repro.core.zoo import ModelsZoo, ZooEntry
from repro.data.activities import ACTIVITIES
from repro.data.dataset import WindowedDataset, WindowedSubject
from repro.data.synthetic import SyntheticDaliaGenerator, SyntheticDatasetConfig
from repro.eval.experiment import build_calibrated_zoo
from repro.eval.workloads import (
    sequential_replay,
    stateful_zoo,
    synthetic_fleet,
    synthetic_workload,
)
from repro.hw.platform import WearableSystem
from repro.ml.activity_classifier import ActivityClassifier
from repro.ml.random_forest import RandomForestClassifier
from repro.models.adaptive_threshold import AdaptiveThresholdPredictor
from repro.models.timeppg import (
    TIMEPPG_BIG_CONFIG,
    TIMEPPG_SMALL_CONFIG,
    TimePPGConfig,
    TimePPGPredictor,
)
from tests.core.scalar_oracle import run_scalar_oracle


@dataclass(frozen=True)
class Side:
    """One timed side: ``run(setup())`` is timed, ``setup`` and ``teardown`` are not."""

    run: Callable[[Any], Any]
    setup: Callable[[], Any] = lambda: None
    teardown: Callable[[Any], None] = lambda state: None


@dataclass
class Timing:
    """A side's wall times, one per round, and its last round's result."""

    samples: list[float]
    result: Any = None


def time_sides(sides: Mapping[str, Side], rounds: int) -> dict[str, Timing]:
    """Time named sides in ``rounds`` interleaved rounds.

    Round ``r`` runs the sides in mapping order rotated left by ``r``, so
    every side leads in turn and host drift falls on all of them alike.
    Before each timed call the side's ``setup`` runs, then a full
    ``gc.collect()``, so every side starts from the same collector state
    and no collection owed to earlier garbage lands in its timing.
    ``teardown`` runs after the timed call, also untimed; a side that
    needs every round's result, not only the last, collects it there.

    The objects that exist when the call starts (the caller's heap: in a
    test run, every earlier test's survivors) are frozen out of the
    collector until it returns.  Collections then traverse only what the
    sides allocate, so they cost the same whatever ran before, and the
    per-call ``gc.collect()`` takes milliseconds, not the ~0.2 s a full
    pass over a test process's heap takes.  Because it freezes and thaws
    the whole heap, the helper does not nest: it raises if the collector
    already holds frozen objects.
    """
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    if gc.get_freeze_count():
        raise RuntimeError("time_sides does not nest: the collector already holds frozen objects")
    names = list(sides)
    timings = {name: Timing([]) for name in names}
    gc.collect()
    gc.freeze()
    try:
        for round_ in range(rounds):
            lead = round_ % len(names)
            for name in names[lead:] + names[:lead]:
                side = sides[name]
                state = side.setup()
                try:
                    gc.collect()
                    start = perf_counter()
                    result = side.run(state)
                    timings[name].samples.append(perf_counter() - start)
                finally:
                    side.teardown(state)
                timings[name].result = result
    finally:
        gc.unfreeze()
    return timings


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


def _fleets_identical(fleet, reference) -> bool:
    """Whether ``fleet`` holds the same subjects and results as ``reference``."""
    return fleet.subject_ids == reference.subject_ids and all(
        fleet.results[sid] == reference.results[sid] for sid in fleet.subject_ids
    )


def benchmark_runtime(
    experiment,
    n_windows: int = 10_000,
    constraint: Constraint | None = None,
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """Measure per-window oracle vs. runtime throughput on one workload.

    ``experiment`` is a :class:`~repro.eval.experiment.CalibratedExperiment`
    whose zoo, engine and system are replayed on a ``n_windows``
    :func:`~repro.eval.workloads.synthetic_workload` (10k windows ≈ 5.5 h
    of recording at the paper's 2-second stride) under ``constraint``
    (the paper's headline MAE ≤ 5.60 BPM bound when omitted).  Each path
    reports the best of ``repeats`` wall times.

    Returns a JSON-serializable dict with both throughputs (``batched_*``
    is :meth:`~repro.core.runtime.CHRISRuntime.run_with_configuration`),
    the speedup, the runtime's MAE / offload / energy statistics, and a
    ``routing_identical`` flag confirming both paths made the same
    per-window decisions.
    """
    constraint = constraint or Constraint.max_mae(5.60)
    workload = synthetic_workload(n_windows=n_windows, seed=seed)
    runtime = experiment.runtime()
    configuration = experiment.engine.select_or_closest(constraint, connected=True)

    def oracle(_):
        plan = runtime._plan_configured(workload, configuration, True)
        return run_scalar_oracle(runtime, workload, plan)

    timings = time_sides(
        {
            "scalar": Side(oracle),
            "batched": Side(
                lambda _: runtime.run_with_configuration(
                    workload, configuration, use_oracle_difficulty=True
                )
            ),
        },
        repeats,
    )
    scalar, batched = timings["scalar"].result, timings["batched"].result
    scalar_s, batched_s = min(timings["scalar"].samples), min(timings["batched"].samples)

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

    * **sequential** — :func:`~repro.eval.workloads.sequential_replay`,
      one ``run`` per subject;
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
    constraint = constraint or Constraint.max_mae(5.60)
    subjects = synthetic_fleet(
        n_subjects=n_subjects, n_windows_per_subject=n_windows_per_subject, seed=seed
    )
    n_windows_total = sum(s.n_windows for s in subjects)
    workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
    configuration = experiment.engine.select_or_closest(constraint, connected=True)

    def fresh_runtime() -> CHRISRuntime:
        return copy.deepcopy(experiment.runtime())

    timings = time_sides(
        {
            "sequential": Side(
                lambda rt: sequential_replay(rt, subjects, constraint, use_oracle_difficulty=True),
                fresh_runtime,
            ),
            "mega": Side(
                lambda rt: rt.run_many(subjects, constraint, use_oracle_difficulty=True),
                fresh_runtime,
            ),
            "pool": Side(
                lambda rt: FleetExecutor(rt, max_workers=workers).run_fleet(
                    subjects, constraint, use_oracle_difficulty=True
                ),
                fresh_runtime,
            ),
        },
        repeats,
    )
    sequential_s, mega_s, pool_s = (
        min(timings[name].samples) for name in ("sequential", "mega", "pool")
    )
    sequential, mega = timings["sequential"].result, timings["mega"].result

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
        "decisions_identical": bool(
            _fleets_identical(mega, sequential)
            and _fleets_identical(timings["pool"].result, sequential)
        ),
    }


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

    The whole zoo is made stateful
    (:func:`~repro.eval.workloads.stateful_zoo`: a spectral tracker plus
    smoothed calibrated trackers, all ``FLEET_BATCHABLE = False``), so
    *every* window rides the stateful dispatch.  Two paths replay the
    same fleet from identical predictor state:

    * **sequential** — :func:`~repro.eval.workloads.sequential_replay`,
      one ``run`` (one one-slot ``predict_fleet`` per model) per subject;
    * **stacked** — ``run_many``: one fused ``predict_fleet`` call per
      model — state-free work (spectra, error draws) vectorized over the
      whole stack, the tracking recurrences advancing all subjects in
      lock-step.

    Each path reports the best of ``repeats``, and a
    ``decisions_identical`` flag confirms the two replayed every window
    bit-identically.
    """
    constraint = constraint or Constraint.max_mae(5.60)
    subjects = synthetic_fleet(
        n_subjects=n_subjects, n_windows_per_subject=n_windows_per_subject, seed=seed
    )
    n_windows_total = sum(s.n_windows for s in subjects)
    configuration = experiment.engine.select_or_closest(constraint, connected=True)
    zoo = stateful_zoo(experiment.zoo, smoothing=smoothing)

    def fresh_runtime() -> CHRISRuntime:
        return CHRISRuntime(
            zoo=copy.deepcopy(zoo), engine=experiment.engine, system=experiment.system
        )

    timings = time_sides(
        {
            "sequential": Side(
                lambda rt: sequential_replay(rt, subjects, constraint, use_oracle_difficulty=True),
                fresh_runtime,
            ),
            "stacked": Side(
                lambda rt: rt.run_many(subjects, constraint, use_oracle_difficulty=True),
                fresh_runtime,
            ),
        },
        repeats,
    )
    sequential_s = min(timings["sequential"].samples)
    stacked_s = min(timings["stacked"].samples)
    stacked = timings["stacked"].result
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
        "decisions_identical": bool(
            _fleets_identical(stacked, timings["sequential"].result)
        ),
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
    * **Fused fleet** — a fleet whose TimePPG-Big is a real TCN
      (:func:`timeppg_zoo`), replayed by ``run_many`` (one fused
      cross-subject forward per model) against
      :func:`~repro.eval.workloads.sequential_replay` (one ``run`` per
      subject), with a ``decisions_identical`` flag: the two must be
      bit-identical.  The two are timed in ``repeats`` interleaved pairs
      and ``speedup`` is the median of the per-pair ratios.

    The AT and TimePPG paths report the best of ``repeats``; the scalar
    AT reference is timed once (a multi-second measurement).
    """
    rng = np.random.default_rng(seed)

    # ------------------------------------------------------------- AT batched
    at_windows = rng.standard_normal((n_windows, window_length))
    at = AdaptiveThresholdPredictor()
    at_scalar = time_sides(
        {"scalar": Side(lambda _: np.array([at.predict_window(w) for w in at_windows]), at.reset)},
        1,
    )["scalar"]
    at_batched = time_sides(
        {"batched": Side(lambda _: at.predict(at_windows), at.reset)}, repeats
    )["batched"]
    at_scalar_s, at_batched_s = at_scalar.samples[0], min(at_batched.samples)
    at_bit_identical = bool(np.array_equal(at_scalar.result, at_batched.result))

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
    nn = time_sides(
        {
            "training": Side(
                lambda _: np.concatenate(
                    [predictor.network.forward(c, training=True) for c in chunks]
                )
            ),
            "inference": Side(
                lambda _: np.concatenate([frozen.forward(c, training=False) for c in chunks])
            ),
        },
        repeats,
    )
    nn_training_s = min(nn["training"].samples)
    nn_inference_s = min(nn["inference"].samples)
    atol, rtol = EQUIVALENCE_TOLERANCES["float64"]
    outputs_equal = bool(np.allclose(nn["inference"].result, eval_out, atol=atol, rtol=rtol))

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

    fleet = time_sides(
        {
            "fused": Side(
                lambda rt: rt.run_many(subjects, constraint, use_oracle_difficulty=True),
                fleet_runtime,
            ),
            "sequential": Side(
                lambda rt: sequential_replay(rt, subjects, constraint, use_oracle_difficulty=True),
                fleet_runtime,
            ),
        },
        repeats,
    )
    fused_s, sequential_s = fleet["fused"].samples, fleet["sequential"].samples
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
            "decisions_identical": bool(
                _fleets_identical(fleet["fused"].result, fleet["sequential"].result)
            ),
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
      equivalence bound (:data:`~repro.core.runtime.EQUIVALENCE_TOLERANCES`).
      The frozen GEMMs dominate, so this isolates the BLAS
      single-precision win.

    Every timed path reports the best of ``repeats``.  The checked-in
    floors live in ``benchmarks/test_dtype_throughput.py``.
    """
    rng = np.random.default_rng(seed)
    atol32, rtol32 = EQUIVALENCE_TOLERANCES["float32"]

    # ------------------------------------------------------ AT per dtype
    # Noisy sinusoids (not white noise): the detector should find real
    # peak trains so the threshold recurrence runs its full workload.
    t = np.arange(window_length) / 32.0
    hr_hz = 1.0 + 1.5 * rng.random((n_windows, 1))
    windows64 = np.sin(2 * np.pi * hr_hz * t)
    windows64 += 0.3 * rng.standard_normal((n_windows, window_length))
    windows32 = windows64.astype(np.float32)

    def at_side(windows, dtype) -> Side:
        # Pin the detector to the benchmark dtype the way the runtime
        # does (set_inference_dtype) — otherwise ``predict``'s boundary
        # coercion would silently cast the batch back to float64.
        at = AdaptiveThresholdPredictor().set_inference_dtype(dtype)
        return Side(lambda _: at.predict(windows), at.reset)

    at = time_sides(
        {"float64": at_side(windows64, "float64"), "float32": at_side(windows32, "float32")},
        repeats,
    )
    bpm64, bpm32 = at["float64"].result, at["float32"].result
    at64_s, at32_s = min(at["float64"].samples), min(at["float32"].samples)
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

    def nn_side(predictor) -> Side:
        batch = predictor.prepare_input(ppg, accel)
        # Mega-batch-scale chunks: small chunks are im2col-overhead bound,
        # which buries the single-precision GEMM win this path measures.
        chunks = [batch[i : i + nn_chunk] for i in range(0, n_nn_windows, nn_chunk)]
        frozen = predictor._frozen
        return Side(
            lambda _: np.concatenate([frozen.forward(c, training=False) for c in chunks])
        )

    nn = time_sides({"float64": nn_side(p64), "float32": nn_side(p32)}, repeats)
    out64, out32 = nn["float64"].result, nn["float32"].result
    nn64_s, nn32_s = min(nn["float64"].samples), min(nn["float32"].samples)
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

    * **sequential** — :func:`~repro.eval.workloads.sequential_replay`
      (the same baseline :func:`benchmark_fleet` pins the mega path
      against);
    * **scheduler** — every subject submitted as a dynamic session to a
      :class:`~repro.core.scheduler.FleetScheduler`; the timing covers
      submission, batch dispatch and completion of the whole population
      (arrivals coalesce into mega-batches while the worker is busy,
      which is where the speedup comes from — not parallelism).

    Both paths start from deep-copied predictor state (the scheduler
    copies its runtime itself), built outside the timed window, and a
    ``decisions_identical`` flag confirms the scheduler reproduced the
    sequential decisions bit-exactly.
    """
    constraint = constraint or Constraint.max_mae(5.60)
    subjects = synthetic_fleet(
        n_subjects=n_subjects, n_windows_per_subject=n_windows_per_subject, seed=seed
    )
    n_windows_total = sum(s.n_windows for s in subjects)
    configuration = experiment.engine.select_or_closest(constraint, connected=True)

    def submit_all(scheduler: FleetScheduler) -> list:
        sessions = [scheduler.submit(s.subject_id, s) for s in subjects]
        scheduler.join()
        return sessions

    timings = time_sides(
        {
            "sequential": Side(
                lambda rt: sequential_replay(rt, subjects, constraint, use_oracle_difficulty=True),
                lambda: copy.deepcopy(experiment.runtime()),
            ),
            "scheduler": Side(
                submit_all,
                lambda: FleetScheduler(
                    experiment.runtime(), constraint, use_oracle_difficulty=True
                ),
                FleetScheduler.close,
            ),
        },
        repeats,
    )
    sequential_s = min(timings["sequential"].samples)
    scheduler_s = min(timings["scheduler"].samples)
    sequential = timings["sequential"].result

    decisions_identical = all(
        session.state is SessionState.DONE
        and session.result == sequential.results[session.subject_id]
        for session in timings["scheduler"].result
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

    The fleet replays on the stateful zoo
    (:func:`~repro.eval.workloads.stateful_zoo`), whose per-window
    tracker work is the compute the ~125 staged bytes per window are
    weighed against, as on device, through a pooled
    :class:`~repro.core.fleet.FleetExecutor`:

    * **unstaged** — the executor without a ``checkpoint_dir``;
    * **checkpointed** — the same executor with a fresh ``checkpoint_dir``
      per run, paying journal writes and atomic shard staging;
    * **resume** — a run over the *completed* checkpoint directory the
      checkpointed run just left: every shard loads from verified staged
      bytes, nothing executes.  It runs once per pair, in the
      checkpointed side's teardown, because it needs the directory that
      side's run left; it is timed there with its own clock stamps, not
      as a :func:`time_sides` side.

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
        executor = FleetExecutor(runtime, max_workers=workers, checkpoint_dir=checkpoint_dir)
        return executor.run_fleet(subjects, constraint, use_oracle_difficulty=True)

    resume_times: list[float] = []
    resumed = None

    def resume_then_remove(directory: tempfile.TemporaryDirectory) -> None:
        nonlocal resumed
        try:
            start = perf_counter()
            resumed = run(directory.name)
            resume_times.append(perf_counter() - start)
        finally:
            directory.cleanup()

    timings = time_sides(
        {
            "unstaged": Side(lambda _: run(None)),
            "checkpointed": Side(
                lambda directory: run(directory.name),
                tempfile.TemporaryDirectory,
                resume_then_remove,
            ),
        },
        pairs,
    )
    unstaged_times = timings["unstaged"].samples
    checkpointed_times = timings["checkpointed"].samples
    ratios = np.asarray(unstaged_times) / np.asarray(checkpointed_times)
    unstaged_s = float(np.median(unstaged_times))
    checkpointed_s = float(np.median(checkpointed_times))
    resume_s = float(np.median(resume_times))
    unstaged = timings["unstaged"].result

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
        "decisions_identical": bool(
            _fleets_identical(timings["checkpointed"].result, unstaged)
            and _fleets_identical(resumed, unstaged)
        ),
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
      This phase is not a :func:`time_sides` side: its stamps come from
      the scheduler on ``clock``, which may be virtual.
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

    # ------------------------------------------------------- paced phase
    scheduler = FleetScheduler(
        experiment.runtime(),
        constraint,
        use_oracle_difficulty=True,
        policy="deadline",
        slo_s=slo_s,
        deadline_slack_s=deadline_slack_s,
        max_streams=n_streams,
        clock=clock,
    )
    try:
        streams = [scheduler.open_stream(s.subject_id) for s in subjects]
        if virtual:
            # Deterministic replay: hold dispatch while the virtual
            # schedule plays out, then release — every stamp becomes a
            # pure function of the seed instead of thread timing.
            scheduler.pause()
        start = clock()
        event = 0
        for w in range(n_windows_per_stream):
            for subject, stream in zip(subjects, streams):
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

    def prefilled(policy: str) -> Side:
        def setup() -> FleetScheduler:
            sat = FleetScheduler(
                experiment.runtime(),
                constraint,
                max_batch_size=n_streams,
                use_oracle_difficulty=True,
                policy=policy,
                slo_s=slo_s,
                deadline_slack_s=deadline_slack_s,
            )
            sat.pause()
            for rec in order:
                sat.submit(rec.subject_id, rec)
            return sat

        def drain(sat: FleetScheduler) -> None:
            sat.resume()
            sat.join()

        return Side(drain, setup, FleetScheduler.close)

    saturated = time_sides(
        {"drain": prefilled("drain"), "deadline": prefilled("deadline")}, repeats
    )
    drain_times, deadline_times = saturated["drain"].samples, saturated["deadline"].samples
    drain_windows_per_s = n_saturated_total / min(drain_times)
    deadline_windows_per_s = n_saturated_total / min(deadline_times)
    # Interleaved pairs share machine state (caches, thermal phase); the
    # ratio is the best pair, so it only sinks below 1 when the deadline
    # drain is slower in *every* pair — a policy cost, not OS jitter.
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
    per fleet, in :data:`DIFFICULTY_ROUNDS` interleaved rounds:

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

    out: dict = {"host": host_fingerprint(), "pairs": DIFFICULTY_ROUNDS, "shapes": {}}
    for n_subjects, n_windows in DIFFICULTY_SHAPES:
        fleet = fleet_of(n_subjects, n_windows)
        total = n_subjects * n_windows
        timings = time_sides(
            {
                "fused": Side(lambda _: [runtime._fleet_difficulties(fleet, False)]),
                "per_subject": Side(
                    lambda _: [classifier.predict_difficulty(s.accel_windows) for s in fleet]
                ),
                "reference": Side(lambda _: [reference_detector(s.accel_windows) for s in fleet]),
            },
            DIFFICULTY_ROUNDS,
        )
        labels = {name: np.concatenate(timing.result) for name, timing in timings.items()}
        ratios = [
            r / f for r, f in zip(timings["reference"].samples, timings["fused"].samples)
        ]
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
        for name, timing in timings.items():
            block[f"{name}_windows_per_s"] = _spread([total / t for t in timing.samples])
        out["shapes"][f"{n_subjects}x{n_windows}"] = block
    return out


#: Stream counts :func:`benchmark_serving_scale` bursts one window from each.
SERVING_SCALE_STREAMS = (100, 1_000, 10_000)
#: Interleaved rounds :func:`benchmark_serving_scale` times per stream count.
SERVING_SCALE_ROUNDS = 7

#: Result columns both serving-scale sides must produce alike.
_ROUTING_FIELDS = (
    "model_names",
    "offloaded",
    "watch_compute_j",
    "watch_radio_j",
    "watch_idle_j",
    "phone_compute_j",
    "latency_s",
)


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

    Push and submit time are excluded from both; the pushes are stamped
    apart, in the burst side's set-up, as ``push_windows_per_s``.
    ``burst_to_recording`` is the per-round ratio of burst to recording
    windows/s: both sides run the same routing and models inside one
    pass, so what the ratio shows is the per-session cost of serving
    ``N`` sessions instead of one, with host drift cancelled.  Every statistic is a median with its
    interquartile range; ``routing_identical`` confirms both sides routed
    and costed every window alike in every round.
    """
    constraint = Constraint.max_mae(5.60)
    out: dict = {"host": host_fingerprint(), "rounds": SERVING_SCALE_ROUNDS, "shapes": {}}
    for n_streams in SERVING_SCALE_STREAMS:
        recording = synthetic_workload(n_windows=n_streams, window_length=16, seed=n_streams)
        scheduler = FleetScheduler(
            experiment.runtime(), constraint, use_oracle_difficulty=True, max_streams=n_streams
        )
        pushes: list[float] = []
        recordings = itertools.count()
        # Per round, each side's routing fields over its windows, in order.
        routed: dict[str, list[list[np.ndarray]]] = {"burst": [], "recording": []}
        try:
            streams = [scheduler.open_stream(f"stream-{i:05d}") for i in range(n_streams)]

            def paused_burst() -> list:
                scheduler.pause()
                start = perf_counter()
                sessions = [
                    stream.push(
                        recording.ppg_windows[i],
                        recording.accel_windows[i],
                        activity=int(recording.activity[i]),
                        hr=float(recording.hr[i]),
                    )
                    for i, stream in enumerate(streams)
                ]
                pushes.append(perf_counter() - start)
                return sessions

            def paused_recording() -> list:
                scheduler.pause()
                return [scheduler.submit(f"recording-{next(recordings)}", recording)]

            def serve(_) -> None:
                scheduler.resume()
                scheduler.join()

            def keep_routing(name: str) -> Callable[[list], None]:
                def keep(sessions: list) -> None:
                    results = [session.result for session in sessions]
                    routed[name].append(
                        [
                            np.concatenate([getattr(result, field) for result in results])
                            for field in _ROUTING_FIELDS
                        ]
                    )

                return keep

            timings = time_sides(
                {
                    "burst": Side(serve, paused_burst, keep_routing("burst")),
                    "recording": Side(serve, paused_recording, keep_routing("recording")),
                },
                SERVING_SCALE_ROUNDS,
            )
        finally:
            scheduler.close()
        routing_identical = all(
            np.array_equal(burst_field, whole_field)
            for burst, whole in zip(routed["burst"], routed["recording"], strict=True)
            for burst_field, whole_field in zip(burst, whole)
        )
        burst_s, recording_s = timings["burst"].samples, timings["recording"].samples
        out["shapes"][f"{n_streams}x1"] = {
            "n_streams": int(n_streams),
            "burst_windows_per_s": _spread([n_streams / t for t in burst_s]),
            "recording_windows_per_s": _spread([n_streams / t for t in recording_s]),
            "push_windows_per_s": _spread([n_streams / t for t in pushes]),
            "burst_to_recording": _spread([r / b for b, r in zip(burst_s, recording_s)]),
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
    """Seconds of each stage of one offline set-up, run end to end."""
    times = {}
    start = perf_counter()
    corpus = SyntheticDaliaGenerator(SETUP_EXPERIMENT_CORPUS).generate_windowed()
    classifier_train = SyntheticDaliaGenerator(SETUP_CLASSIFIER_CORPUS).generate_windowed()
    times["synthesis_s"] = perf_counter() - start

    start = perf_counter()
    half = len(corpus.subjects) // 2
    train = WindowedDataset(corpus.subjects[:half]).concatenated()
    classifier = ActivityClassifier(random_state=0).fit(train.accel_windows, train.activity)
    train = classifier_train.concatenated()
    ActivityClassifier(random_state=0).fit(train.accel_windows, train.activity)
    times["forest_fit_s"] = perf_counter() - start

    start = perf_counter()
    zoo = build_calibrated_zoo(seed=0)
    for config in (TIMEPPG_SMALL_CONFIG, TIMEPPG_BIG_CONFIG):
        TimePPGPredictor(config, seed=0).freeze()
    times["zoo_build_freeze_s"] = perf_counter() - start

    start = perf_counter()
    profiling = WindowedDataset(corpus.subjects[half:]).concatenated()
    data = ProfilingData.from_zoo_predictions(zoo, profiling, activity_classifier=classifier)
    ConfigurationProfiler(zoo, WearableSystem()).profile_all(data)
    times["profiling_s"] = perf_counter() - start
    return times


def benchmark_setup(reference_split_search) -> dict:
    """Offline set-up seconds per stage, and the forest fit vs a reference search.

    ``stages`` holds the median and interquartile range over
    :data:`SETUP_ROUNDS` rounds of each stage of the set-up described at
    :data:`SETUP_EXPERIMENT_CORPUS` (synthesis, forest fits, zoo build
    and TimePPG freeze, configuration profiling) and of the whole run
    (``total_s``).  Each round runs the set-up end to end as one
    :func:`time_sides` side, which times the whole; the stages are split
    inside it with clock stamps.

    ``forest_fit`` times the paper's 8-tree, depth-5 forest on the
    classifier corpus's features, alternating each round between the
    shipped split search and the one ``reference_split_search()`` (a
    context manager) swaps in; the benchmarks pass the per-threshold
    loop of ``tests/ml/split_oracle.py``.  ``speedup`` is the median of
    the per-round reference / shipped time ratios; ``nodes_identical``
    confirms both fits built the same node arrays.
    """
    stage_times: list[dict[str, float]] = []
    pipeline = time_sides(
        {"set-up": Side(lambda _: stage_times.append(_setup_stages()))}, SETUP_ROUNDS
    )["set-up"]
    stages = {name: _spread([r[name] for r in stage_times]) for name in stage_times[0]}
    stages["total_s"] = _spread(pipeline.samples)

    train = SyntheticDaliaGenerator(SETUP_CLASSIFIER_CORPUS).generate_windowed().concatenated()
    features = ActivityClassifier().extract_features(train.accel_windows)
    features = (features - features.mean(axis=0)) / (features.std(axis=0) + 1e-12)

    def fit_under(search):
        def fit(_):
            with search():
                return RandomForestClassifier(n_estimators=8, max_depth=5, random_state=0).fit(
                    features, train.activity, n_classes=len(ACTIVITIES)
                )

        return Side(fit)

    fits = time_sides(
        {
            "shipped": fit_under(contextlib.nullcontext),
            "reference": fit_under(reference_split_search),
        },
        SETUP_ROUNDS,
    )
    shipped, reference = fits["shipped"], fits["reference"]
    nodes_identical = all(
        np.array_equal(
            getattr(shipped.result, name), getattr(reference.result, name), equal_nan=True
        )
        for name in ("_feature", "_threshold", "_left", "_right", "_value", "_roots")
    )
    return {
        "host": host_fingerprint(),
        "rounds": SETUP_ROUNDS,
        "stages": stages,
        "forest_fit": {
            "n_samples": int(features.shape[0]),
            "shipped_s": _spread(shipped.samples),
            "reference_s": _spread(reference.samples),
            "speedup": _spread([r / v for r, v in zip(reference.samples, shipped.samples)]),
            "nodes_identical": bool(nodes_identical),
        },
    }
