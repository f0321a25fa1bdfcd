"""Property-based equivalence suite for the fleet engines.

The fleet correctness contract — *every* multi-subject path is
decision-for-decision identical to sequential replay (one ``run`` per
subject, :func:`~repro.eval.workloads.sequential_replay`), bit for
bit at the runtime's dtype — is pinned here across seeded randomized
scenarios instead of a handful of hand-picked fixtures.  Hypothesis
draws fleet compositions (subject counts and lengths, BLE traces or
not, heterogeneous hardware revisions, RF vs oracle difficulty,
stateful vs ``FLEET_BATCHABLE`` predictors — including a fully stateful
zoo with a signal-reading spectral tracker — a real signal-reading
TimePPG network in the zoo whose predictions are not clipped, the
inference precision axis (float64 vs float32), executor worker counts,
arrival orderings, batch-size limits, mid-queue retirements) and every
example asserts bit-identical results:

* :class:`~repro.core.scheduler.FleetScheduler` — dynamic sessions
  submitted one by one must replay exactly like sequential replay over
  the completed sessions in submission order, and the scheduler's
  predictor streams must land on exactly the state sequential replay
  reaches (checked through
  :meth:`~repro.models.base.HeartRatePredictor.fleet_state_signature`);
* :class:`~repro.core.fleet.FleetExecutor` — process-pool sharding with
  mixed hardware revisions in one run;
* :class:`~repro.core.fleet.SharedSubjectStore` — shared-memory blocks
  must round-trip the fleet's arrays exactly.

The suite is deterministic (``derandomize=True``): every run replays the
same example corpus, so tier-1 stays reproducible.
"""

from __future__ import annotations

import copy
import functools
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="property suite needs hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.decision_engine import Constraint
from repro.core.fleet import FleetExecutor, SharedSubjectStore
from repro.core.runtime import CHRISRuntime, EQUIVALENCE_TOLERANCES, FleetResult
from repro.core.scheduler import FleetScheduler, SessionState
from repro.data.dataset import WindowedSubject
from repro.eval.workloads import sequential_replay, stateful_zoo
from repro.eval.experiment import CalibratedExperiment
from repro.hw.platform import WearableSystem
from repro.ml.activity_classifier import ActivityClassifier
from repro.models.timeppg import TimePPGPredictor
from repro.signal.windowing import DEFAULT_WINDOW_SPEC

from tests.core.test_runtime_batched import assert_results_identical
from tests.nn.conv_oracle import TINY_TIMEPPG_CONFIG

CONSTRAINT = Constraint.max_mae(6.0)
#: The windows of :data:`TINY_TIMEPPG_CONFIG`, a real (signal-reading,
#: BLAS-backed) TCN: fusing windows across subjects must not perturb it.
WINDOW_LENGTH = TINY_TIMEPPG_CONFIG.input_length


def tiny_timeppg(seed: int) -> TimePPGPredictor:
    """A frozen :data:`TINY_TIMEPPG_CONFIG` TCN with unclipped predictions.

    The untrained network outputs ~0 BPM, which ``predict`` clips to
    30 BPM: every prediction would be the same constant and no
    batch-shape drift could show.  A 120 BPM head bias moves the
    predictions into the [30, 220] BPM clip range, and 200x head weights
    spread them over tens of BPM, so a last-bit drift of the hidden
    activations survives the bias add.
    """
    predictor = TimePPGPredictor(TINY_TIMEPPG_CONFIG, seed=seed)
    head = predictor.network.layers[-1].params
    head["weight"] *= 200.0
    head["bias"] += 120.0
    return predictor.freeze()


def assert_timeppg_unclipped(fleet: FleetResult) -> None:
    """No TimePPG-Big prediction of ``fleet`` sits on a clip bound."""
    predictions = np.concatenate(
        [
            r.predicted_hr[r.model_names.astype(str) == "TimePPG-Big"]
            for r in fleet.results.values()
        ]
    )
    assert predictions.size, "no window was routed to the TCN"
    assert np.all((predictions > 30.0) & (predictions < 220.0)), predictions


SCENARIO_SETTINGS = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@functools.lru_cache(maxsize=1)
def _experiment() -> CalibratedExperiment:
    """One calibrated experiment shared by every example (read-only)."""
    return CalibratedExperiment.build(seed=0, n_subjects=4, activity_duration_s=40.0)


@functools.lru_cache(maxsize=1)
def _classifier() -> ActivityClassifier:
    """An RF difficulty detector trained on the property-suite geometry."""
    rng = np.random.default_rng(99)
    accel = rng.standard_normal((270, WINDOW_LENGTH, 3))
    activity = np.arange(270) % 9
    return ActivityClassifier(random_state=0).fit(accel, activity)


@functools.lru_cache(maxsize=4)
def _hardware(kind: str) -> WearableSystem:
    """Hardware revisions of the heterogeneous population."""
    if kind == "stock":
        return WearableSystem()
    if kind == "compressed":
        return WearableSystem(offload_payload_bytes=64 * 4 * 2)
    if kind == "fast-period":
        return WearableSystem(prediction_period_s=1.5)
    raise KeyError(kind)


def make_subject(subject_id: str, n_windows: int, seed: int) -> WindowedSubject:
    """A windowed pseudo-recording; signals are noise (calibrated zoo)."""
    rng = np.random.default_rng(seed)
    return WindowedSubject(
        subject_id=subject_id,
        ppg_windows=rng.standard_normal((n_windows, WINDOW_LENGTH)),
        accel_windows=rng.standard_normal((n_windows, WINDOW_LENGTH, 3)),
        activity=rng.integers(0, 9, size=n_windows),
        hr=70.0 + 30.0 * rng.random(n_windows),
        spec=DEFAULT_WINDOW_SPEC,
    )


def make_trace(n_windows: int, seed: int) -> np.ndarray:
    """A BLE trace with at least one status change when possible."""
    rng = np.random.default_rng(seed)
    trace = rng.random(n_windows) < 0.7
    trace[0] = True
    if n_windows > 1:
        trace[n_windows // 2] = False
    return trace


@st.composite
def fleet_scenarios(draw):
    n_subjects = draw(st.integers(min_value=1, max_value=5))
    subjects = []
    for i in range(n_subjects):
        subjects.append(
            {
                "n_windows": draw(st.integers(min_value=8, max_value=60)),
                "seed": draw(st.integers(min_value=0, max_value=2**16)),
                "traced": draw(st.booleans()),
                "hardware": draw(
                    st.sampled_from([None, "stock", "compressed", "fast-period"])
                ),
            }
        )
    return {
        "subjects": subjects,
        "order": draw(st.permutations(range(n_subjects))),
        # Executor worker count (capped at 2 where a pool is spawned).
        "workers": draw(st.sampled_from([1, 2, 4])),
        "max_batch": draw(st.sampled_from([None, 1, 2])),
        # Serving-policy axis: the deadline dispatcher may hold arrivals
        # back (here with a tiny SLO so examples never stall), but batch
        # composition must never move a decision bit.
        "policy": draw(st.sampled_from(["drain", "deadline"])),
        "use_rf": draw(st.booleans()),
        # "none": all FLEET_BATCHABLE; "flag": TimePPG-Big forced
        # through the stateful dispatch; "zoo": the fully stateful zoo
        # (spectral tracker + smoothed calibrated trackers).
        "stateful": draw(st.sampled_from(["none", "flag", "zoo"])),
        # Inference precision axis: float32 runs the signal hot path in
        # single precision, compared against float32 sequential replay.
        "dtype": draw(st.sampled_from(["float64", "float32"])),
        # Swap a real (signal-reading) TimePPG network into the zoo so
        # fusion runs a genuine BLAS forward (ignored by the fully
        # stateful zoo, which replaces every predictor).
        "timeppg": draw(st.booleans()),
        "retire": draw(st.integers(min_value=-1, max_value=n_subjects - 1)),
    }


def build_fleet(scenario):
    """Materialize a scenario: subjects in arrival order, traces, systems."""
    subjects = [
        make_subject(f"prop-{i:02d}", spec["n_windows"], spec["seed"])
        for i, spec in enumerate(scenario["subjects"])
    ]
    arrival = [subjects[i] for i in scenario["order"]]
    traces = {
        subjects[i].subject_id: make_trace(spec["n_windows"], spec["seed"] + 1)
        for i, spec in enumerate(scenario["subjects"])
        if spec["traced"]
    }
    systems = {
        subjects[i].subject_id: _hardware(spec["hardware"])
        for i, spec in enumerate(scenario["subjects"])
        if spec["hardware"] is not None
    }
    return arrival, traces, systems


def make_runtime(scenario) -> CHRISRuntime:
    """A pristine runtime configured for the scenario's difficulty source."""
    experiment = _experiment()
    if scenario["stateful"] == "zoo":
        # Fully stateful: a real spectral tracker plus smoothed calibrated
        # trackers (fresh predictors continuing the cached zoo's streams).
        zoo = stateful_zoo(experiment.zoo)
    else:
        zoo = copy.deepcopy(experiment.zoo)
        if scenario["timeppg"]:
            # A real TCN behind the TimePPG-Big deployment (the model the
            # selected configurations actually route windows to), frozen
            # so the fold + GEMM inference path is the one under test.
            zoo.entry("TimePPG-Big").predictor = tiny_timeppg(seed=7)
    runtime = CHRISRuntime(
        zoo=zoo,
        engine=experiment.engine,
        system=experiment.system,
        activity_classifier=_classifier() if scenario["use_rf"] else None,
        dtype=scenario.get("dtype", "float64"),
    )
    if scenario["stateful"] == "flag":
        # Force one model through the stateful dispatch path.
        runtime.zoo.entry("TimePPG-Big").predictor.FLEET_BATCHABLE = False
    return runtime


@settings(max_examples=15, **SCENARIO_SETTINGS)
@given(scenario=fleet_scenarios())
def test_scheduler_matches_sequential_replay(scenario):
    """Dynamic sessions == sequential replay over the completed sessions.

    Covers every scenario axis at once: arrival order defines the
    reference order, retired sessions drop out without touching any
    predictor stream, and the scheduler's final stream state must equal
    the state sequential replay leaves behind.
    """
    arrival, traces, systems = build_fleet(scenario)

    scheduler = FleetScheduler(
        make_runtime(scenario),
        CONSTRAINT,
        max_batch_size=scenario["max_batch"],
        use_oracle_difficulty=not scenario["use_rf"],
        policy=scenario["policy"],
        slo_s=0.01,
        deadline_slack_s=0.0,
        # One initial slot: every multi-subject example grows the
        # continuation state and recycles slots through submit.
        max_streams=1,
    )
    with scheduler:
        sessions = [
            scheduler.submit(
                subject.subject_id,
                subject,
                system=systems.get(subject.subject_id),
                connected_trace=traces.get(subject.subject_id),
            )
            for subject in arrival
        ]
        if scenario["retire"] >= 0:
            scheduler.retire(sessions[scenario["retire"]])
        scheduler.join()

    completed = [s for s in sessions if s.state is SessionState.DONE]
    retired = [s for s in sessions if s.state is SessionState.RETIRED]
    assert len(completed) + len(retired) == len(sessions), [
        (s.subject_id, s.state, s.error) for s in sessions
    ]

    reference = make_runtime(scenario)
    reference_fleet = sequential_replay(
        reference,
        [s.recording for s in completed],
        CONSTRAINT,
        use_oracle_difficulty=not scenario["use_rf"],
        connected_traces={
            sid: t for sid, t in traces.items() if sid in {s.subject_id for s in completed}
        },
        systems={
            sid: sys for sid, sys in systems.items() if sid in {s.subject_id for s in completed}
        },
    )
    for session in completed:
        assert_results_identical(
            reference_fleet.results[session.subject_id], session.result
        )

    # The scheduler's stream runtime must land on exactly the cross-run
    # predictor state sequential replay reaches — the invariant that makes
    # the *next* submission equivalent too.
    for entry, ref_entry in zip(scheduler._runtime.zoo, reference.zoo):
        assert entry.predictor.fleet_state_signature() == ref_entry.predictor.fleet_state_signature()


@settings(max_examples=10, **SCENARIO_SETTINGS)
@given(scenario=fleet_scenarios())
def test_fused_timeppg_matches_sequential_replay(scenario):
    """Cross-subject TimePPG fusion is bit-identical, on every scenario shape.

    Forces a real TimePPG network with unclipped predictions into the
    zoo (everything else — dtype, arrival order, batch limits,
    retirements, traces, hardware mix — still varies), submits the fleet
    as dynamic sessions, so arrival coalescing decides the TCN's batch
    shapes, and checks every field of every result against sequential
    replay bit for bit.
    """
    scenario = dict(scenario, timeppg=True)
    if scenario["stateful"] == "zoo":
        # The fully stateful zoo replaces every predictor; keep the real
        # TCN in the zoo so the fused path is actually exercised.
        scenario["stateful"] = "none"
    arrival, traces, systems = build_fleet(scenario)

    scheduler = FleetScheduler(
        make_runtime(scenario),
        CONSTRAINT,
        max_batch_size=scenario["max_batch"],
        use_oracle_difficulty=not scenario["use_rf"],
        policy=scenario["policy"],
        slo_s=0.01,
        deadline_slack_s=0.0,
    )
    with scheduler:
        sessions = [
            scheduler.submit(
                subject.subject_id,
                subject,
                system=systems.get(subject.subject_id),
                connected_trace=traces.get(subject.subject_id),
            )
            for subject in arrival
        ]
        if scenario["retire"] >= 0:
            scheduler.retire(sessions[scenario["retire"]])
        scheduler.join()

    completed = [s for s in sessions if s.state is SessionState.DONE]
    assert all(s.state is not SessionState.FAILED for s in sessions), [
        (s.subject_id, s.state, s.error) for s in sessions
    ]

    reference_fleet = sequential_replay(
        make_runtime(scenario),
        [s.recording for s in completed],
        CONSTRAINT,
        use_oracle_difficulty=not scenario["use_rf"],
        connected_traces={
            sid: t for sid, t in traces.items() if sid in {s.subject_id for s in completed}
        },
        systems={
            sid: sys for sid, sys in systems.items() if sid in {s.subject_id for s in completed}
        },
    )
    if any(
        np.any(r.model_names.astype(str) == "TimePPG-Big")
        for r in reference_fleet.results.values()
    ):
        assert_timeppg_unclipped(reference_fleet)
    for session in completed:
        assert_results_identical(
            reference_fleet.results[session.subject_id], session.result
        )


@settings(max_examples=6, **SCENARIO_SETTINGS)
@given(scenario=fleet_scenarios())
def test_pool_executor_matches_sequential_replay(scenario):
    """Process-pool sharding with mixed hardware == sequential replay."""
    arrival, traces, systems = build_fleet(scenario)
    reference_runtime = make_runtime(scenario)
    sequential = sequential_replay(
        reference_runtime,
        arrival,
        CONSTRAINT,
        use_oracle_difficulty=not scenario["use_rf"],
        connected_traces=traces,
        systems=systems,
    )
    executor = FleetExecutor(
        make_runtime(scenario),
        max_workers=min(scenario["workers"], 2),
        shards_per_worker=2,
    )
    pooled = executor.run_fleet(
        arrival,
        CONSTRAINT,
        use_oracle_difficulty=not scenario["use_rf"],
        connected_traces=traces,
        systems=systems,
    )
    assert pooled.subject_ids == sequential.subject_ids
    for sid in sequential.subject_ids:
        assert_results_identical(sequential.results[sid], pooled.results[sid])


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_float32_fleet_decision_compatible_across_workers(workers):
    """A float32 fleet run is decision-compatible at any worker count.

    Two references.  Against float32 sequential replay the executor
    fleet is bit-identical, like every fused path at its own dtype.
    Against the float64 sequential run it must route every window to the
    same model and target with the same costs, report float32
    predictions, and keep the predicted HR of every model within the
    documented float32 tolerance bounds — whether one, two, or four
    workers execute the shards.
    """
    scenario64 = {
        "stateful": "none",
        "timeppg": True,
        "use_rf": False,
        "dtype": "float64",
    }
    scenario32 = dict(scenario64, dtype="float32")
    subjects = [make_subject(f"f32-{i:02d}", 24 + 8 * i, seed=100 + i) for i in range(3)]

    reference = sequential_replay(
        make_runtime(scenario64), subjects, CONSTRAINT, use_oracle_difficulty=True
    )
    reference32 = sequential_replay(
        make_runtime(scenario32), subjects, CONSTRAINT, use_oracle_difficulty=True
    )
    executor = FleetExecutor(
        make_runtime(scenario32), max_workers=workers, shards_per_worker=2
    )
    pooled = executor.run_fleet(subjects, CONSTRAINT, use_oracle_difficulty=True)

    atol, rtol = EQUIVALENCE_TOLERANCES["float32"]
    assert pooled.subject_ids == reference.subject_ids
    assert_timeppg_unclipped(pooled)
    for sid in reference.subject_ids:
        ref, res = reference.results[sid], pooled.results[sid]
        assert res.predicted_hr.dtype == np.float32
        assert_results_identical(reference32.results[sid], res)
        np.testing.assert_array_equal(ref.model_names, res.model_names)
        np.testing.assert_array_equal(ref.offloaded, res.offloaded)
        np.testing.assert_array_equal(ref.predicted_difficulty, res.predicted_difficulty)
        np.testing.assert_array_equal(ref.watch_compute_j, res.watch_compute_j)
        np.testing.assert_allclose(
            res.predicted_hr.astype(np.float64),
            ref.predicted_hr,
            atol=atol,
            rtol=rtol,
        )


@settings(max_examples=10, **SCENARIO_SETTINGS)
@given(scenario=fleet_scenarios())
def test_shared_subject_store_round_trips_exactly(scenario):
    """Shared-memory blocks reproduce every array bit-exactly."""
    arrival, _, _ = build_fleet(scenario)
    store = SharedSubjectStore(arrival)
    try:
        handles, rebuilt = SharedSubjectStore.attach(store.manifest)
        try:
            assert [s.subject_id for s in rebuilt] == [s.subject_id for s in arrival]
            for original, view in zip(arrival, rebuilt):
                np.testing.assert_array_equal(original.ppg_windows, view.ppg_windows)
                np.testing.assert_array_equal(original.accel_windows, view.accel_windows)
                np.testing.assert_array_equal(original.activity, view.activity)
                np.testing.assert_array_equal(original.hr, view.hr)
                np.testing.assert_array_equal(original.difficulty, view.difficulty)
                assert view.spec == original.spec
        finally:
            del rebuilt
            for handle in handles:
                handle.close()
    finally:
        store.close()
        store.unlink()


@settings(max_examples=6, **SCENARIO_SETTINGS)
@given(scenario=fleet_scenarios(), interrupt_after=st.integers(min_value=0, max_value=4))
def test_resumed_checkpoint_run_is_bit_identical_to_uninterrupted(
    scenario, interrupt_after
):
    """Kill-and-resume == uninterrupted, *bit-identical*.

    Both runs use the same checkpointed shard layout, and every shard is
    a pure function of (pristine runtime, shipped plans, prior window
    counts): whether a shard executes before or after a crash cannot move
    a single bit, and loaded ``DONE`` shards are byte-verified staged
    copies of exactly such executions.
    """
    arrival, traces, systems = build_fleet(scenario)
    use_oracle = not scenario["use_rf"]
    workers = min(scenario["workers"], 2)

    def executor(directory):
        return FleetExecutor(
            make_runtime(scenario),
            max_workers=workers,
            shards_per_worker=2,
            checkpoint_dir=directory,
            retry_backoff_s=0.0,
        )

    def run(ex):
        return ex.run_fleet(
            arrival,
            CONSTRAINT,
            use_oracle_difficulty=use_oracle,
            connected_traces=traces,
            systems=systems,
        )

    with tempfile.TemporaryDirectory() as ref_dir:
        uninterrupted = run(executor(ref_dir))

    with tempfile.TemporaryDirectory() as directory:
        # Crash: consume a prefix of the stream, then kill the run.  The
        # consumed shards are durably staged; the rest are interrupted.
        stream = executor(directory).iter_runs(
            arrival,
            CONSTRAINT,
            use_oracle_difficulty=use_oracle,
            connected_traces=traces,
            systems=systems,
        )
        for consumed, _ in enumerate(stream, start=1):
            if consumed > interrupt_after:
                break
        stream.close()
        resumed = run(executor(directory))

    assert resumed.subject_ids == uninterrupted.subject_ids
    assert resumed.n_failed == 0
    for sid in uninterrupted.subject_ids:
        assert_results_identical(uninterrupted.results[sid], resumed.results[sid])
