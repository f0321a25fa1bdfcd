"""Unit tests for the dynamic-session fleet scheduler.

Bit-equivalence with sequential replay across randomized scenarios is
pinned by :mod:`tests.core.test_fleet_properties`; these tests cover the
scheduler's online lifecycle: streaming completion, dynamic arrival and
departure, retirement, pause/resume, failure reporting, validation, and
the :meth:`~repro.eval.experiment.CalibratedExperiment.run_fleet`
wiring.
"""

import copy
import time

import numpy as np
import pytest

from repro.core.decision_engine import Constraint
from repro.core.runtime import CHRISRuntime
from repro.core.scheduler import FleetScheduler, SessionState, VirtualClock
from repro.core.zoo import ModelsZoo, ZooEntry
from repro.eval.workloads import sequential_replay, stateful_zoo
from repro.data.dataset import WindowedSubject
from repro.hw.platform import WearableSystem
from repro.models.adaptive_threshold import AdaptiveThresholdPredictor
from repro.models.base import FleetState
from repro.signal.windowing import DEFAULT_WINDOW_SPEC

from tests.core.test_runtime_batched import assert_results_identical

CONSTRAINT = Constraint.max_mae(6.0)


def make_runtime(experiment) -> CHRISRuntime:
    return CHRISRuntime(
        zoo=copy.deepcopy(experiment.zoo),
        engine=experiment.engine,
        system=experiment.system,
    )


def make_scheduler(experiment, **kwargs) -> FleetScheduler:
    kwargs.setdefault("use_oracle_difficulty", True)
    return FleetScheduler(make_runtime(experiment), CONSTRAINT, **kwargs)


def make_subject(subject_id: str, n_windows: int = 40, seed: int = 0) -> WindowedSubject:
    rng = np.random.default_rng(seed)
    return WindowedSubject(
        subject_id=subject_id,
        ppg_windows=rng.standard_normal((n_windows, 16)),
        accel_windows=rng.standard_normal((n_windows, 16, 3)),
        activity=rng.integers(0, 9, size=n_windows),
        hr=70.0 + 30.0 * rng.random(n_windows),
        spec=DEFAULT_WINDOW_SPEC,
    )


class TestLifecycle:
    def test_sessions_stream_as_completed(self, calibrated_experiment):
        subjects = [make_subject(f"s{i}", seed=i) for i in range(5)]
        with make_scheduler(calibrated_experiment) as scheduler:
            sessions = [scheduler.submit(s.subject_id, s) for s in subjects]
            seen = []
            for session in scheduler.as_completed():
                assert session.state is SessionState.DONE
                assert session.result.n_windows == session.recording.n_windows
                seen.append(session.subject_id)
        assert sorted(seen) == sorted(s.subject_id for s in subjects)
        assert all(s.done for s in sessions)

    def test_arrivals_during_consumption_extend_the_stream(self, calibrated_experiment):
        """Sessions submitted while iterating still stream — no fixed list."""
        with make_scheduler(calibrated_experiment) as scheduler:
            scheduler.submit("first", make_subject("first", seed=1))
            seen = []
            submitted_late = False
            for session in scheduler.as_completed():
                seen.append(session.subject_id)
                if not submitted_late:
                    submitted_late = True
                    scheduler.submit("second", make_subject("second", seed=2))
        assert seen == ["first", "second"]

    def test_subject_id_can_be_resubmitted_after_completion(self, calibrated_experiment):
        subject = make_subject("repeat", seed=3)
        with make_scheduler(calibrated_experiment) as scheduler:
            first = scheduler.submit("repeat", subject)
            scheduler.join()
            second = scheduler.submit("repeat", subject)
            scheduler.join()
        assert first.state is second.state is SessionState.DONE
        # The predictor streams advanced between the runs (online
        # semantics), so the second replay is a later stream position.
        assert first.result.n_windows == second.result.n_windows

    def test_live_duplicate_subject_id_rejected(self, calibrated_experiment):
        scheduler = make_scheduler(calibrated_experiment)
        scheduler.pause()
        try:
            scheduler.submit("dup", make_subject("dup"))
            with pytest.raises(ValueError, match="already live"):
                scheduler.submit("dup", make_subject("dup"))
        finally:
            scheduler.close()

    def test_submit_after_close_rejected(self, calibrated_experiment):
        scheduler = make_scheduler(calibrated_experiment)
        scheduler.close()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit("late", make_subject("late"))

    def test_close_is_idempotent_and_joins(self, calibrated_experiment):
        scheduler = make_scheduler(calibrated_experiment)
        session = scheduler.submit("only", make_subject("only"))
        scheduler.close()
        scheduler.close()
        assert session.state is SessionState.DONE


class TestRetireAndPause:
    def test_retire_queued_session_never_runs(self, calibrated_experiment):
        scheduler = make_scheduler(calibrated_experiment)
        scheduler.pause()  # deterministic: nothing dispatches while paused
        try:
            keep = scheduler.submit("keep", make_subject("keep", seed=4))
            drop = scheduler.submit("drop", make_subject("drop", seed=5))
            assert scheduler.retire(drop) is True
            assert drop.state is SessionState.RETIRED
            scheduler.resume()
            scheduler.join()
        finally:
            scheduler.close()
        assert keep.state is SessionState.DONE
        assert drop.result is None
        # A retired session consumes no predictor stream: replaying only
        # the kept subject sequentially reproduces the kept result.
        reference = sequential_replay(
            make_runtime(calibrated_experiment),
            [keep.recording],
            CONSTRAINT,
            use_oracle_difficulty=True,
        )
        assert_results_identical(reference.results["keep"], keep.result)

    def test_retire_completed_session_returns_false(self, calibrated_experiment):
        with make_scheduler(calibrated_experiment) as scheduler:
            session = scheduler.submit("done", make_subject("done"))
            scheduler.join()
            assert scheduler.retire(session) is False
            assert session.state is SessionState.DONE

    def test_retired_id_is_immediately_reusable(self, calibrated_experiment):
        scheduler = make_scheduler(calibrated_experiment)
        scheduler.pause()
        try:
            first = scheduler.submit("reuse", make_subject("reuse", seed=6))
            assert scheduler.retire(first)
            second = scheduler.submit("reuse", make_subject("reuse", seed=7))
            scheduler.resume()
            scheduler.join()
            assert second.state is SessionState.DONE
        finally:
            scheduler.close()

    def test_pause_holds_dispatch_until_resume(self, calibrated_experiment):
        scheduler = make_scheduler(calibrated_experiment)
        try:
            scheduler.pause()
            session = scheduler.submit("held", make_subject("held"))
            assert scheduler.next_done(timeout=0.2) is None
            assert session.state is SessionState.QUEUED
            scheduler.resume()
            scheduler.join()
            assert session.state is SessionState.DONE
        finally:
            scheduler.close()


class TestValidationAndFailure:
    def test_constructor_validation(self, calibrated_experiment):
        runtime = make_runtime(calibrated_experiment)
        with pytest.raises(ValueError):
            FleetScheduler(runtime, CONSTRAINT, max_batch_size=0)
        with pytest.raises(ValueError):
            FleetScheduler(runtime, CONSTRAINT, max_retries=-1)

    def test_trace_shape_validated_at_submit(self, calibrated_experiment):
        with make_scheduler(calibrated_experiment) as scheduler:
            with pytest.raises(ValueError, match="one entry per window"):
                scheduler.submit(
                    "traced",
                    make_subject("traced", n_windows=20),
                    connected_trace=np.ones(7, dtype=bool),
                )

    def test_empty_recording_rejected_at_submit(self, calibrated_experiment):
        """Per-session input problems surface at submit, where they cannot
        poison a batch of unrelated queued sessions."""
        empty = WindowedSubject(
            subject_id="empty",
            ppg_windows=np.empty((0, 16)),
            accel_windows=np.empty((0, 16, 3)),
            activity=np.empty(0, dtype=int),
            hr=np.empty(0),
            spec=DEFAULT_WINDOW_SPEC,
        )
        with make_scheduler(calibrated_experiment) as scheduler:
            with pytest.raises(ValueError, match="no windows"):
                scheduler.submit("empty", empty)

    @staticmethod
    def _break_predictor(scheduler) -> None:
        """Break prediction *persistently*: the stream zoo AND the pristine
        snapshot retries rebuild from, so every attempt fails."""

        def boom(*args, **kwargs):
            raise RuntimeError("model service down")

        for zoo in (scheduler._runtime.zoo, scheduler._pristine_zoo):
            for entry in zoo:
                entry.predictor.predict = boom

    def test_failed_session_reports_the_error(self, calibrated_experiment):
        scheduler = make_scheduler(calibrated_experiment, retry_backoff_s=0.0)
        self._break_predictor(scheduler)
        with scheduler:
            session = scheduler.submit("broken", make_subject("broken"))
            scheduler.join()
        assert session.state is SessionState.FAILED
        assert isinstance(session.error, RuntimeError)
        assert session.result is None

    def test_execution_failure_quarantines_without_poisoning(
        self, calibrated_experiment
    ):
        """A batch that exhausts its retries fails alone: the scheduler
        keeps accepting and completing later sessions (degrade, don't
        die), and — as-if-planned stream accounting — the later session
        replays exactly as it would have after a *successful* first batch
        of the same plan."""
        scheduler = make_scheduler(
            calibrated_experiment, max_retries=1, retry_backoff_s=0.0
        )
        self._break_predictor(scheduler)
        with scheduler:
            failed = scheduler.submit("bad", make_subject("bad", seed=60))
            scheduler.join()
            assert failed.state is SessionState.FAILED
            # Un-break the pristine snapshot: the next batch's serial
            # restore rebuilt the stream zoo from it, so recovery flows
            # through exactly the rebuild path under test.
            for entry in scheduler._pristine_zoo:
                del entry.predictor.predict
            for entry in scheduler._runtime.zoo:
                if "predict" in vars(entry.predictor):
                    del entry.predictor.predict
            recovered = scheduler.submit("good", make_subject("good", seed=61))
            scheduler.join()
        assert recovered.state is SessionState.DONE
        assert recovered.result is not None

    def test_transient_failure_is_retried_to_done(self, calibrated_experiment):
        """A batch that fails once and then succeeds resolves DONE with
        results bit-identical to an undisturbed run — the retry rebuilds
        the batch's exact planned start position."""
        import tempfile

        from repro.core import faults

        subject = make_subject("flaky", seed=42)
        reference = sequential_replay(
            make_runtime(calibrated_experiment), [subject], CONSTRAINT, use_oracle_difficulty=True
        )
        with tempfile.TemporaryDirectory() as fault_dir:
            plan = faults.FaultPlan(fault_dir)
            plan.arm("scheduler.batch", times=1, kind="exception")
            with faults.injected_faults(plan):
                with make_scheduler(
                    calibrated_experiment, retry_backoff_s=0.0
                ) as scheduler:
                    session = scheduler.submit("flaky", subject)
                    scheduler.join()
            assert plan.armed() == 0  # the fault really fired
        assert session.state is SessionState.DONE
        assert_results_identical(reference.results["flaky"], session.result)

    def test_batch_after_quarantined_batch_is_delivered_done(
        self, calibrated_experiment
    ):
        """As-if-planned accounting: a session dispatched after a
        quarantined batch completes DONE, positioned exactly as if the
        failed batch had executed."""
        scheduler = make_scheduler(
            calibrated_experiment, max_batch_size=1, max_retries=0, retry_backoff_s=0.0
        )
        calls = {"n": 0}
        for entry in scheduler._runtime.zoo:
            original = entry.predictor.predict

            def flaky(*args, _original=original, **kwargs):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("transient model failure")
                return _original(*args, **kwargs)

            entry.predictor.predict = flaky
        scheduler.pause()
        try:
            first = scheduler.submit("first", make_subject("first", seed=40))
            second = scheduler.submit("second", make_subject("second", seed=41))
            scheduler.resume()
            scheduler.join()
        finally:
            scheduler.close()
        assert first.state is SessionState.FAILED
        assert first.result is None
        assert second.state is SessionState.DONE
        assert second.result is not None

    def test_session_id_relabel_backs_one_recording_under_many_ids(
        self, calibrated_experiment
    ):
        """The session id is authoritative: submitting a recording under a
        different id relabels it instead of deadlocking the worker (the
        result used to be keyed by the recording's own id)."""
        recording = make_subject("original", seed=8)
        with make_scheduler(calibrated_experiment) as scheduler:
            alias = scheduler.submit("alias-id", recording)
            original = scheduler.submit("original", recording)
            scheduler.join()
        assert alias.state is SessionState.DONE
        assert original.state is SessionState.DONE
        assert alias.result.n_windows == recording.n_windows
        assert alias.recording.subject_id == "alias-id"
        assert recording.subject_id == "original"  # caller's object untouched


class TestHeterogeneousSessions:
    def test_mixed_revisions_share_one_registry(self, calibrated_experiment):
        stock = WearableSystem()
        compressed = WearableSystem(offload_payload_bytes=64 * 4 * 2)
        subjects = [make_subject(f"h{i}", seed=10 + i) for i in range(4)]
        systems = {"h0": stock, "h1": compressed, "h2": compressed}
        with make_scheduler(calibrated_experiment) as scheduler:
            sessions = [
                scheduler.submit(s.subject_id, s, system=systems.get(s.subject_id))
                for s in subjects
            ]
            scheduler.join()
        assert all(s.state is SessionState.DONE for s in sessions)
        reference = sequential_replay(
            make_runtime(calibrated_experiment),
            subjects,
            CONSTRAINT,
            use_oracle_difficulty=True,
            systems=systems,
        )
        for session in sessions:
            assert_results_identical(reference.results[session.subject_id], session.result)

    def test_compressed_offload_changes_radio_energy_only_for_its_device(
        self, calibrated_experiment
    ):
        """Heterogeneity is real: the rev-B session's offloaded windows cost
        less radio energy than the stock session's, in one scheduler run."""
        subject = make_subject("stock-dev", n_windows=80, seed=21)
        twin = make_subject("rev-b-dev", n_windows=80, seed=21)
        compressed = WearableSystem(offload_payload_bytes=64)
        with make_scheduler(calibrated_experiment) as scheduler:
            stock_session = scheduler.submit("stock-dev", subject)
            rev_b_session = scheduler.submit("rev-b-dev", twin, system=compressed)
            scheduler.join()
        stock_radio = stock_session.result.watch_radio_j[stock_session.result.offloaded]
        rev_b_radio = rev_b_session.result.watch_radio_j[rev_b_session.result.offloaded]
        assert stock_radio.size and rev_b_radio.size
        assert rev_b_radio.max() < stock_radio.min()


class TestExperimentWiring:
    def test_run_fleet_via_scheduler_matches_executor_path(
        self, calibrated_experiment, small_dataset
    ):
        executor_fleet = copy.deepcopy(calibrated_experiment).run_fleet(
            small_dataset, CONSTRAINT
        )
        with copy.deepcopy(calibrated_experiment).fleet_scheduler(CONSTRAINT) as scheduler:
            scheduled_fleet = calibrated_experiment.run_fleet(
                small_dataset, CONSTRAINT, scheduler=scheduler
            )
        assert scheduled_fleet.subject_ids == executor_fleet.subject_ids
        for sid in executor_fleet.subject_ids:
            assert_results_identical(
                executor_fleet.results[sid], scheduled_fleet.results[sid]
            )

    def test_run_fleet_rejects_mismatched_constraint(
        self, calibrated_experiment, small_dataset
    ):
        with calibrated_experiment.fleet_scheduler(CONSTRAINT) as scheduler:
            with pytest.raises(ValueError, match="constraint"):
                calibrated_experiment.run_fleet(
                    small_dataset, Constraint.max_mae(4.0), scheduler=scheduler
                )

    def test_run_fleet_rejects_decision_affecting_overrides(
        self, calibrated_experiment, small_dataset, trained_activity_classifier
    ):
        """Arguments that would change decisions must not be silently
        ignored on the scheduler path."""
        with calibrated_experiment.fleet_scheduler(CONSTRAINT) as scheduler:
            with pytest.raises(ValueError, match="use_oracle_difficulty"):
                calibrated_experiment.run_fleet(
                    small_dataset,
                    CONSTRAINT,
                    use_oracle_difficulty=False,
                    scheduler=scheduler,
                )
            with pytest.raises(ValueError, match="activity_classifier"):
                calibrated_experiment.run_fleet(
                    small_dataset,
                    CONSTRAINT,
                    activity_classifier=trained_activity_classifier,
                    scheduler=scheduler,
                )


class TestDispatchFailurePoisoning:
    def _fail_pool_submit_once(self, scheduler) -> None:
        original = scheduler._pool.submit

        def boom(*args, **kwargs):
            scheduler._pool.submit = original
            raise MemoryError("transient enqueue failure")

        scheduler._pool.submit = boom

    def test_submit_failure_does_not_poison_serial_path(self, calibrated_experiment):
        """Nothing executes before pool.submit, so the planned accounting
        of the batch that never ran is rolled back: the scheduler keeps
        serving after the transient failure, and the next session replays
        as if the lost one had never been dispatched."""
        scheduler = make_scheduler(calibrated_experiment)
        self._fail_pool_submit_once(scheduler)
        recording = make_subject("next", seed=53)
        with scheduler:
            lost = scheduler.submit("lost", make_subject("lost", seed=52))
            scheduler.join()
            recovered = scheduler.submit("next", recording)
            scheduler.join()
        assert lost.state is SessionState.FAILED
        assert isinstance(lost.error, MemoryError)
        assert recovered.state is SessionState.DONE
        reference = sequential_replay(
            make_runtime(calibrated_experiment), [recording], CONSTRAINT, use_oracle_difficulty=True
        )
        assert_results_identical(reference.results["next"], recovered.result)


class GatedPredictor:
    """Predictor whose ``predict`` blocks until released.

    The gates are *class* attributes, so they survive the scheduler's
    deep copy of the runtime (instances are copied, the class is shared)
    — the test can hold a dispatched batch mid-execution from outside.
    """

    # Installed fresh by each test.
    STARTED = None
    RELEASE = None

    REQUIRES_SIGNALS = False
    FLEET_BATCHABLE = True

    def __init__(self) -> None:
        self.fs = 32.0
        self._last_estimate = None

    def reset(self) -> None:
        self._last_estimate = None

    def advance_fleet_state(self, n_windows: int) -> None:
        self.reset()

    def fleet_state_signature(self):
        return None

    def make_fleet_state(self, n_slots: int) -> FleetState:
        return FleetState.for_slots(n_slots)

    def predict(self, ppg_windows, accel_windows=None, **context):
        type(self).STARTED.set()
        assert type(self).RELEASE.wait(timeout=30), "test gate never released"
        return np.full(np.asarray(ppg_windows).shape[0], 72.0)

    def predict_window(self, ppg_window, accel_window=None, **context):
        return 72.0


class TestRetireRacingDispatchedBatch:
    """retire() on a session already inside an in-flight mega-batch.

    The race: the dispatcher popped the session (state RUNNING), the
    worker thread is executing its batch, and the consumer calls
    ``retire``.  The retire must refuse (``False``), must not deliver a
    RETIRED resolution (the session resolves exactly once, as DONE when
    the batch lands), and must not poison the epoch — later submissions
    still run and deliver.
    """

    @pytest.mark.parametrize("kind", ["submit", "push"])
    def test_retire_neither_delivers_nor_poisons(self, calibrated_experiment, kind):
        """For a whole-recording session and for a streaming one."""
        import threading

        GatedPredictor.STARTED = threading.Event()
        GatedPredictor.RELEASE = threading.Event()
        runtime = make_runtime(calibrated_experiment)
        for entry in runtime.zoo:
            entry.predictor = GatedPredictor()

        scheduler = FleetScheduler(runtime, CONSTRAINT, use_oracle_difficulty=True)
        if kind == "push":
            stream = scheduler.open_stream("w0")

            def send(subject):
                return push_window(stream, subject, 0)

        else:

            def send(subject):
                return scheduler.submit(subject.subject_id, subject)

        try:
            session = send(make_subject("inflight", seed=1))
            assert GatedPredictor.STARTED.wait(timeout=30)

            assert scheduler.retire(session) is False
            assert session.state is SessionState.RUNNING

            GatedPredictor.RELEASE.set()
            scheduler.join()
            assert session.state is SessionState.DONE
            assert session.result is not None
            assert session.result.n_windows == session.recording.n_windows

            # Exactly one delivery, as DONE — the refused retire did not
            # enqueue a second (RETIRED) resolution.
            delivered = scheduler.next_done(timeout=5.0)
            assert delivered is session
            assert delivered.state is SessionState.DONE
            assert scheduler.next_done(timeout=0.05) is None

            # The epoch is not poisoned: the stream keeps serving.
            late = send(make_subject("late", seed=2))
            scheduler.join()
            assert late.state is SessionState.DONE
            assert scheduler.next_done(timeout=5.0) is late
        finally:
            GatedPredictor.RELEASE.set()
            scheduler.close()


class GatedFailingPredictor(GatedPredictor):
    """A :class:`GatedPredictor` whose ``predict`` raises once released."""

    def predict(self, ppg_windows, accel_windows=None, **context):
        type(self).STARTED.set()
        assert type(self).RELEASE.wait(timeout=30), "test gate never released"
        raise RuntimeError("predict failed after release")


class TestCloseRacingFailingBatch:
    """``close(wait=True)`` while an in-flight batch is about to fail.

    The race: a dispatched batch is mid-execution when the consumer calls
    ``close(wait=True)``; the batch then fails, and so does every batch
    still queued behind it (four sessions, batches of ``max_batch_size``).
    Every session must resolve exactly once (FAILED), ``close`` must
    return (``join`` observes ``_unresolved`` reaching zero — a double
    resolution would push it negative or strand it positive and hang the
    close), and ``as_completed`` must deliver each failed session once
    and terminate.
    """

    @pytest.mark.parametrize("max_batch_size", [1, 2, 4])
    def test_close_wait_drains_failing_batch(self, calibrated_experiment, max_batch_size):
        import threading

        GatedFailingPredictor.STARTED = threading.Event()
        GatedFailingPredictor.RELEASE = threading.Event()
        runtime = make_runtime(calibrated_experiment)
        for entry in runtime.zoo:
            entry.predictor = GatedFailingPredictor()

        scheduler = FleetScheduler(
            runtime,
            CONSTRAINT,
            max_batch_size=max_batch_size,
            use_oracle_difficulty=True,
            max_retries=0,
            retry_backoff_s=0.0,
        )
        scheduler.pause()
        sessions = [
            scheduler.submit(f"doomed{i}", make_subject(f"doomed{i}", seed=5 + i))
            for i in range(4)
        ]
        scheduler.resume()
        assert GatedFailingPredictor.STARTED.wait(timeout=30)

        closer = threading.Thread(target=scheduler.close, kwargs={"wait": True})
        closer.start()
        try:
            GatedFailingPredictor.RELEASE.set()
            closer.join(timeout=30)
            assert not closer.is_alive(), "close(wait=True) hung on the failing batch"

            for session in sessions:
                assert session.state is SessionState.FAILED
                assert isinstance(session.error, RuntimeError)
                assert session.result is None
            # Exactly one delivery each, then a clean end of stream.
            delivered = list(scheduler.as_completed())
            assert sorted(delivered, key=lambda s: s.ticket) == sessions
            assert scheduler._unresolved == 0  # unguarded read: scheduler is closed
        finally:
            GatedFailingPredictor.RELEASE.set()
            closer.join(timeout=5)


def make_stateful_runtime(experiment) -> CHRISRuntime:
    """A fully stateful zoo (spectral tracker + smoothed calibrated
    trackers) — the hardest continuation case for per-window streaming."""
    return CHRISRuntime(
        zoo=stateful_zoo(copy.deepcopy(experiment.zoo)),
        engine=experiment.engine,
        system=experiment.system,
    )


def push_window(stream, subject: WindowedSubject, w: int):
    return stream.push(
        subject.ppg_windows[w],
        subject.accel_windows[w],
        activity=int(subject.activity[w]),
        hr=float(subject.hr[w]),
    )


class TestVirtualClock:
    def test_clock_advances_only_on_sleep(self):
        clock = VirtualClock(start=5.0)
        assert clock() == 5.0
        clock.sleep(1.5)
        assert clock() == 6.5
        clock.sleep(0.5)
        assert clock() == 7.0
        with pytest.raises(ValueError, match="negative"):
            clock.sleep(-1.0)


class TestServingValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": "bogus"},
            {"slo_s": 0.0},
            {"deadline_slack_s": -0.1},
            {"max_streams": 0},
        ],
    )
    def test_serving_parameter_validation(self, calibrated_experiment, kwargs):
        with pytest.raises(ValueError):
            make_scheduler(calibrated_experiment, **kwargs)

    def test_submit_slo_validated(self, calibrated_experiment):
        with make_scheduler(calibrated_experiment) as scheduler:
            with pytest.raises(ValueError, match="slo_s"):
                scheduler.submit("s0", make_subject("s0"), slo_s=0.0)

    def test_duplicate_stream_id_rejected(self, calibrated_experiment):
        with make_scheduler(calibrated_experiment) as scheduler:
            scheduler.open_stream("w0")
            with pytest.raises(ValueError, match="already open"):
                scheduler.open_stream("w0")

    def test_slot_exhaustion_rejected(self, calibrated_experiment):
        with make_scheduler(calibrated_experiment, max_streams=1) as scheduler:
            scheduler.open_stream("w0")
            with pytest.raises(RuntimeError, match="streams"):
                scheduler.open_stream("w1")

    def test_push_shape_validated(self, calibrated_experiment):
        subject = make_subject("w0", n_windows=4)
        with make_scheduler(calibrated_experiment) as scheduler:
            stream = scheduler.open_stream("w0")
            with pytest.raises(ValueError):
                stream.push(subject.ppg_windows[:2])
            with pytest.raises(ValueError):
                stream.push(subject.ppg_windows[0], np.zeros((16, 2)))

    def test_push_after_stream_close_rejected(self, calibrated_experiment):
        subject = make_subject("w0", n_windows=1)
        with make_scheduler(calibrated_experiment) as scheduler:
            stream = scheduler.open_stream("w0")
            stream.close()
            stream.close()  # idempotent
            with pytest.raises(RuntimeError, match="closed"):
                push_window(stream, subject, 0)

    def test_open_stream_after_scheduler_close_rejected(self, calibrated_experiment):
        scheduler = make_scheduler(calibrated_experiment)
        scheduler.close()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.open_stream("w0")


class TestDeadlinePolicy:
    def test_deadline_release_fires_without_close(self, calibrated_experiment):
        # One lone window, a queue that never fills: only the deadline
        # can release it.  join() returning at all is the assertion.
        with make_scheduler(
            calibrated_experiment,
            policy="deadline",
            slo_s=0.05,
            deadline_slack_s=0.0,
            max_batch_size=64,
        ) as scheduler:
            stream = scheduler.open_stream("w0")
            session = push_window(stream, make_subject("w0", n_windows=1), 0)
            scheduler.join()
            assert session.state is SessionState.DONE
            stream.close()

    def test_close_wait_drains_held_windows(self, calibrated_experiment):
        # A far-future deadline on a virtual clock: nothing would ever
        # dispatch on its own, so close(wait=True) must drain the queue
        # without dropping a window.
        clock = VirtualClock()
        subject = make_subject("w0", n_windows=6)
        scheduler = make_scheduler(
            calibrated_experiment, policy="deadline", slo_s=1e6, clock=clock
        )
        stream = scheduler.open_stream("w0")
        sessions = {push_window(stream, subject, w) for w in range(subject.n_windows)}
        time.sleep(0.2)
        assert all(s.state is SessionState.QUEUED for s in sessions)
        scheduler.close(wait=True)
        assert all(s.state is SessionState.DONE for s in sessions)
        assert sum(s.recording.n_windows for s in sessions) == subject.n_windows

    def test_pause_resume_under_deadline_policy(self, calibrated_experiment):
        # Pause outranks an expired deadline; resume releases the batch.
        subject = make_subject("w0", n_windows=4)
        with make_scheduler(
            calibrated_experiment, policy="deadline", slo_s=0.02, deadline_slack_s=0.0
        ) as scheduler:
            scheduler.pause()
            stream = scheduler.open_stream("w0")
            sessions = {push_window(stream, subject, w) for w in range(4)}
            time.sleep(0.1)
            assert all(s.state is SessionState.QUEUED for s in sessions)
            scheduler.resume()
            scheduler.join()
            assert all(s.state is SessionState.DONE for s in sessions)
            stats = scheduler.latency_stats()
            assert stats["n_windows"] == 4
            # The pause held every window past its 20 ms budget.
            assert stats["deadline_miss_fraction"] == 1.0
            stream.close()

    def test_no_deadline_state_leaks_after_drain(self, calibrated_experiment):
        subject = make_subject("w0", n_windows=5)
        scheduler = make_scheduler(
            calibrated_experiment, policy="deadline", slo_s=0.01, deadline_slack_s=0.0
        )
        streams = [scheduler.open_stream(f"w{i}") for i in range(3)]
        for w in range(subject.n_windows):
            push_window(streams[w % 3], subject, w)
        scheduler.join()
        for stream in streams:
            stream.close()
        assert not scheduler._pending
        assert scheduler._unresolved == 0
        assert sorted(scheduler._free_slots) == list(range(scheduler.max_streams))
        assert scheduler.latency_stats()["n_windows"] == subject.n_windows
        scheduler.close()


class TestStreamingBitIdentity:
    def test_one_batch_per_window_matches_replay(self, calibrated_experiment):
        # The hardest continuation case: every window its own batch, on a
        # fully stateful zoo.  Predictions, routing, and the final
        # predictor streams must all equal whole-recording replay.
        subject = make_subject("w0", n_windows=12, seed=3)
        reference_runtime = make_stateful_runtime(calibrated_experiment)
        reference = reference_runtime.run_many(
            [subject], CONSTRAINT, use_oracle_difficulty=True
        ).results["w0"]

        scheduler = FleetScheduler(
            make_stateful_runtime(calibrated_experiment),
            CONSTRAINT,
            use_oracle_difficulty=True,
        )
        stream = scheduler.open_stream("w0")
        sessions = []
        for w in range(subject.n_windows):
            sessions.append(push_window(stream, subject, w))
            scheduler.join()
        stats = scheduler.latency_stats()
        assert stats["n_batches"] == subject.n_windows

        predicted = np.concatenate([s.result.predicted_hr for s in sessions])
        models = np.concatenate([s.result.model_names for s in sessions])
        np.testing.assert_array_equal(models, reference.model_names)
        np.testing.assert_array_equal(predicted, reference.predicted_hr)
        for entry, ref_entry in zip(scheduler._runtime.zoo, reference_runtime.zoo):
            assert (
                entry.predictor.fleet_state_signature()
                == ref_entry.predictor.fleet_state_signature()
            )
        stream.close()
        scheduler.close()

    def test_coalesced_burst_matches_replay(self, calibrated_experiment):
        # Held deadline: every push coalesces into one growing session,
        # released as a single batch — still bit-identical to replay.
        clock = VirtualClock()
        subject = make_subject("w0", n_windows=10, seed=4)
        reference = (
            make_stateful_runtime(calibrated_experiment)
            .run_many([subject], CONSTRAINT, use_oracle_difficulty=True)
            .results["w0"]
        )
        scheduler = FleetScheduler(
            make_stateful_runtime(calibrated_experiment),
            CONSTRAINT,
            use_oracle_difficulty=True,
            policy="deadline",
            slo_s=1e6,
            clock=clock,
        )
        stream = scheduler.open_stream("w0")
        sessions = {push_window(stream, subject, w) for w in range(subject.n_windows)}
        scheduler.close(wait=True)
        assert scheduler.latency_stats()["n_batches"] == 1
        ordered = sorted(sessions, key=lambda s: s.ticket)
        predicted = np.concatenate([s.result.predicted_hr for s in ordered])
        np.testing.assert_array_equal(predicted, reference.predicted_hr)

    @pytest.mark.parametrize("n_pushes", [1, 2, 17, 500])
    def test_paused_pushes_grow_one_session(self, calibrated_experiment, n_pushes):
        # Coalesced pushes append into the stream's doubling buffer; the
        # session's recording views its first rows and must replay like
        # the whole recording, field for field.
        subject = make_subject("w0", n_windows=n_pushes, seed=n_pushes)
        reference = (
            make_stateful_runtime(calibrated_experiment)
            .run_many([subject], CONSTRAINT, use_oracle_difficulty=True)
            .results["w0"]
        )
        scheduler = FleetScheduler(
            make_stateful_runtime(calibrated_experiment),
            CONSTRAINT,
            use_oracle_difficulty=True,
        )
        stream = scheduler.open_stream("w0")
        scheduler.pause()
        sessions = {push_window(stream, subject, w) for w in range(n_pushes)}
        assert len(sessions) == 1
        (session,) = sessions
        for name in ("ppg_windows", "accel_windows", "activity", "hr"):
            got, want = getattr(session.recording, name), getattr(subject, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        scheduler.resume()
        scheduler.close(wait=True)
        assert session.state is SessionState.DONE
        assert len(session.arrivals_s) == n_pushes
        assert_results_identical(session.result, reference)

    def test_multi_stream_round_robin_matches_replay(self, calibrated_experiment):
        subjects = [make_subject(f"w{i}", n_windows=8, seed=10 + i) for i in range(3)]
        reference = make_stateful_runtime(calibrated_experiment).run_many(
            subjects, CONSTRAINT, use_oracle_difficulty=True
        )
        scheduler = FleetScheduler(
            make_stateful_runtime(calibrated_experiment),
            CONSTRAINT,
            use_oracle_difficulty=True,
        )
        streams = [scheduler.open_stream(s.subject_id) for s in subjects]
        sessions = []
        for w in range(subjects[0].n_windows):
            for subject, stream in zip(subjects, streams):
                sessions.append(push_window(stream, subject, w))
        scheduler.join()
        for stream in streams:
            stream.close()

        by_stream: dict[str, list] = {s.subject_id: [] for s in subjects}
        for session in sessions:
            by_stream[session.subject_id.split("#")[0]].append(session)
        for subject in subjects:
            chunks = sorted(set(by_stream[subject.subject_id]), key=lambda s: s.ticket)
            predicted = np.concatenate([c.result.predicted_hr for c in chunks])
            np.testing.assert_array_equal(
                predicted, reference.results[subject.subject_id].predicted_hr
            )
        # Every state slot is recycled once its stream closed and drained.
        assert sorted(scheduler._free_slots) == list(range(scheduler.max_streams))
        scheduler.close()

    def test_retired_stream_session_keeps_stream_usable(self, calibrated_experiment):
        # Retiring a held (coalesced) streaming session drops its windows
        # without touching the trackers: the stream keeps serving, and
        # the next window predicts exactly like a fresh stream's first.
        clock = VirtualClock()
        subject = make_subject("w0", n_windows=3, seed=5)
        reference = (
            make_stateful_runtime(calibrated_experiment)
            .run_many(
                [
                    WindowedSubject(
                        subject_id="w0",
                        ppg_windows=subject.ppg_windows[2:],
                        accel_windows=subject.accel_windows[2:],
                        activity=subject.activity[2:],
                        hr=subject.hr[2:],
                        spec=subject.spec,
                    )
                ],
                CONSTRAINT,
                use_oracle_difficulty=True,
            )
            .results["w0"]
        )
        scheduler = FleetScheduler(
            make_stateful_runtime(calibrated_experiment),
            CONSTRAINT,
            use_oracle_difficulty=True,
            policy="deadline",
            slo_s=1e6,
            clock=clock,
        )
        stream = scheduler.open_stream("w0")
        held = push_window(stream, subject, 0)
        assert push_window(stream, subject, 1) is held  # coalesced
        assert scheduler.retire(held)
        later = push_window(stream, subject, 2)
        scheduler.close(wait=True)
        assert held.state is SessionState.RETIRED
        assert later.state is SessionState.DONE
        np.testing.assert_array_equal(later.result.predicted_hr, reference.predicted_hr)

    def test_mixed_submits_and_pushes_fuse_into_one_batch(self, calibrated_experiment):
        # Whole recordings and stream pushes are one session kind: queued
        # together they dispatch as one batch, still equal to sequential
        # replay in submission order.  Two open streams fill the
        # max_streams=2 slots, so every submit grows the slot layout.
        recordings = [make_subject(f"r{i}", n_windows=6, seed=20 + i) for i in range(3)]
        streamed = [make_subject(f"w{i}", n_windows=3, seed=30 + i) for i in range(2)]
        scheduler = FleetScheduler(
            make_stateful_runtime(calibrated_experiment),
            CONSTRAINT,
            use_oracle_difficulty=True,
            max_streams=2,
        )
        scheduler.pause()
        streams = [scheduler.open_stream(s.subject_id) for s in streamed]
        sessions = []
        for w in range(3):
            sessions.append(push_window(streams[0], streamed[0], w))
            sessions.append(scheduler.submit(recordings[w].subject_id, recordings[w]))
            sessions.append(push_window(streams[1], streamed[1], w))
        scheduler.resume()
        scheduler.join()
        for stream in streams:
            stream.close()
        assert scheduler.latency_stats()["n_batches"] == 1

        ordered = sorted(set(sessions), key=lambda s: s.ticket)
        assert [s.subject_id for s in ordered] == ["w0#0", "r0", "w1#0", "r1", "r2"]
        reference = sequential_replay(
            make_stateful_runtime(calibrated_experiment),
            [s.recording for s in ordered],
            CONSTRAINT,
            use_oracle_difficulty=True,
        )
        for session in ordered:
            assert session.state is SessionState.DONE
            assert_results_identical(reference.results[session.subject_id], session.result)
        # Every slot, grown or not, is recycled once its session resolved.
        free = sorted(scheduler._free_slots)  # unguarded read: scheduler is idle
        assert free == list(range(len(free)))
        assert len(free) >= len(ordered)
        scheduler.close()

    def test_slot_growth_keeps_open_stream_continuations(self, calibrated_experiment):
        # With one initial slot, the submits below grow the continuation
        # state while the open stream's slot holds an advanced tracker:
        # every result must equal the same run on a scheduler that never
        # grows.
        subject = make_subject("w0", n_windows=8, seed=7)
        recordings = [make_subject(f"r{i}", n_windows=3, seed=50 + i) for i in range(3)]

        def serve(max_streams):
            scheduler = FleetScheduler(
                make_stateful_runtime(calibrated_experiment),
                CONSTRAINT,
                use_oracle_difficulty=True,
                max_streams=max_streams,
            )
            stream = scheduler.open_stream("w0")
            sessions = [push_window(stream, subject, w) for w in range(4)]
            scheduler.join()
            scheduler.pause()
            sessions += [scheduler.submit(r.subject_id, r) for r in recordings]
            scheduler.resume()
            scheduler.join()
            sessions += [push_window(stream, subject, w) for w in range(4, 8)]
            scheduler.join()
            stream.close()
            scheduler.close()
            return sorted(set(sessions), key=lambda s: s.ticket)

        grown, fixed = serve(max_streams=1), serve(max_streams=64)
        assert [s.subject_id for s in grown] == [s.subject_id for s in fixed]
        for a, b in zip(grown, fixed):
            assert a.state is b.state is SessionState.DONE
            assert_results_identical(b.result, a.result)


def fail_second_predict_fleet(scheduler) -> dict:
    """Make the second stateful ``predict_fleet`` call raise, once.

    By then the first stateful model of the batch has already advanced
    its tracker slots, so a failed attempt leaves partial state behind
    unless the scheduler keeps it out of the stream's continuation.
    """
    calls = {"n": 0}
    for entry in scheduler._runtime.zoo:
        original = entry.predictor.predict_fleet

        def flaky(*args, _original=original, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("second stateful model failed mid-batch")
            return _original(*args, **kwargs)

        entry.predictor.predict_fleet = flaky
    return calls


class TestStreamingBatchFailsMidExecution:
    """A streaming batch whose execution fails after a model already ran."""

    def _scheduler(self, experiment, max_retries):
        return FleetScheduler(
            make_stateful_runtime(experiment),
            CONSTRAINT,
            use_oracle_difficulty=True,
            max_retries=max_retries,
            retry_backoff_s=0.0,
        )

    def test_retry_matches_replay(self, calibrated_experiment):
        subject = make_subject("w0", n_windows=12, seed=6)
        reference = sequential_replay(
            make_stateful_runtime(calibrated_experiment),
            [subject],
            CONSTRAINT,
            use_oracle_difficulty=True,
        ).results["w0"]
        scheduler = self._scheduler(calibrated_experiment, max_retries=1)
        stream = scheduler.open_stream("w0")
        sessions = [push_window(stream, subject, w) for w in range(4)]
        scheduler.join()
        scheduler.pause()
        sessions += [push_window(stream, subject, w) for w in range(4, 10)]
        calls = fail_second_predict_fleet(scheduler)
        scheduler.resume()
        scheduler.join()
        assert calls["n"] >= 2  # the fault really fired
        sessions += [push_window(stream, subject, w) for w in range(10, 12)]
        scheduler.join()
        stream.close()
        scheduler.close()

        ordered = sorted(set(sessions), key=lambda s: s.ticket)
        assert all(s.state is SessionState.DONE for s in ordered)
        np.testing.assert_array_equal(
            np.concatenate([s.result.model_names for s in ordered]), reference.model_names
        )
        np.testing.assert_array_equal(
            np.concatenate([s.result.predicted_hr for s in ordered]), reference.predicted_hr
        )

    def test_quarantine_keeps_pre_batch_continuation(self, calibrated_experiment):
        subject = make_subject("w0", n_windows=12, seed=6)
        scheduler = self._scheduler(calibrated_experiment, max_retries=0)
        stream = scheduler.open_stream("w0")
        for w in range(4):
            push_window(stream, subject, w)
        scheduler.join()

        def continuation():  # unguarded reads: the scheduler is idle
            return {
                name: state.last_estimate[stream.slot].copy()
                for name, state in scheduler._fleet_states.items()
            }

        before = continuation()
        assert np.isfinite(list(before.values())).any()
        scheduler.pause()
        failed = {push_window(stream, subject, w) for w in range(4, 10)}
        calls = fail_second_predict_fleet(scheduler)
        scheduler.resume()
        scheduler.join()
        assert calls["n"] >= 2
        (failed,) = failed
        assert failed.state is SessionState.FAILED
        after = continuation()
        assert after.keys() == before.keys()
        for name in before:
            np.testing.assert_array_equal(after[name], before[name])

        later = [push_window(stream, subject, w) for w in range(10, 12)]
        scheduler.join()
        assert all(s.state is SessionState.DONE for s in later)
        stream.close()
        scheduler.close()


def at_runtime(experiment) -> CHRISRuntime:
    """Every deployment served by a real (signal-reading) AT detector."""
    zoo = ModelsZoo()
    for entry in experiment.zoo:
        zoo.add(ZooEntry(predictor=AdaptiveThresholdPredictor(), deployment=entry.deployment))
    return CHRISRuntime(zoo=zoo, engine=experiment.engine, system=experiment.system)


def ppg_subject(subject_id: str, n_windows: int, length: int, seed: int) -> WindowedSubject:
    """Noisy ~1.3 Hz sinusoids at 32 Hz: windows the AT detector finds beats in."""
    rng = np.random.default_rng(seed)
    t = np.arange(length) / 32.0
    ppg = np.sin(2 * np.pi * (1.0 + 0.6 * rng.random((n_windows, 1))) * t)
    return WindowedSubject(
        subject_id=subject_id,
        ppg_windows=ppg + 0.2 * rng.standard_normal((n_windows, length)),
        accel_windows=rng.standard_normal((n_windows, length, 3)),
        activity=rng.integers(0, 9, size=n_windows),
        hr=70.0 + 30.0 * rng.random(n_windows),
        spec=DEFAULT_WINDOW_SPEC,
    )


class TestAdmissionGeometry:
    """A window the batch could not stack is rejected at admission.

    Regression: three healthy streams pushing 256-sample windows and one
    pushing a 200-sample window shared a batch, whose fused concatenate
    then failed all four sessions.
    """

    def test_bad_push_raises_and_healthy_streams_match_replay(self, calibrated_experiment):
        healthy = [ppg_subject(f"w{i}", 1, 256, seed=30 + i) for i in range(3)]
        bad = ppg_subject("w3", 1, 200, seed=33)
        with FleetScheduler(
            at_runtime(calibrated_experiment), CONSTRAINT, use_oracle_difficulty=True
        ) as scheduler:
            scheduler.pause()
            streams = [scheduler.open_stream(s.subject_id) for s in healthy + [bad]]
            sessions = [push_window(st, s, 0) for st, s in zip(streams, healthy)]
            with pytest.raises(ValueError, match="window geometry"):
                push_window(streams[3], bad, 0)
            assert len(scheduler._pending) == 3  # unguarded read: dispatch is paused
            scheduler.resume()
            scheduler.join()
            for stream in streams:
                stream.close()
        assert [s.state for s in sessions] == [SessionState.DONE] * 3
        reference = sequential_replay(
            at_runtime(calibrated_experiment), healthy, CONSTRAINT, use_oracle_difficulty=True
        )
        for session, subject in zip(sessions, healthy):
            expected = reference.results[subject.subject_id]
            assert np.isfinite(expected.predicted_hr).all()
            np.testing.assert_array_equal(session.result.predicted_hr, expected.predicted_hr)
            np.testing.assert_array_equal(session.result.model_names, expected.model_names)
            np.testing.assert_array_equal(session.result.offloaded, expected.offloaded)

    def test_submit_rejects_mismatched_geometry(self, calibrated_experiment):
        with make_scheduler(calibrated_experiment) as scheduler:
            scheduler.pause()
            first = scheduler.submit("a", make_subject("a"))
            short = make_subject("b")
            short.ppg_windows = short.ppg_windows[:, :8]
            with pytest.raises(ValueError, match="window geometry"):
                scheduler.submit("b", short)
            stream = scheduler.open_stream("w0")
            with pytest.raises(ValueError, match="window geometry"):
                stream.push(np.zeros(8))
            scheduler.resume()
            scheduler.join()
            stream.close()
        assert first.state is SessionState.DONE
        # One arrival event completed: the rejected inputs recorded nothing.
        assert scheduler.latency_stats()["n_windows"] == 1
