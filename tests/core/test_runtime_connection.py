"""Tests for the connection-aware runtime (BLE dropping and recovering)."""

import numpy as np
import pytest

from repro.core.decision_engine import Constraint
from repro.core.runtime import CHRISRuntime
from tests.core.scalar_oracle import run_scalar_oracle


@pytest.fixture()
def runtime(oracle_experiment):
    return CHRISRuntime(
        zoo=oracle_experiment.zoo,
        engine=oracle_experiment.engine,
        system=oracle_experiment.system,
    )


class TestConnectionTrace:
    def test_always_connected_matches_plain_run(self, runtime, small_dataset):
        subject = small_dataset.subjects[1]
        constraint = Constraint.max_mae(6.0)
        connected = np.ones(subject.n_windows, dtype=bool)
        traced = runtime.run_with_connection_trace(
            subject, constraint, connected, use_oracle_difficulty=True
        )
        plain = runtime.run(subject, constraint, use_oracle_difficulty=True)
        assert traced.mae_bpm == pytest.approx(plain.mae_bpm, rel=0.3)
        assert traced.offload_fraction == pytest.approx(plain.offload_fraction, abs=0.02)
        assert traced.mean_watch_energy_j == pytest.approx(plain.mean_watch_energy_j, rel=0.02)

    def test_never_connected_never_offloads(self, runtime, small_dataset):
        subject = small_dataset.subjects[1]
        connected = np.zeros(subject.n_windows, dtype=bool)
        result = runtime.run_with_connection_trace(
            subject, Constraint.max_mae(7.0), connected, use_oracle_difficulty=True
        )
        assert result.offload_fraction == 0.0
        assert not result.offloaded.any()

    def test_mid_run_disconnection_switches_configuration(self, runtime, small_dataset):
        subject = small_dataset.subjects[2]
        n = subject.n_windows
        connected = np.ones(n, dtype=bool)
        connected[n // 2:] = False
        result = runtime.run_with_connection_trace(
            subject, Constraint.max_mae(6.0), connected, use_oracle_difficulty=True
        )
        # Offloading only ever happens while the link is up.
        assert not result.offloaded[n // 2:].any()
        assert result.offloaded[: n // 2].any()
        # After the drop, the engine falls back to a local configuration whose
        # decisions may use a different (local) complex model.
        models_second = set(result.model_names[n // 2:])
        assert models_second  # non-empty; all executed locally
        assert result.n_windows == n

    def test_reconnection_resumes_offloading(self, runtime, small_dataset):
        subject = small_dataset.subjects[2]
        n = subject.n_windows
        connected = np.ones(n, dtype=bool)
        connected[n // 3: 2 * n // 3] = False
        result = runtime.run_with_connection_trace(
            subject, Constraint.max_mae(6.0), connected, use_oracle_difficulty=True
        )
        assert result.offloaded[2 * n // 3:].any()

    def test_system_connection_state_restored(self, runtime, small_dataset):
        subject = small_dataset.subjects[1]
        before = runtime.system.ble.connected
        connected = np.zeros(subject.n_windows, dtype=bool)
        runtime.run_with_connection_trace(
            subject, Constraint.max_mae(7.0), connected, use_oracle_difficulty=True
        )
        assert runtime.system.ble.connected == before

    def test_shape_validation(self, runtime, small_dataset):
        subject = small_dataset.subjects[1]
        with pytest.raises(ValueError):
            runtime.run_with_connection_trace(
                subject, Constraint.max_mae(6.0), np.ones(3, dtype=bool)
            )


def trace_run(runtime, subject, constraint, connected, scalar: bool):
    """``run_with_connection_trace``, or its per-window oracle."""
    if not scalar:
        return runtime.run_with_connection_trace(
            subject, constraint, connected, use_oracle_difficulty=True
        )
    traces = {subject.subject_id: connected}
    plan = runtime._plan_fleet([subject], constraint, True, traces)
    return run_scalar_oracle(runtime, subject, plan)


def configured_run(runtime, subject, configuration, scalar: bool):
    """``run_with_configuration``, or its per-window oracle."""
    if not scalar:
        return runtime.run_with_configuration(
            subject, configuration, use_oracle_difficulty=True
        )
    plan = runtime._plan_configured(subject, configuration, True)
    return run_scalar_oracle(runtime, subject, plan)


@pytest.mark.parametrize("scalar", [True, False], ids=["scalar", "batched"])
class TestReselection:
    """Configuration re-selection happens exactly at status changes, on
    the runtime and on its per-window oracle alike."""

    def test_segments_start_exactly_at_status_changes(
        self, runtime, small_dataset, scalar
    ):
        subject = small_dataset.subjects[2]
        n = subject.n_windows
        connected = np.ones(n, dtype=bool)
        connected[n // 3 : n // 2] = False
        connected[2 * n // 3] = False  # single-window dropout
        result = trace_run(runtime, subject, Constraint.max_mae(6.0), connected, scalar)
        expected_starts = [0] + (np.flatnonzero(np.diff(connected)) + 1).tolist()
        assert [start for start, _ in result.configuration_segments] == expected_starts
        # Equal statuses re-select the same configuration; the active one
        # at the end of the run is the last segment's.
        by_status = {}
        for start, config in result.configuration_segments:
            status = bool(connected[start])
            assert by_status.setdefault(status, config.label()) == config.label()
        assert result.configuration is result.configuration_segments[-1][1]

    def test_disconnected_segments_use_local_configuration(
        self, runtime, small_dataset, scalar
    ):
        subject = small_dataset.subjects[1]
        n = subject.n_windows
        connected = np.ones(n, dtype=bool)
        connected[: n // 2] = False
        result = trace_run(runtime, subject, Constraint.max_mae(6.0), connected, scalar)
        for start, config in result.configuration_segments:
            if not connected[start]:
                assert config.is_local
        assert not result.offloaded[: n // 2].any()

    def test_phone_windows_degrade_to_watch_while_disconnected(
        self, oracle_experiment, small_dataset, scalar
    ):
        """With a hybrid configuration forced while the link is down, the
        complex model's windows must execute locally instead of offloading."""
        subject = small_dataset.subjects[2]
        hybrid = next(
            c for c in oracle_experiment.table.feasible(connected=True)
            if not c.is_local and 0 < c.configuration.difficulty_threshold < 9
        )
        runtime = CHRISRuntime(
            zoo=oracle_experiment.zoo,
            engine=oracle_experiment.engine,
            system=oracle_experiment.system,
        )
        runtime.system.ble.disconnect()
        try:
            result = configured_run(runtime, subject, hybrid, scalar)
        finally:
            runtime.system.ble.reconnect()
        assert result.offload_fraction == 0.0
        # The complex model still handles the hard windows — only its
        # execution target degraded.
        hard = subject.difficulty > hybrid.configuration.difficulty_threshold
        assert hard.any()
        assert set(result.model_names[hard]) == {hybrid.configuration.complex_model}
        assert (result.phone_compute_j == 0).all()
