"""Tests for the watch + phone + BLE co-model."""

import pytest

from repro.hw.ble import BLELink
from repro.hw.platform import PREDICTION_PERIOD_S, WearableSystem
from repro.hw.profiles import PAPER_DEPLOYMENTS, ExecutionTarget
from repro.models.registry import PAPER_MODEL_STATS


@pytest.fixture()
def system() -> WearableSystem:
    return WearableSystem()


class TestLocalPrediction:
    def test_prediction_period_is_window_stride(self):
        assert PREDICTION_PERIOD_S == pytest.approx(2.0)

    def test_local_cost_reproduces_table3_energy(self, system):
        """Local per-prediction watch energy (compute + idle) matches Table III."""
        for name, deployment in PAPER_DEPLOYMENTS.items():
            cost = system.local_prediction_cost(deployment)
            expected_mj = PAPER_MODEL_STATS[name].watch_energy_mj
            assert cost.watch_total_j * 1e3 == pytest.approx(expected_mj, rel=0.05), name
            assert cost.phone_compute_j == 0.0
            assert cost.watch_radio_j == 0.0
            assert not cost.offloaded

    def test_local_latency_is_execution_time(self, system):
        deployment = PAPER_DEPLOYMENTS["TimePPG-Big"]
        cost = system.local_prediction_cost(deployment)
        assert cost.latency_s == pytest.approx(deployment.watch_time_s)


class TestOffloadedPrediction:
    def test_offload_energy_is_ble_plus_idle(self, system):
        deployment = PAPER_DEPLOYMENTS["TimePPG-Big"]
        cost = system.offloaded_prediction_cost(deployment)
        assert cost.offloaded
        assert cost.watch_compute_j == 0.0
        assert cost.watch_radio_j == pytest.approx(0.52e-3, rel=0.02)
        assert cost.phone_compute_j == pytest.approx(25.60e-3, rel=0.01)
        # Offloading the big model costs the watch far less than running it.
        local = system.local_prediction_cost(deployment)
        assert cost.watch_total_j < local.watch_total_j / 20

    def test_offload_latency_includes_transfer_and_remote_execution(self, system):
        deployment = PAPER_DEPLOYMENTS["TimePPG-Small"]
        cost = system.offloaded_prediction_cost(deployment)
        assert cost.latency_s == pytest.approx(
            system.ble.transmission_time_s(system.offload_payload_bytes) + deployment.phone_time_s
        )

    def test_offloading_at_is_suboptimal_for_the_watch(self, system):
        """Paper Sec. IV-A: offloading AT costs the watch more than running it."""
        deployment = PAPER_DEPLOYMENTS["AT"]
        local = system.local_prediction_cost(deployment)
        offloaded = system.offloaded_prediction_cost(deployment)
        assert offloaded.watch_total_j > local.watch_total_j

    def test_offloading_small_is_marginally_convenient(self, system):
        """Paper Sec. IV-A: for TimePPG-Small, streaming (0.519 mJ) is slightly
        cheaper for the watch than local execution (0.735 mJ)."""
        deployment = PAPER_DEPLOYMENTS["TimePPG-Small"]
        local = system.local_prediction_cost(deployment)
        offloaded = system.offloaded_prediction_cost(deployment)
        assert offloaded.watch_total_j < local.watch_total_j
        assert offloaded.watch_total_j > 0.6 * local.watch_total_j

    def test_offload_requires_connection(self):
        system = WearableSystem(ble=BLELink.calibrated_to_paper(connected=False))
        with pytest.raises(RuntimeError):
            system.offloaded_prediction_cost(PAPER_DEPLOYMENTS["TimePPG-Big"])
        assert not system.connected

    def test_system_total_includes_phone(self, system):
        deployment = PAPER_DEPLOYMENTS["TimePPG-Big"]
        cost = system.offloaded_prediction_cost(deployment)
        assert cost.system_total_j == pytest.approx(cost.watch_total_j + cost.phone_compute_j)


class TestConfigurationKnobs:
    def test_incremental_streaming_reduces_radio_energy(self):
        full = WearableSystem()
        incremental = WearableSystem(offload_payload_bytes=64 * 4 * 2)
        deployment = PAPER_DEPLOYMENTS["TimePPG-Big"]
        assert (
            incremental.offloaded_prediction_cost(deployment).watch_radio_j
            < full.offloaded_prediction_cost(deployment).watch_radio_j
        )

    def test_difficulty_detector_overhead_added_to_every_prediction(self):
        overhead = 50e-6
        system = WearableSystem(difficulty_detector_energy_j=overhead)
        baseline = WearableSystem()
        deployment = PAPER_DEPLOYMENTS["AT"]
        delta = (
            system.local_prediction_cost(deployment).watch_total_j
            - baseline.local_prediction_cost(deployment).watch_total_j
        )
        assert delta == pytest.approx(overhead)

    def test_prediction_cost_dispatch(self, system):
        deployment = PAPER_DEPLOYMENTS["AT"]
        assert not system.prediction_cost(deployment, ExecutionTarget.WATCH).offloaded
        assert system.prediction_cost(deployment, ExecutionTarget.PHONE).offloaded

    def test_average_power(self, system):
        assert system.average_watch_power_w(2e-3) == pytest.approx(1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            WearableSystem(prediction_period_s=0.0)
        with pytest.raises(ValueError):
            WearableSystem(offload_payload_bytes=0)
        with pytest.raises(ValueError):
            WearableSystem(difficulty_detector_energy_j=-1.0)


class TestCachedPredictionCost:
    def test_cached_matches_uncached_for_both_targets(self, system):
        for name in PAPER_DEPLOYMENTS:
            deployment = PAPER_DEPLOYMENTS[name]
            for target in (ExecutionTarget.WATCH, ExecutionTarget.PHONE):
                assert system.cached_prediction_cost(deployment, target) == (
                    system.prediction_cost(deployment, target)
                )

    def test_cache_invalidates_when_parameters_change(self, system):
        """A mutated system parameter changes the next cost."""
        deployment = PAPER_DEPLOYMENTS["AT"]
        before = system.cached_prediction_cost(deployment, ExecutionTarget.WATCH)
        system.prediction_period_s = 4.0
        after = system.cached_prediction_cost(deployment, ExecutionTarget.WATCH)
        assert after.watch_idle_j > before.watch_idle_j

    def test_cached_phone_cost_ignores_connection_state(self, system):
        """The batched planner guarantees phone windows were planned while
        connected, so the cache lookup itself must not consult the link."""
        deployment = PAPER_DEPLOYMENTS["TimePPG-Big"]
        expected = system.prediction_cost(deployment, ExecutionTarget.PHONE)
        system.ble.disconnect()
        try:
            with pytest.raises(RuntimeError):
                system.prediction_cost(deployment, ExecutionTarget.PHONE)
            assert system.cached_prediction_cost(deployment, ExecutionTarget.PHONE) == expected
        finally:
            system.ble.reconnect()
