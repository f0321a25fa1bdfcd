"""Watch + phone + BLE co-model.

:class:`WearableSystem` turns per-window execution decisions ("run model M
on the watch" / "offload model M to the phone") into the energies and
latencies the paper reports:

* per-prediction smartwatch energy — computation (or BLE transmission)
  plus the idle energy for the rest of the 2-second prediction period;
  this is the x axis of Fig. 4 and the quantity all the headline factors
  refer to;
* per-prediction phone energy — used in the total-system-energy
  discussion of Sec. IV-A;
* end-to-end latency — execution time, or transmission plus remote
  execution when offloading.

The difficulty detector (the activity-recognition Random Forest) runs on
the ML core embedded in the LSM6DSM accelerometer, so its cost to the main
MCU is zero (Sec. III-B of the paper); an optional per-prediction overhead
can be configured to study what happens when that assumption is dropped
(one of the ablation benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.ble import BLELink, WINDOW_PAYLOAD_BYTES
from repro.hw.device import ComputeDevice
from repro.hw.mcu import make_smartwatch_mcu
from repro.hw.mobile import make_phone_processor
from repro.hw.profiles import ExecutionTarget, ModelDeployment

#: Time between successive predictions: the 64-sample window stride at 32 Hz.
PREDICTION_PERIOD_S = 2.0


@dataclass(frozen=True)
class PredictionCost:
    """Energy/latency breakdown of a single HR prediction.

    All energies are in joules, latency in seconds.
    """

    model_name: str
    target: ExecutionTarget
    watch_compute_j: float
    watch_radio_j: float
    watch_idle_j: float
    phone_compute_j: float
    latency_s: float

    @property
    def watch_total_j(self) -> float:
        """Total smartwatch energy for this prediction (the paper's metric)."""
        return self.watch_compute_j + self.watch_radio_j + self.watch_idle_j

    @property
    def system_total_j(self) -> float:
        """Total energy across watch and phone."""
        return self.watch_total_j + self.phone_compute_j

    @property
    def offloaded(self) -> bool:
        """Whether this prediction ran on the phone."""
        return self.target is ExecutionTarget.PHONE


class WearableSystem:
    """The two-device platform of the paper.

    Parameters
    ----------
    watch, phone:
        Compute-device models (paper-calibrated defaults when omitted).
    ble:
        BLE link model (paper-calibrated default when omitted).
    prediction_period_s:
        Time between predictions (2 s).
    offload_payload_bytes:
        Bytes streamed per offloaded prediction (one full window by
        default; the incremental-streaming ablation lowers this).
    difficulty_detector_energy_j:
        Per-prediction MCU energy of the activity recognizer; 0 because the
        paper runs it on the accelerometer's ML core.
    """

    def __init__(
        self,
        watch: ComputeDevice | None = None,
        phone: ComputeDevice | None = None,
        ble: BLELink | None = None,
        prediction_period_s: float = PREDICTION_PERIOD_S,
        offload_payload_bytes: int = WINDOW_PAYLOAD_BYTES,
        difficulty_detector_energy_j: float = 0.0,
    ) -> None:
        if prediction_period_s <= 0:
            raise ValueError(f"prediction_period_s must be positive, got {prediction_period_s}")
        if offload_payload_bytes <= 0:
            raise ValueError(f"offload_payload_bytes must be positive, got {offload_payload_bytes}")
        if difficulty_detector_energy_j < 0:
            raise ValueError(
                f"difficulty_detector_energy_j must be >= 0, got {difficulty_detector_energy_j}"
            )
        self.watch = watch or make_smartwatch_mcu()
        self.phone = phone or make_phone_processor()
        self.ble = ble or BLELink.calibrated_to_paper()
        self.prediction_period_s = prediction_period_s
        self.offload_payload_bytes = offload_payload_bytes
        self.difficulty_detector_energy_j = difficulty_detector_energy_j

    # ----------------------------------------------------------- connection
    @property
    def connected(self) -> bool:
        """Whether the BLE link to the phone is currently available."""
        return self.ble.connected

    # ------------------------------------------------------------ cost model
    def _idle_energy(self, busy_time_s: float) -> float:
        idle_time = max(0.0, self.prediction_period_s - busy_time_s)
        return self.watch.idle_energy(idle_time)

    def local_prediction_cost(self, deployment: ModelDeployment) -> PredictionCost:
        """Cost of running ``deployment`` on the smartwatch."""
        busy = deployment.watch_time_s
        return PredictionCost(
            model_name=deployment.name,
            target=ExecutionTarget.WATCH,
            watch_compute_j=deployment.watch_active_energy_j + self.difficulty_detector_energy_j,
            watch_radio_j=0.0,
            watch_idle_j=self._idle_energy(busy),
            phone_compute_j=0.0,
            latency_s=deployment.watch_time_s,
        )

    def offloaded_prediction_cost(self, deployment: ModelDeployment) -> PredictionCost:
        """Cost of streaming the window to the phone and running there.

        Raises
        ------
        RuntimeError
            If the BLE link is currently disconnected.
        """
        if not self.ble.connected:
            raise RuntimeError("cannot offload: BLE link is disconnected")
        return self.offloaded_cost(deployment)

    def offloaded_cost(self, deployment: ModelDeployment) -> PredictionCost:
        """Offloaded cost without the connection guard.

        The batched runtime plans offloading only for windows whose BLE
        segment is up, so it evaluates this cost regardless of the link's
        *current* state; interactive callers should keep using
        :meth:`offloaded_prediction_cost`.
        """
        tx_time = self.ble.transmission_time_s(self.offload_payload_bytes)
        tx_energy = self.ble.transmission_energy_j(self.offload_payload_bytes)
        busy = tx_time  # the watch is only busy while transmitting
        return PredictionCost(
            model_name=deployment.name,
            target=ExecutionTarget.PHONE,
            watch_compute_j=self.difficulty_detector_energy_j,
            watch_radio_j=tx_energy,
            watch_idle_j=self._idle_energy(busy),
            phone_compute_j=deployment.phone_active_energy_j,
            latency_s=tx_time + deployment.phone_time_s,
        )

    def prediction_cost(self, deployment: ModelDeployment, target: ExecutionTarget) -> PredictionCost:
        """Cost of one prediction on the requested target."""
        if target is ExecutionTarget.WATCH:
            return self.local_prediction_cost(deployment)
        return self.offloaded_prediction_cost(deployment)

    # ------------------------------------------------------------ cost tables
    def hardware_revision(self) -> tuple:
        """Fingerprint of every parameter the cost model reads.

        Per-prediction costs consult only the watch's idle power (active
        energies come from the deployment profiles) plus the BLE link and
        the scalar system parameters, all captured here by value — two
        systems with equal revisions produce identical costs, so the
        runtime's per-call cost table costs each routed
        ``(deployment, target)`` pair once per revision.  Both replacing a
        component and mutating it in place change the revision.
        """
        return (
            self.prediction_period_s,
            self.offload_payload_bytes,
            self.difficulty_detector_energy_j,
            self.watch.power.idle_w,
            self.ble.tx_power_w,
            self.ble.throughput_bps,
            self.ble.connection_event_overhead_s,
            self.ble.packetizer.mtu_bytes,
            self.ble.packetizer.packet_overhead_bytes,
        )

    def cached_prediction_cost(
        self, deployment: ModelDeployment, target: ExecutionTarget
    ) -> PredictionCost:
        """Per-``(deployment, target)`` prediction cost, for batched dispatch.

        The caching is the runtime's per-call cost table: it calls this
        once per routed ``(hardware revision, model, target)``, never per
        window, so the cost is computed directly here.  Unlike
        :meth:`prediction_cost` this never consults the *current* BLE
        connection state — callers are responsible for only requesting
        phone costs for windows planned while the link is up.
        """
        if target is ExecutionTarget.WATCH:
            return self.local_prediction_cost(deployment)
        return self.offloaded_cost(deployment)

    # -------------------------------------------------------------- summary
    def average_watch_power_w(self, energy_per_prediction_j: float) -> float:
        """Average smartwatch power for a given per-prediction energy."""
        if energy_per_prediction_j < 0:
            raise ValueError("energy_per_prediction_j must be >= 0")
        return energy_per_prediction_j / self.prediction_period_s
