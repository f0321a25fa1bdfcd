"""Hardware and energy modelling substrate.

The paper measures energy and latency on a real two-device system: the
HWatch (STM32WB55 MCU, BLE 5.0 radio, MAX30101 PPG sensor, LSM6DSM
accelerometer with an embedded ML core) and a Raspberry Pi3 standing in
for the smartphone.  That hardware is obviously not available here, so
this package provides analytical models calibrated to the measurements the
paper publishes in Table III:

* :mod:`repro.hw.device` — generic compute-device model with a power-law
  operations→latency calibration and a power model (active / idle states);
* :mod:`repro.hw.mcu` — the STM32WB55 smartwatch MCU;
* :mod:`repro.hw.mobile` — the Raspberry Pi3 phone proxy;
* :mod:`repro.hw.ble` — the BLE link (per-window transmission energy and
  latency, connection status);
* :mod:`repro.hw.battery` — the HWatch Li-Ion battery and lifetime
  estimation;
* :mod:`repro.hw.profiles` — per-model deployment profiles (exactly the
  rows of Table III, either transcribed or re-derived from the calibrated
  device models);
* :mod:`repro.hw.platform` — the watch + phone + BLE co-model that turns a
  sequence of per-window execution decisions into per-prediction and total
  smartwatch energy, the quantity plotted on the x axis of Fig. 4.
"""

from repro.hw.device import CalibrationPoint, ComputeDevice, ExecutionResult, PowerLawLatencyModel
from repro.hw.mcu import STM32WB55, make_smartwatch_mcu
from repro.hw.mobile import RaspberryPi3, make_phone_processor
from repro.hw.ble import BLELink, BLEPacketizer
from repro.hw.battery import Battery, estimate_lifetime_hours
from repro.hw.power import PowerProfile
from repro.hw.profiles import (
    PAPER_DEPLOYMENTS,
    ExecutionTarget,
    ModelDeployment,
    build_deployment_table,
    deployment_for,
)
from repro.hw.platform import (
    PredictionCost,
    WearableSystem,
)

__all__ = [
    "CalibrationPoint",
    "ComputeDevice",
    "ExecutionResult",
    "PowerLawLatencyModel",
    "STM32WB55",
    "make_smartwatch_mcu",
    "RaspberryPi3",
    "make_phone_processor",
    "BLELink",
    "BLEPacketizer",
    "Battery",
    "estimate_lifetime_hours",
    "PowerProfile",
    "PAPER_DEPLOYMENTS",
    "ExecutionTarget",
    "ModelDeployment",
    "build_deployment_table",
    "deployment_for",
    "PredictionCost",
    "WearableSystem",
]
