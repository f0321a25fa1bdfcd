"""Offline profiling of CHRIS configurations.

Before deployment, every configuration is characterized on a profiling
dataset: its expected MAE and its expected per-prediction smartwatch
energy (paper Sec. III-A and Table II).  The profiler works from a
:class:`ProfilingData` object holding, for every window of the profiling
set,

* the absolute HR error each zoo model would make on that window, and
* the difficulty level the activity recognizer predicts for it (plus the
  ground-truth difficulty, used to quantify the impact of mispredictions).

That representation lets the 60 configurations be profiled without
re-running any model: each configuration just mixes the per-window errors
and the per-(model, placement) energy costs according to its threshold.
The paper follows the same logic — individual models are profiled once
(Table III) and configurations are combinations of those profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.configuration import (
    Configuration,
    ExecutionMode,
    ProfiledConfiguration,
    enumerate_configurations,
)
from repro.core.pareto import pareto_front
from repro.core.zoo import ModelsZoo
from repro.data.activities import NUM_DIFFICULTY_LEVELS
from repro.data.dataset import WindowedSubject
from repro.hw.platform import WearableSystem
from repro.hw.profiles import ExecutionTarget
from repro.ml.activity_classifier import ActivityClassifier


@dataclass
class ProfilingData:
    """Per-window quantities needed to profile configurations.

    Attributes
    ----------
    errors:
        Mapping from model name to the per-window absolute HR error (BPM).
    predicted_difficulty:
        Difficulty level (1–9) the activity recognizer assigns to each
        window — the quantity the decision engine actually uses.
    true_difficulty:
        Ground-truth difficulty level of each window.
    true_hr:
        Ground-truth HR (BPM) of each window (kept for reporting).
    """

    errors: dict[str, np.ndarray]
    predicted_difficulty: np.ndarray
    true_difficulty: np.ndarray
    true_hr: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        if not self.errors:
            raise ValueError("ProfilingData needs at least one model's errors")
        self.predicted_difficulty = np.asarray(self.predicted_difficulty, dtype=int)
        self.true_difficulty = np.asarray(self.true_difficulty, dtype=int)
        n = self.predicted_difficulty.shape[0]
        if n == 0:
            raise ValueError("ProfilingData is empty")
        for name, err in self.errors.items():
            err = np.asarray(err, dtype=float)
            if err.shape != (n,):
                raise ValueError(
                    f"errors[{name!r}] has shape {err.shape}, expected ({n},)"
                )
            if np.any(err < 0):
                raise ValueError(f"errors[{name!r}] contains negative values")
            self.errors[name] = err
        if self.true_difficulty.shape != (n,):
            raise ValueError("true_difficulty length mismatch")
        if np.any((self.predicted_difficulty < 1) | (self.predicted_difficulty > 9)):
            raise ValueError("predicted_difficulty values must be in [1, 9]")
        if np.any((self.true_difficulty < 1) | (self.true_difficulty > 9)):
            raise ValueError("true_difficulty values must be in [1, 9]")

    @property
    def n_windows(self) -> int:
        """Number of profiled windows."""
        return self.predicted_difficulty.shape[0]

    @property
    def model_names(self) -> list[str]:
        """Names of the models with error traces."""
        return list(self.errors)

    def model_mae(self, name: str) -> float:
        """Overall MAE of a single model on the profiling set."""
        return float(np.mean(self.errors[name]))

    # ------------------------------------------------------------ builders
    @classmethod
    def from_zoo_predictions(
        cls,
        zoo: ModelsZoo,
        windows: WindowedSubject,
        activity_classifier: ActivityClassifier | None = None,
        use_oracle_difficulty: bool = False,
    ) -> "ProfilingData":
        """Build profiling data by running every zoo model on real windows.

        Parameters
        ----------
        zoo:
            The models zoo (predictors may be real or calibrated).
        windows:
            Windowed profiling recording(s).
        activity_classifier:
            Trained difficulty detector; required unless
            ``use_oracle_difficulty`` is set.
        use_oracle_difficulty:
            Use the ground-truth activity instead of the classifier (the
            "oracle" ablation).
        """
        true_difficulty = windows.difficulty
        if use_oracle_difficulty:
            predicted_difficulty = true_difficulty.copy()
        else:
            if activity_classifier is None:
                raise ValueError(
                    "an activity classifier is required unless use_oracle_difficulty=True"
                )
            predicted_difficulty = activity_classifier.predict_difficulty(windows.accel_windows)

        errors = {}
        for entry in zoo:
            predictions = entry.predictor.predict(
                windows.ppg_windows,
                windows.accel_windows,
                true_hr=windows.hr,
                activity=windows.activity,
            )
            errors[entry.name] = np.abs(np.asarray(predictions, dtype=float) - windows.hr)
        return cls(
            errors=errors,
            predicted_difficulty=predicted_difficulty,
            true_difficulty=true_difficulty,
            true_hr=windows.hr.copy(),
        )


class ConfigurationTable:
    """Profiled configurations, stored sorted as in the smartwatch MCU.

    The paper keeps configurations "ordered by energy and MAE" so a single
    linear pass retrieves the configuration matching a user constraint;
    the table exposes exactly that access pattern, plus Pareto filtering
    and connection-status filtering.
    """

    def __init__(self, configurations: list[ProfiledConfiguration]) -> None:
        if not configurations:
            raise ValueError("ConfigurationTable cannot be empty")
        self._all = sorted(configurations, key=lambda c: (c.watch_energy_j, c.mae_bpm))

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self):
        return iter(self._all)

    def __getitem__(self, index: int) -> ProfiledConfiguration:
        return self._all[index]

    @property
    def configurations(self) -> list[ProfiledConfiguration]:
        """All profiled configurations, sorted by increasing energy."""
        return list(self._all)

    def feasible(self, connected: bool) -> list[ProfiledConfiguration]:
        """Configurations compatible with the current connection status.

        When the BLE link is down, hybrid configurations are filtered out
        (paper Sec. III-B.1).
        """
        if connected:
            return list(self._all)
        return [c for c in self._all if c.is_local]

    def pareto(self, connected: bool = True) -> list[ProfiledConfiguration]:
        """Pareto-optimal configurations among the feasible ones."""
        return pareto_front(self.feasible(connected))

    # ------------------------------------------------------------- reports
    def to_text(self, only_pareto: bool = False, connected: bool = True) -> str:
        """Plain-text rendering in the style of the paper's Table II."""
        rows = self.pareto(connected) if only_pareto else self.feasible(connected)
        lines = [
            f"{'configuration':<40} {'MAE [BPM]':>10} {'E [mJ]':>9} {'thr':>4} {'exec':>7} {'offl %':>7}"
        ]
        for config in rows:
            lines.append(
                f"{config.label():<40} {config.mae_bpm:>10.2f} {config.watch_energy_mj:>9.3f} "
                f"{config.configuration.difficulty_threshold:>4d} "
                f"{config.configuration.mode.value:>7} {100 * config.offload_fraction:>6.1f}%"
            )
        return "\n".join(lines)


class ConfigurationProfiler:
    """Attach MAE/energy profiles to every configuration of the design space."""

    def __init__(self, zoo: ModelsZoo, system: WearableSystem | None = None) -> None:
        if len(zoo) < 2:
            raise ValueError("the zoo needs at least two models to build configurations")
        self.zoo = zoo
        self.system = system or WearableSystem()

    # ------------------------------------------------------------ internals
    def _prediction_costs(self) -> dict:
        """Per-(model, target) prediction costs.

        Profiling happens offline with the phone reachable, so the phone
        cost is computed even if the link happens to be down at call time.
        """
        costs = {}
        was_connected = self.system.ble.connected
        self.system.ble.connected = True
        try:
            for entry in self.zoo:
                costs[(entry.name, ExecutionTarget.WATCH)] = self.system.local_prediction_cost(
                    entry.deployment
                )
                costs[(entry.name, ExecutionTarget.PHONE)] = self.system.offloaded_prediction_cost(
                    entry.deployment
                )
        finally:
            self.system.ble.connected = was_connected
        return costs

    def _profile(
        self, configuration: Configuration, data: ProfilingData, costs: dict
    ) -> ProfiledConfiguration:
        """Profile one configuration with precomputed prediction costs.

        The configuration routes each difficulty level to a (model,
        target) pair; every per-window quantity is gathered from those
        nine routes by the window's predicted level.
        """
        for model in configuration.models:
            if model not in data.errors:
                raise KeyError(f"profiling data has no error trace for model {model!r}")
            if model not in self.zoo:
                raise KeyError(f"model {model!r} is not in the zoo")

        routes = [
            configuration.model_for_difficulty(level)
            for level in range(1, NUM_DIFFICULTY_LEVELS + 1)
        ]
        route_costs = [costs[route] for route in routes]
        level = data.predicted_difficulty - 1
        models = list(configuration.models)
        model_index = np.array([models.index(model) for model, _ in routes])[level]
        errors = np.choose(model_index, [data.errors[model] for model in models])
        watch_energy = np.array([cost.watch_total_j for cost in route_costs])[level]
        phone_energy = np.array([cost.phone_compute_j for cost in route_costs])[level]
        latency = np.array([cost.latency_s for cost in route_costs])[level]
        offloaded = np.array([target is ExecutionTarget.PHONE for _, target in routes])[level]
        return ProfiledConfiguration(
            configuration=configuration,
            mae_bpm=float(errors.mean()),
            watch_energy_j=float(watch_energy.mean()),
            phone_energy_j=float(phone_energy.mean()),
            mean_latency_s=float(latency.mean()),
            offload_fraction=float(offloaded.mean()),
        )

    def profile_configuration(
        self, configuration: Configuration, data: ProfilingData
    ) -> ProfiledConfiguration:
        """Profile a single configuration on the profiling data."""
        return self._profile(configuration, data, self._prediction_costs())

    # --------------------------------------------------------------- public
    def profile_all(
        self,
        data: ProfilingData,
        configurations: list[Configuration] | None = None,
    ) -> ConfigurationTable:
        """Profile the whole design space (or a provided subset).

        When ``configurations`` is omitted the full 2-out-of-N × thresholds
        × {local, hybrid} space is enumerated from the zoo, ordered by
        smartwatch cost.
        """
        if configurations is None:
            ordered = [entry.name for entry in self.zoo.ordered_by_cost()]
            configurations = enumerate_configurations(ordered)
        costs = self._prediction_costs()
        profiled = [self._profile(c, data, costs) for c in configurations]
        return ConfigurationTable(profiled)
