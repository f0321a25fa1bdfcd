"""Per-window reference loop of the configuration profiler.

``ConfigurationProfiler`` gathers each configuration's per-window error,
energy, latency and placement from its nine per-difficulty routes.  This
module keeps the loop it replaced, which asks the configuration for the
route of one window at a time; :func:`profile_all_oracle` profiles a
whole design space with it, the table the vectorized profiler must equal.
"""

from __future__ import annotations

import numpy as np

from repro.core.configuration import Configuration, ProfiledConfiguration, enumerate_configurations
from repro.core.profiling import ConfigurationProfiler, ConfigurationTable, ProfilingData
from repro.hw.profiles import ExecutionTarget


def profile_configuration_oracle(
    profiler: ConfigurationProfiler, configuration: Configuration, data: ProfilingData
) -> ProfiledConfiguration:
    """One configuration's profile, routing one window at a time."""
    costs = profiler._prediction_costs()
    n = data.n_windows
    errors = np.empty(n)
    watch_energy = np.empty(n)
    phone_energy = np.empty(n)
    latency = np.empty(n)
    offloaded = np.zeros(n, dtype=bool)
    for i in range(n):
        model, target = configuration.model_for_difficulty(int(data.predicted_difficulty[i]))
        cost = costs[(model, target)]
        errors[i] = data.errors[model][i]
        watch_energy[i] = cost.watch_total_j
        phone_energy[i] = cost.phone_compute_j
        latency[i] = cost.latency_s
        offloaded[i] = target is ExecutionTarget.PHONE
    return ProfiledConfiguration(
        configuration=configuration,
        mae_bpm=float(errors.mean()),
        watch_energy_j=float(watch_energy.mean()),
        phone_energy_j=float(phone_energy.mean()),
        mean_latency_s=float(latency.mean()),
        offload_fraction=float(offloaded.mean()),
    )


def profile_all_oracle(profiler: ConfigurationProfiler, data: ProfilingData) -> ConfigurationTable:
    """The whole design space of the profiler's zoo, one window at a time."""
    ordered = [entry.name for entry in profiler.zoo.ordered_by_cost()]
    return ConfigurationTable(
        [profile_configuration_oracle(profiler, c, data) for c in enumerate_configurations(ordered)]
    )
