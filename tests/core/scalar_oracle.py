"""Per-window reference execution of a planned recording.

``CHRISRuntime`` executes a plan with one fused call per model over the
whole fleet and fills costs from a lookup table.  This module keeps the
path that execution is pinned against: one ``predict_window`` call and
one uncached cost computation per window.  :func:`run_scalar_oracle`
takes a one-subject plan from ``runtime._plan_fleet`` (or
``runtime._plan_configured`` for an explicit configuration) and returns
the :class:`~repro.core.runtime.RunResult` the runtime must equal.
"""

from __future__ import annotations

import numpy as np

from repro.core.runtime import _COST_FIELDS, CHRISRuntime, RunResult, _column, _cost_values
from repro.data.dataset import WindowedSubject


def execute_scalar(
    runtime: CHRISRuntime, windows: WindowedSubject, plan
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Predicted HR and cost columns of ``plan``, one window at a time."""
    n = windows.n_windows
    entries = [runtime.zoo.entry(name) for name in runtime.zoo.names]
    predicted_hr = np.empty(n, dtype=runtime.dtype)
    cost_arrays = tuple(np.empty(n, dtype=float) for _ in _COST_FIELDS)
    for i in range(n):
        entry = entries[plan.model_codes[i]]
        predicted_hr[i] = float(
            entry.predictor.predict_window(
                windows.ppg_windows[i],
                windows.accel_windows[i],
                true_hr=float(windows.hr[i]),
                activity=int(windows.activity[i]),
            )
        )
        if plan.offloaded[i]:
            cost = runtime.system.offloaded_cost(entry.deployment)
        else:
            cost = runtime.system.local_prediction_cost(entry.deployment)
        for array, value in zip(cost_arrays, _cost_values(cost)):
            array[i] = value
    return predicted_hr, cost_arrays


def run_scalar_oracle(runtime: CHRISRuntime, windows: WindowedSubject, plan) -> RunResult:
    """Execute one planned recording window by window, from reset predictors."""
    runtime._reset_predictors()
    predicted_hr, costs = execute_scalar(runtime, windows, plan)
    fleet = runtime._fleet_result(
        plan,
        _column([windows.activity], int),
        _column([windows.hr], float),
        predicted_hr,
        costs,
    )
    return fleet.results[windows.subject_id]
