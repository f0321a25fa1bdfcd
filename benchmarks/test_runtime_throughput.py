"""Throughput benchmark: CHRIS runtime vs. the per-window oracle.

The runtime groups window indices by model and dispatches each group
through the predictors' batch API with cached cost lookups; this
benchmark measures it against the per-window oracle (one
``predict_window`` and one uncached cost per window) on a 10k-window
synthetic recording (≈5.5 hours at the 2-second prediction stride) and
pins the floor at 5x so regressions fail loudly.
"""

import json

from benchmarks.conftest import emit
from benchmarks.harness import benchmark_runtime

#: Required runtime-vs-oracle speedup on the 10k-window workload.
MIN_SPEEDUP = 5.0


def test_batched_runtime_speedup(experiment, results_dir):
    outcome = benchmark_runtime(experiment, n_windows=10_000, seed=0)

    emit(
        results_dir,
        "runtime_throughput",
        "\n".join(
            [
                f"workload: {outcome['n_windows']} windows, "
                f"configuration {outcome['configuration']}",
                f"per-window path: {outcome['scalar_windows_per_s']:,.0f} windows/s "
                f"({outcome['scalar_seconds']:.3f} s)",
                f"runtime:         {outcome['batched_windows_per_s']:,.0f} windows/s "
                f"({outcome['batched_seconds']:.3f} s)",
                f"speedup: {outcome['speedup']:.1f}x (floor {MIN_SPEEDUP:.0f}x)",
                f"MAE {outcome['mae_bpm']:.2f} BPM, "
                f"{100 * outcome['offload_fraction']:.1f}% offloaded, "
                f"{outcome['mean_watch_energy_mj']:.3f} mJ/prediction",
            ]
        ),
    )
    (results_dir / "runtime_throughput.json").write_text(json.dumps(outcome, indent=2) + "\n")

    assert outcome["routing_identical"], "runtime routed windows unlike the oracle"
    assert outcome["n_windows"] == 10_000
    assert outcome["speedup"] >= MIN_SPEEDUP
