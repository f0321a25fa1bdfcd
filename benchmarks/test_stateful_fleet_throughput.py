"""Stateful-fleet throughput: stacked-state dispatch vs per-subject replay.

Stateful predictors (``FLEET_BATCHABLE = False``) run through
``predict_fleet``: one call per model for the whole fleet, state-free
work vectorized over the whole stack and the tracking recurrences
advancing all subjects in lock-step.  This benchmark replays a
50-subject x 2k-window fleet through a stateful-heavy zoo (spectral
tracker + smoothed calibrated trackers) with ``run_many`` and with a
loop of per-subject ``run`` calls, verifies bit-identical decisions, and
pins the fleet speedup.

The floor is 1.5x.  The baseline is per-subject ``run``, which already
vectorizes each subject's stream through a one-slot ``predict_fleet``;
what fusing the fleet still saves is per-call overhead across 50
subjects, measured at 2.0-2.4x on a 2-core box.  (The former 2x floor
was pinned against a per-``(model, subject)`` replay path that no
longer exists; against the new baseline 2x sits within run-to-run
noise.)
"""

import json

import pytest

from benchmarks.conftest import emit
from benchmarks.harness import benchmark_stateful_fleet

#: Required stacked-state-vs-per-subject-run speedup on the stateful
#: 50x2k workload (measured 2.0-2.4x on a 2-core box; see the module docstring).
MIN_STATEFUL_SPEEDUP = 1.5


@pytest.mark.slow
def test_stateful_fleet_throughput_speedup(experiment, results_dir):
    outcome = benchmark_stateful_fleet(
        experiment, n_subjects=50, n_windows_per_subject=2_000, seed=0
    )

    emit(
        results_dir,
        "stateful_fleet_throughput",
        "\n".join(
            [
                f"workload: {outcome['n_subjects']} subjects x "
                f"{outcome['n_windows_per_subject']} windows "
                f"({outcome['n_windows_total']} total), "
                f"configuration {outcome['configuration']}, "
                f"{outcome['n_stateful_models']} stateful models",
                f"per-subject run: {outcome['sequential_windows_per_s']:,.0f} windows/s "
                f"({outcome['sequential_seconds']:.3f} s)",
                f"stacked-state:   {outcome['stacked_windows_per_s']:,.0f} windows/s "
                f"({outcome['stacked_seconds']:.3f} s, "
                f"{outcome['stacked_speedup']:.1f}x, floor {MIN_STATEFUL_SPEEDUP:.1f}x)",
                f"MAE {outcome['mae_bpm']:.2f} BPM, "
                f"{100 * outcome['offload_fraction']:.1f}% offloaded",
            ]
        ),
    )
    (results_dir / "stateful_fleet_throughput.json").write_text(
        json.dumps(outcome, indent=2) + "\n"
    )

    assert outcome["decisions_identical"], (
        "stacked-state dispatch diverged from per-subject replay"
    )
    assert outcome["n_windows_total"] == 100_000
    assert outcome["n_stateful_models"] == 3
    assert outcome["stacked_speedup"] >= MIN_STATEFUL_SPEEDUP
