"""Scheduler-throughput benchmark: online sessions vs sequential replay.

The online :class:`~repro.core.scheduler.FleetScheduler` must not trade
its dynamic-session flexibility for throughput: arrivals that queue while
its worker executes a batch coalesce into cross-subject mega-batches, so
draining the 50-subject x 2k-window workload through the scheduler has to
stay ≥ 3x faster than a loop of per-subject ``run`` calls (the same
baseline the mega-batch benchmark pins against), while remaining
bit-identical to it.  The measurement also lands in ``BENCH_runtime.json`` (see
``benchmarks/summarize_runtime.py``) so the perf trajectory tracks the
scheduler alongside the runtime and fleet paths.
"""

import json

import pytest

from benchmarks.conftest import emit
from benchmarks.harness import benchmark_scheduler

#: Required scheduler-vs-sequential speedup on the 50x2k workload.
MIN_SCHEDULER_SPEEDUP = 3.0


@pytest.mark.slow
def test_scheduler_throughput_speedup(experiment, results_dir):
    outcome = benchmark_scheduler(
        experiment, n_subjects=50, n_windows_per_subject=2_000, seed=0
    )

    emit(
        results_dir,
        "scheduler_throughput",
        "\n".join(
            [
                f"workload: {outcome['n_subjects']} dynamic sessions x "
                f"{outcome['n_windows_per_subject']} windows "
                f"({outcome['n_windows_total']} total), "
                f"configuration {outcome['configuration']}",
                f"sequential: {outcome['sequential_sessions_per_s']:,.0f} sessions/s "
                f"({outcome['sequential_seconds']:.3f} s)",
                f"scheduler:  {outcome['scheduler_sessions_per_s']:,.0f} sessions/s "
                f"({outcome['scheduler_seconds']:.3f} s, "
                f"{outcome['scheduler_speedup']:.1f}x, floor {MIN_SCHEDULER_SPEEDUP:.0f}x)",
                f"MAE {outcome['mae_bpm']:.2f} BPM, "
                f"{100 * outcome['offload_fraction']:.1f}% offloaded",
            ]
        ),
    )
    (results_dir / "scheduler_throughput.json").write_text(json.dumps(outcome, indent=2) + "\n")

    assert outcome["decisions_identical"], "scheduler diverged from sequential replay"
    assert outcome["n_windows_total"] == 100_000
    assert outcome["scheduler_speedup"] >= MIN_SCHEDULER_SPEEDUP
