"""Fleet-throughput benchmark: mega-batched / pool vs sequential replay.

The fleet execution engine stacks all subjects' windows into per-model
groups across the whole population (one ``predict`` call per model for
the entire fleet) and can shard subjects across worker processes; this
benchmark replays a 50-subject x 2k-window fleet through a loop of
per-subject ``run`` calls and both fleet paths, verifies the decisions are
bit-identical, and pins the mega-batched speedup floor at 3x so
regressions fail loudly.
"""

import json

import pytest

from benchmarks.conftest import emit
from benchmarks.harness import benchmark_fleet

#: Required mega-batched-vs-sequential fleet speedup on the 50x2k workload.
MIN_FLEET_SPEEDUP = 3.0


@pytest.mark.slow
def test_fleet_throughput_speedup(experiment, results_dir):
    outcome = benchmark_fleet(experiment, n_subjects=50, n_windows_per_subject=2_000, seed=0)

    emit(
        results_dir,
        "fleet_throughput",
        "\n".join(
            [
                f"workload: {outcome['n_subjects']} subjects x "
                f"{outcome['n_windows_per_subject']} windows "
                f"({outcome['n_windows_total']} total), "
                f"configuration {outcome['configuration']}",
                f"sequential: {outcome['sequential_subjects_per_s']:,.0f} subjects/s "
                f"({outcome['sequential_seconds']:.3f} s)",
                f"mega-batch: {outcome['mega_subjects_per_s']:,.0f} subjects/s "
                f"({outcome['mega_seconds']:.3f} s, "
                f"{outcome['mega_speedup']:.1f}x, floor {MIN_FLEET_SPEEDUP:.0f}x)",
                f"pool:       {outcome['pool_subjects_per_s']:,.0f} subjects/s "
                f"({outcome['pool_seconds']:.3f} s, "
                f"{outcome['pool_speedup']:.1f}x over {outcome['workers']} worker(s))",
                f"MAE {outcome['mae_bpm']:.2f} BPM, "
                f"{100 * outcome['offload_fraction']:.1f}% offloaded",
            ]
        ),
    )
    (results_dir / "fleet_throughput.json").write_text(json.dumps(outcome, indent=2) + "\n")

    assert outcome["decisions_identical"], "fast fleet paths diverged from sequential replay"
    assert outcome["n_windows_total"] == 100_000
    assert outcome["mega_speedup"] >= MIN_FLEET_SPEEDUP
