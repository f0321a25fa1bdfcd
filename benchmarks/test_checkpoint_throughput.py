"""Checkpointed-fleet throughput benchmark: the durability tax floor.

Crash-safe fleet execution pays for its journal writes and atomic shard
staging on every run; this benchmark replays the 50-subject x 2k-window
fleet through the unstaged pool path and the checkpointed path, on the
fully stateful zoo (a spectral tracker plus smoothed calibrated
trackers) so per-window tracker compute — what the staged bytes are
weighed against on device — dominates both sides, and only durability
differs.  It verifies both (and the all-shards-staged resume replay)
reproduce identical decisions, and pins the checkpointed throughput at
>= 0.9x the unstaged pool so the durability layer can never quietly eat
more than ~10% of the fleet replay.

One pair of pooled runs is noisy (worker start-up, page cache), so the
ratio pinned is the median over interleaved unstaged/checkpointed pairs
(:func:`~benchmarks.harness.benchmark_checkpoint`, 7 pairs by
default); the range is emitted alongside.
"""

import json

import pytest

from benchmarks.conftest import emit
from benchmarks.harness import benchmark_checkpoint

#: Required median checkpointed/unstaged throughput ratio on the 50x2k
#: stateful workload.
MIN_RELATIVE_THROUGHPUT = 0.9


@pytest.mark.slow
def test_checkpoint_throughput_floor(experiment, results_dir):
    outcome = benchmark_checkpoint(
        experiment, n_subjects=50, n_windows_per_subject=2_000, seed=0
    )

    emit(
        results_dir,
        "checkpoint_throughput",
        "\n".join(
            [
                f"workload: {outcome['n_subjects']} subjects x "
                f"{outcome['n_windows_per_subject']} windows "
                f"({outcome['n_windows_total']} total), "
                f"{outcome['workers']} worker(s), stateful zoo, "
                f"{outcome['pairs']} interleaved pairs",
                f"unstaged:     {outcome['unstaged_windows_per_s']:,.0f} windows/s "
                f"({outcome['unstaged_seconds']:.3f} s median)",
                f"checkpointed: {outcome['checkpointed_windows_per_s']:,.0f} windows/s "
                f"({outcome['checkpointed_seconds']:.3f} s median, "
                f"{outcome['checkpoint_relative_throughput']:.2f}x of unstaged "
                f"[{outcome['checkpoint_relative_throughput_min']:.2f}, "
                f"{outcome['checkpoint_relative_throughput_max']:.2f}], "
                f"floor {MIN_RELATIVE_THROUGHPUT:.1f}x)",
                f"resume:       {outcome['resume_windows_per_s']:,.0f} windows/s "
                f"({outcome['resume_seconds']:.3f} s, "
                f"{outcome['resume_speedup']:.1f}x over re-execution)",
            ]
        ),
    )
    (results_dir / "checkpoint_throughput.json").write_text(
        json.dumps(outcome, indent=2) + "\n"
    )

    assert outcome["decisions_identical"], (
        "checkpointed/resumed fleet diverged from the unstaged replay"
    )
    assert outcome["n_windows_total"] == 100_000
    assert outcome["pairs"] >= 7
    assert outcome["checkpoint_relative_throughput"] >= MIN_RELATIVE_THROUGHPUT
