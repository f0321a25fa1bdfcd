"""Online-serving latency benchmark: deadline dispatch under paced load.

The serving engine's contract has two sides.  Under a paced synthetic
arrival process (round-robin streams, seeded exponential gaps) the
``policy="deadline"`` dispatcher must complete windows inside the SLO:
p95 completion latency ≤ ``slo_s`` at the benchmark rate, with a zero
deadline-miss fraction.  And the deadline policy must be free when it
does not help: draining an identical saturated queue, deadline-mode
throughput holds ≥ 0.9x of drain mode, because a full batch releases
immediately under both policies.  The measurement also lands in the
``latency`` block of ``BENCH_runtime.json`` (see
``benchmarks/summarize_runtime.py``) so the perf trajectory tracks
serving latency alongside the throughput paths.

A separate fast test replays the paced phase twice on an injected
:class:`~repro.core.scheduler.VirtualClock`: the whole latency block
must be bit-identical run over run — the paced schedule is a pure
function of the seed, the same Date-free discipline as the fault
harness.
"""

import json
import math

import pytest

from benchmarks.conftest import emit
from benchmarks.harness import benchmark_latency
from repro.core.scheduler import VirtualClock

#: Completion-latency SLO for the paced phase (p95 must come in under it).
SLO_S = 0.4

#: Required deadline-vs-drain throughput retention on the saturated queue.
MIN_THROUGHPUT_RATIO = 0.9


@pytest.mark.slow
def test_latency_slo_and_saturated_throughput(experiment, results_dir):
    outcome = benchmark_latency(experiment, slo_s=SLO_S, seed=0)

    emit(
        results_dir,
        "latency_throughput",
        "\n".join(
            [
                f"workload: {outcome['n_streams']} streams x "
                f"{outcome['n_windows_per_stream']} windows "
                f"({outcome['n_windows_total']} total) at "
                f"{outcome['arrival_rate_hz']:,.0f} windows/s, "
                f"SLO {outcome['slo_s']:.2f} s "
                f"(slack {outcome['deadline_slack_s']:.2f} s)",
                f"latency: p50 {outcome['p50_s'] * 1e3:.1f} ms, "
                f"p95 {outcome['p95_s'] * 1e3:.1f} ms, "
                f"p99 {outcome['p99_s'] * 1e3:.1f} ms "
                f"(dispatch p95 {outcome['dispatch_p95_s'] * 1e3:.1f} ms)",
                f"misses: {100 * outcome['deadline_miss_fraction']:.2f}% of "
                f"windows past deadline, "
                f"{outcome['n_batches']} batches of "
                f"{outcome['mean_batch_windows']:.1f} windows on average",
                f"saturated: drain "
                f"{outcome['drain_saturated_windows_per_s']:,.0f} w/s, "
                f"deadline {outcome['deadline_saturated_windows_per_s']:,.0f} w/s "
                f"(ratio {outcome['deadline_throughput_ratio']:.2f}, "
                f"floor {MIN_THROUGHPUT_RATIO:.1f})",
            ]
        ),
    )
    (results_dir / "latency_throughput.json").write_text(
        json.dumps(outcome, indent=2) + "\n"
    )

    assert outcome["p95_within_slo"], (
        f"p95 completion latency {outcome['p95_s']:.3f} s breached the "
        f"{SLO_S:.2f} s SLO"
    )
    assert outcome["p50_s"] <= outcome["p95_s"] <= outcome["p99_s"]
    assert outcome["deadline_miss_fraction"] == 0.0
    assert outcome["deadline_throughput_ratio"] >= MIN_THROUGHPUT_RATIO


def test_paced_phase_is_deterministic_on_a_virtual_clock(experiment):
    def paced_block():
        clock = VirtualClock()
        outcome = benchmark_latency(
            experiment,
            n_streams=3,
            n_windows_per_stream=20,
            saturated_windows_per_stream=25,
            repeats=1,
            seed=7,
            clock=clock,
            sleep=clock.sleep,
        )
        # Saturated throughput is wall-clock by design; strip it before
        # comparing the deterministic paced block.
        return {
            key: value
            for key, value in outcome.items()
            if "saturated" not in key and "ratio" not in key
        }

    first = paced_block()
    second = paced_block()
    assert first == second
    assert first["virtual_clock"] is True
    assert math.isfinite(first["p99_s"])
