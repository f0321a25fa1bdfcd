"""Inference-engine throughput: batched AT, TimePPG inference, fleet fusion.

The fused inference engine removes the two Python-level hot loops from
the per-window compute path: the adaptive-threshold raw peak detector
now runs as one batched threshold recurrence + region extraction over
the whole window stack (bit-identical per row to the scalar detector),
and TimePPG's frozen inference network (batch norm folded into the
convolutions, GEMM im2col lowering) replaces the training-oriented
layer stack.  On top, ``run_many`` fuses TimePPG's row-bit-stable
forward across subjects, bit-identical to per-subject replay.  This
benchmark pins regression floors for all three paths so they fail
loudly.
"""

import json

import pytest

from benchmarks.conftest import emit
from benchmarks.harness import benchmark_inference

#: Required batched-AT speedup over the scalar per-window detector on
#: the 10k-window workload (measured ~7-9x; the floor leaves room for
#: slower CI hardware, not for regressions back to the Python loop).
MIN_AT_SPEEDUP = 5.0

#: Required TimePPG inference-mode speedup over the training-mode
#: forward at equal (evaluation) outputs (measured ~3-4.5x).
MIN_TIMEPPG_SPEEDUP = 2.0

#: Required fused ``run_many`` speedup over per-subject ``run`` calls
#: (``sequential_replay``) on the small-session fleet workload with a
#: real TCN, as the median of interleaved pairs (measured 5.1-5.5x on a 2-core
#: OpenBLAS host; the floor leaves room for slower CI hardware).
MIN_FUSED_FLEET_SPEEDUP = 3.0


@pytest.mark.slow
def test_inference_engine_throughput(experiment, results_dir):
    outcome = benchmark_inference(experiment, seed=0, repeats=5)
    at, nn, fleet = outcome["at"], outcome["timeppg"], outcome["fused_fleet"]

    emit(
        results_dir,
        "inference_throughput",
        "\n".join(
            [
                f"AT: {at['n_windows']} x {at['window_length']}-sample windows, "
                f"scalar {at['scalar_windows_per_s']:,.0f} w/s, "
                f"batched {at['batched_windows_per_s']:,.0f} w/s "
                f"({at['speedup']:.1f}x, floor {MIN_AT_SPEEDUP:.0f}x)",
                f"TimePPG ({nn['variant']}): training {nn['training_windows_per_s']:,.0f} w/s, "
                f"inference {nn['inference_windows_per_s']:,.0f} w/s "
                f"({nn['speedup']:.1f}x, floor {MIN_TIMEPPG_SPEEDUP:.0f}x)",
                f"fused fleet: {fleet['n_subjects']} subjects x "
                f"{fleet['n_windows_per_subject']} windows, "
                f"per-subject {fleet['sequential_windows_per_s']:,.0f} w/s, "
                f"fused {fleet['fused_windows_per_s']:,.0f} w/s "
                f"(median {fleet['speedup']:.2f}x over {fleet['pairs']} pairs, "
                f"floor {MIN_FUSED_FLEET_SPEEDUP:.2f}x)",
            ]
        ),
    )
    (results_dir / "inference_throughput.json").write_text(
        json.dumps(outcome, indent=2) + "\n"
    )

    assert at["bit_identical"], "batched AT diverged from the scalar detector"
    assert at["speedup"] >= MIN_AT_SPEEDUP
    assert nn["outputs_equal"], "folded inference diverged from the eval forward"
    assert nn["speedup"] >= MIN_TIMEPPG_SPEEDUP
    assert fleet["decisions_identical"], (
        "fused fleet replay must stay bit-identical with a real TimePPG"
    )
    assert fleet["speedup"] >= MIN_FUSED_FLEET_SPEEDUP
