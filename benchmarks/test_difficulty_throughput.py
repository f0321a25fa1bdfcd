"""Difficulty-detector throughput: one fused pass per plan vs per-subject calls.

The runtime plans a fleet with one ``predict_difficulty`` call over
every subject's windows (batched accelerometer features, a level-wise
walk of the array-encoded forest).  The baseline is the detector it
replaced, called once per subject: a Python loop over windows for the
features and a per-row walk of linked trees (the oracle in
``tests/ml/forest_oracle.py``).  Both shapes of the benchmark are
measured: its replay fleet (8 subjects x 537 windows) and its serving
tick (500 one-window streams).  Labels must be identical on every side.

The floor is 3x on the median over interleaved rounds
(:func:`~benchmarks.harness.benchmark_difficulty`, 7 rounds).
Measured on a 2-core box: 12-14x at 8 x 537 and 11-13x at 500 x 1.
"""

import json

import pytest

from benchmarks.conftest import emit
from benchmarks.harness import benchmark_difficulty
from tests.ml.forest_oracle import difficulty_oracle

#: Required median fused / per-subject-reference speedup, at both shapes.
MIN_DIFFICULTY_SPEEDUP = 3.0


@pytest.mark.slow
def test_difficulty_throughput_floor(experiment, results_dir):
    outcome = benchmark_difficulty(experiment, difficulty_oracle)

    lines = []
    for shape, block in outcome["shapes"].items():
        speedup = block["speedup"]
        lines.append(
            f"{shape}: fused {block['fused_windows_per_s']['median']:,.0f} windows/s, "
            f"per-subject {block['per_subject_windows_per_s']['median']:,.0f}, "
            f"reference {block['reference_windows_per_s']['median']:,.0f}; "
            f"speedup {speedup['median']:.1f}x [{speedup['q25']:.1f}, {speedup['q75']:.1f}] "
            f"(floor {MIN_DIFFICULTY_SPEEDUP:.1f}x)"
        )
    emit(results_dir, "difficulty_throughput", "\n".join(lines))
    (results_dir / "difficulty_throughput.json").write_text(json.dumps(outcome, indent=2) + "\n")

    assert outcome["pairs"] >= 5
    assert set(outcome["shapes"]) == {"8x537", "500x1"}
    for shape, block in outcome["shapes"].items():
        assert block["labels_identical"], f"{shape}: fused labels diverged from the reference"
        assert block["speedup"]["median"] >= MIN_DIFFICULTY_SPEEDUP, shape
