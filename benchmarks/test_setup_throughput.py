"""Offline set-up throughput: the vectorized CART split search vs its oracle.

Every set-up fits the paper's 8-tree, depth-5 difficulty forest.  The
split search scores all candidate thresholds of a feature in one pass
(a threshold mask, one matmul for the class counts, a row-wise
impurity); the baseline is the per-threshold loop it replaced
(``tests/ml/split_oracle.py``).  Both fit the benchmark pipeline's
classifier corpus (2 subjects x 60 s, 534 windows) and must build
identical node arrays.

The floor is 2x on the median over interleaved rounds
(:func:`~benchmarks.harness.benchmark_setup`, 7 rounds).  Measured
on a 2-core box: 4.4-5.8x (0.03-0.06 s vs 0.17-0.32 s per forest).
"""

import json

import pytest

from benchmarks.conftest import emit
from benchmarks.harness import benchmark_setup
from tests.ml.split_oracle import oracle_split_search

#: Required median oracle / vectorized forest-fit time ratio.
MIN_FOREST_FIT_SPEEDUP = 2.0


@pytest.mark.slow
def test_setup_forest_fit_floor(results_dir):
    outcome = benchmark_setup(oracle_split_search)
    forest = outcome["forest_fit"]
    speedup = forest["speedup"]
    lines = [
        f"{name}: {block['median']:.3f} s [{block['q25']:.3f}, {block['q75']:.3f}]"
        for name, block in outcome["stages"].items()
    ]
    lines.append(
        f"forest fit ({forest['n_samples']} windows): {forest['shipped_s']['median']:.3f} s "
        f"vs reference {forest['reference_s']['median']:.3f} s; speedup {speedup['median']:.1f}x "
        f"[{speedup['q25']:.1f}, {speedup['q75']:.1f}] (floor {MIN_FOREST_FIT_SPEEDUP:.1f}x)"
    )
    emit(results_dir, "setup_throughput", "\n".join(lines))
    (results_dir / "setup_throughput.json").write_text(json.dumps(outcome, indent=2) + "\n")

    assert outcome["rounds"] >= 5
    assert set(outcome["stages"]) == {
        "synthesis_s",
        "forest_fit_s",
        "zoo_build_freeze_s",
        "profiling_s",
        "total_s",
    }
    assert forest["nodes_identical"], "vectorized forest diverged from the per-threshold oracle"
    assert speedup["median"] >= MIN_FOREST_FIT_SPEEDUP
