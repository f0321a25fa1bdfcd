#!/usr/bin/env python3
"""Dump the runtime perf summary to ``BENCH_runtime.json``.

Runs the benchmarks of ``benchmarks/harness.py`` —
the 10k-window single-subject workload through the CHRIS runtime and
its per-window oracle, and the 50-subject x 2k-window fleet through
per-subject ``run`` calls, ``run_many`` and the process pool (``"fleet"`` block),
through the online dynamic-session scheduler (``"scheduler"`` block),
through the stacked-state dispatch on a stateful-heavy zoo
(``"stateful_fleet"`` block: fused ``predict_fleet`` vs per-subject
``run`` calls), and through the fused inference engine (``"inference"`` block:
batched AT peak detection vs the scalar detector, TimePPG's frozen
inference network vs the training-mode forward, and ``run_many``'s
cross-subject TimePPG fusion vs per-subject ``run`` calls), through the float32 engine (``"inference_dtype"``
block: batched AT and frozen TimePPG at float32 vs the float64
reference, with per-dtype throughputs and equivalence flags), and
through the crash-safe checkpointed fleet
path (``"checkpoint"`` block: journal + atomic shard staging vs the
unstaged pool, plus the all-shards-staged resume replay), and through
the online serving engine (``"latency"`` block: paced streaming
arrivals under the deadline policy with p50/p95/p99 completion latency,
deadline-miss fraction, and the saturated deadline-vs-drain throughput
ratio), and through the difficulty detector (``"difficulty"`` block:
one fused ``predict_difficulty`` call per fleet plan vs one call per
subject of the per-window detector it replaced, at the replay and
serving shapes, with medians, interquartile ranges and the host), and
through the offline set-up (``"setup"`` block: seconds per stage of
synthesis, forest fits, zoo build and freeze and configuration
profiling, plus the forest fit against the per-threshold split search
of ``tests/ml/split_oracle.py``), and through the serving engine at
scale (``"serving_scale"`` block: one paused-then-resumed burst of 100,
1k and 10k streams x 1 window against the same windows submitted as
one recording, interleaved, with medians, interquartile ranges and the
host) — and
writes the measured throughputs, MAE and
offload statistics to ``BENCH_runtime.json`` at the repository root, so
successive PRs can track the perf trajectory of every hot path.  Each
run also appends a timestamped headline snapshot (one JSON line) to
``BENCH_history.jsonl``, so the trajectory survives the per-PR
overwrite of the full summary.

Run with:  PYTHONPATH=src python benchmarks/summarize_runtime.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_SRC = _REPO / "src"
for _path in (_SRC, _REPO):  # the repo root makes the harness and the tests' oracles importable
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.harness import (  # noqa: E402
    benchmark_checkpoint,
    benchmark_difficulty,
    benchmark_dtype_inference,
    benchmark_fleet,
    benchmark_inference,
    benchmark_latency,
    benchmark_runtime,
    benchmark_scheduler,
    benchmark_serving_scale,
    benchmark_setup,
    benchmark_stateful_fleet,
)
from repro.eval.experiment import CalibratedExperiment  # noqa: E402
from tests.ml.forest_oracle import difficulty_oracle  # noqa: E402
from tests.ml.split_oracle import oracle_split_search  # noqa: E402


def main(output_path: Path | None = None) -> dict:
    """Measure the fixed workloads and persist the summary JSON."""
    output_path = output_path or _REPO / "BENCH_runtime.json"
    experiment = CalibratedExperiment.build(seed=0, n_subjects=6, activity_duration_s=60.0)
    outcome = benchmark_runtime(experiment, n_windows=10_000, seed=0)
    outcome["fleet"] = benchmark_fleet(
        experiment, n_subjects=50, n_windows_per_subject=2_000, seed=0
    )
    outcome["scheduler"] = benchmark_scheduler(
        experiment, n_subjects=50, n_windows_per_subject=2_000, seed=0
    )
    outcome["stateful_fleet"] = benchmark_stateful_fleet(
        experiment, n_subjects=50, n_windows_per_subject=2_000, seed=0
    )
    outcome["inference"] = benchmark_inference(experiment, seed=0, repeats=5)
    outcome["inference_dtype"] = benchmark_dtype_inference(seed=0)
    outcome["checkpoint"] = benchmark_checkpoint(
        experiment, n_subjects=50, n_windows_per_subject=2_000, seed=0
    )
    outcome["latency"] = benchmark_latency(experiment, seed=0)
    outcome["difficulty"] = benchmark_difficulty(experiment, difficulty_oracle)
    outcome["setup"] = benchmark_setup(oracle_split_search)
    outcome["serving_scale"] = benchmark_serving_scale(experiment)
    output_path.write_text(json.dumps(outcome, indent=2) + "\n")
    append_history(outcome, output_path.parent / "BENCH_history.jsonl")
    print(json.dumps(outcome, indent=2))
    print(f"\nwritten to {output_path}")
    return outcome


def append_history(outcome: dict, history_path: Path) -> None:
    """Append a timestamped headline snapshot of one run as a JSON line."""
    snapshot = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "batched_windows_per_s": outcome["batched_windows_per_s"],
        "speedup": outcome["speedup"],
        "fleet_best_windows_per_s": max(
            outcome["fleet"]["sequential_windows_per_s"],
            outcome["fleet"]["mega_windows_per_s"],
            outcome["fleet"]["pool_windows_per_s"],
        ),
        "scheduler_windows_per_s": outcome["scheduler"]["scheduler_windows_per_s"],
        "stateful_stacked_windows_per_s": outcome["stateful_fleet"][
            "stacked_windows_per_s"
        ],
        "checkpoint_relative_throughput": outcome["checkpoint"][
            "checkpoint_relative_throughput"
        ],
        "fused_fleet_windows_per_s": outcome["inference"]["fused_fleet"][
            "fused_windows_per_s"
        ],
        "latency_p95_s": outcome["latency"]["p95_s"],
        "latency_p99_s": outcome["latency"]["p99_s"],
        "deadline_miss_fraction": outcome["latency"]["deadline_miss_fraction"],
        "deadline_throughput_ratio": outcome["latency"][
            "deadline_throughput_ratio"
        ],
        "difficulty_fused_windows_per_s": {
            shape: block["fused_windows_per_s"]["median"]
            for shape, block in outcome["difficulty"]["shapes"].items()
        },
        "setup_total_s": outcome["setup"]["stages"]["total_s"]["median"],
        "serving_scale_burst_windows_per_s": {
            shape: block["burst_windows_per_s"]["median"]
            for shape, block in outcome["serving_scale"]["shapes"].items()
        },
        "host": outcome["difficulty"]["host"],
    }
    with history_path.open("a") as sink:
        sink.write(json.dumps(snapshot) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else None)
