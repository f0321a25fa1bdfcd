"""Real-pipeline benchmark of the CHRIS engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--workload`` is ``replay``, ``serve``, ``durable`` or ``all`` (each
workload in its own process, then a summary).  ``--trace 0`` reports the
end-to-end metrics listed in ``BENCHMARK.json``; ``--trace 1`` runs half
the measuring time untraced and half with timing shims installed, and
reports the per-layer metrics.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
and the line before a ``fingerprint:`` of the host and the inputs; the
exit code is non-zero when an output check fails.  See NOTES.md for
the workloads, the metric definitions and how they interact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("replay", "serve", "durable")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"{spec_path} not found; run from a checkout of the repository")
    return json.loads(spec_path.read_text())


def fingerprint(seed: int, sizes: dict) -> dict:
    """Host and input fingerprint carried by every result."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "seed": seed,
        "inputs": sizes,
    }


def run_one(args, spec: dict) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"no program source at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    seed = abs(args.seed)
    trace = bool(args.trace)
    outcome = getattr(workloads, args.workload)(seed, args.seconds, trace)

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        outcome.layers["failed_fraction"] = outcome.failed / max(outcome.attempted, 1)
        values = {m["name"]: outcome.layers.get(m["name"], 0.0) for m in listed}
        spans_path = workloads.OUT_DIR / f"spans-{args.workload}-seed{seed}.jsonl"
        outcome.tracer.dump(spans_path)
    else:
        missing = [m["name"] for m in listed if m["name"] not in outcome.metrics]
        if missing:
            _fail(f"workload {args.workload} did not measure {missing}")
        values = {m["name"]: outcome.metrics[m["name"]] for m in listed}

    # The result object's keys are fixed (correct, attempted, failed,
    # metrics), so the fingerprint is a line of its own.
    print("fingerprint: " + json.dumps(fingerprint(seed, outcome.sizes)))
    for name, counts in outcome.phases.items():
        print(f"phase {name}: sent {counts['sent']}, succeeded {counts['succeeded']}, failed {counts['failed']}")
    for note in outcome.notes:
        print(f"note: {note}")
    if trace:
        print(f"spans: {spans_path.relative_to(ROOT)} ({len(outcome.tracer.spans)} spans)")
    for name, ok in outcome.checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for m in listed:
        print(f"  {args.workload:8s} {m['name']:36s} {values[m['name']]:16.6f} {m['unit']}")
    correct = all(outcome.checks.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
            }
        )
    )
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, then one table of their metrics."""
    results, fingerprints, status = {}, {}, 0
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        fingerprints[workload] = next(
            (line.split(" ", 1)[1] for line in lines if line.startswith("fingerprint: ")), "none printed"
        )
        if proc.returncode != 0 or not lines:
            status = 1
        if lines:
            try:
                results[workload] = json.loads(lines[-1])
            except json.JSONDecodeError:
                status = 1
    print("\nsummary")
    for workload, result in results.items():
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        print(f"  fingerprint {fingerprints[workload]}")
        for name, metric in result["metrics"].items():
            print(f"  {workload:8s} {name:36s} {metric['value']:16.6f} {metric['unit']}")
    return status if len(results) == len(WORKLOADS) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = _spec()
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
