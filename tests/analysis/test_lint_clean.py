"""Tier-1 gate: the repo must lint clean (modulo the committed baseline).

This is the CI wiring of the invariant linter: a REP001-REP006/REP008 violation
anywhere under ``src/repro`` fails the ordinary
``PYTHONPATH=src python -m pytest`` run with the offending file:line in
the assertion message.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.analysis import default_config, format_text, run_lint

SRC_DIR = Path(repro.__file__).resolve().parents[1]


def test_repo_is_lint_clean():
    report = run_lint(default_config())
    assert report.n_files > 0
    assert report.new == [], "new lint findings:\n" + format_text(report)


def test_baseline_has_no_stale_entries():
    """Paid-down debt must be removed from the baseline, not forgotten."""
    report = run_lint(default_config())
    assert report.unused_baseline == [], (
        "stale baseline entries (regenerate with "
        "`python -m repro.analysis --write-baseline`):\n" + format_text(report)
    )


def test_lint_runtime_under_budget():
    """A whole-repo run stays inside the budget — cold (parse every
    module) and warm (the per-file parse cache keyed on mtime/size makes
    the second run mostly stat calls)."""
    from repro.analysis import clear_caches

    clear_caches()
    start = time.perf_counter()
    run_lint(default_config())
    cold = time.perf_counter() - start
    assert cold < 5.0, f"cold lint took {cold:.2f}s (budget: 5s)"

    start = time.perf_counter()
    run_lint(default_config())
    warm = time.perf_counter() - start
    assert warm < 5.0, f"warm lint took {warm:.2f}s (budget: 5s)"


def test_parse_cache_is_deterministic():
    """An unchanged file must hit the cache: same ParsedModule object."""
    from repro.analysis.engine import load_module

    config = default_config()
    path = config.root / "core" / "scheduler.py"
    assert load_module(config.root, path) is load_module(config.root, path)


def test_cli_json_output_is_machine_readable():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["clean"] is True
    assert payload["new"] == []
    assert payload["files_scanned"] > 0
    assert isinstance(payload["baselined"], list)


def test_cli_exit_codes_on_dirty_tree(tmp_path):
    """--root pointed at a dirty tree exits 1 and names the finding."""
    dirty = tmp_path / "nn"
    dirty.mkdir()
    # A file at one of the configured REP001 module paths.
    (dirty / "layers.py").write_text(
        "import numpy as np\n\ndef f(n):\n    return np.zeros(n)\n",
        encoding="utf-8",
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.analysis",
            "--root", str(tmp_path), "--no-baseline", "--json",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["clean"] is False
    # The sparse tree also (correctly) trips REP004 for the batch-twin
    # modules missing from the scan root; the planted REP001 must be
    # found at its exact location regardless.
    rep001 = [f for f in payload["new"] if f["code"] == "REP001"]
    assert [(f["file"], f["line"]) for f in rep001] == [("nn/layers.py", 4)]
