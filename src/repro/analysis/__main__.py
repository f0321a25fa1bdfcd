"""CLI entry point: ``python -m repro.analysis`` (also the ``repro-lint``
console script).

Output formats (``--format``): ``text`` (default), ``json``, ``github``
(GitHub Actions ``::error`` workflow commands, rendered inline in CI
diffs) and ``sarif`` (SARIF 2.1.0 for code-scanning UIs).  ``--json``
remains as an alias for ``--format json``.

Exit codes: 0 — clean (no findings beyond the baseline), 1 — new
findings (or stale baseline entries under ``--strict-baseline``),
2 — usage error (argparse default).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.engine import (
    default_config,
    format_github,
    format_json,
    format_sarif,
    format_text,
    run_lint,
    write_baseline,
)

_FORMATTERS = {
    "text": format_text,
    "json": format_json,
    "github": format_github,
    "sarif": format_sarif,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Repo-specific AST invariant linter (REP001-REP006, REP008).",
    )
    parser.add_argument(
        "--format",
        choices=sorted(_FORMATTERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--json", action="store_true", help="alias for --format json"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="PATH",
        help="baseline file to read (default: the committed src/repro/analysis/baseline.json)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline and report every finding as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--strict-baseline",
        action="store_true",
        help="also fail (exit 1) on stale baseline entries",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        metavar="DIR",
        help="scan root (default: the installed repro package directory)",
    )
    args = parser.parse_args(argv)

    config = default_config(root=args.root, baseline_path=args.baseline)
    baseline_path = config.baseline_path
    if args.no_baseline:
        config.baseline_path = None

    report = run_lint(config)

    if args.write_baseline:
        assert baseline_path is not None
        write_baseline(report.findings, baseline_path)
        print(f"wrote {len(report.findings)} finding(s) to {baseline_path}")
        return 0

    fmt = "json" if args.json else args.format
    print(_FORMATTERS[fmt](report))
    if report.new:
        return 1
    if args.strict_baseline and report.unused_baseline:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
