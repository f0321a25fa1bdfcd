"""Lint engine: discovery, pragma parsing, checker dispatch, reporting.

A run parses every Python file under the scan root exactly once
(``ast`` for structure, ``tokenize`` for the trailing-comment pragmas
the checkers read).  Parses are cached on ``(mtime, size)`` so repeated
runs in one process (the tier-1 gate runs the linter several times)
re-parse nothing that did not change.  Each parsed module then goes
through the per-module checkers (REP001-REP003, REP005, REP006 and
REP008), and the whole module set through the one project-level check
(REP004, which needs every predictor class in view).  The resulting
:class:`Finding` records are funnelled through inline ``# lint-ok``
suppressions and the committed baseline file, and rendered as text,
JSON, GitHub annotations or SARIF.  See the package docstring
(:mod:`repro.analysis`) for the rule catalogue and pragma grammar.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

__all__ = [
    "Finding",
    "Pragma",
    "PragmaIndex",
    "ParsedModule",
    "BatchTwin",
    "LintConfig",
    "LintReport",
    "RULE_DESCRIPTIONS",
    "default_config",
    "parse_pragmas",
    "load_module",
    "clear_caches",
    "iter_python_files",
    "run_lint",
    "load_baseline",
    "write_baseline",
    "format_text",
    "format_json",
    "format_github",
    "format_sarif",
]

# Kinds of pragma comments the checkers understand.  A pragma must start
# the comment (``# guarded-by: _lock``); prose merely *mentioning* one of
# these words does not match.
_PRAGMA_RE = re.compile(
    r"^#\s*(?P<kind>guarded-by|unguarded-ok|hot-path|loop-ok|lint-ok|lock-order|lifecycle-ok)"
    r"\b:?\s*(?P<rest>.*)$"
)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a file line.

    ``file`` is a posix-style path relative to the scan root so findings
    (and baseline entries) are stable across machines.
    """

    file: str
    line: int
    code: str
    message: str

    def key(self) -> tuple[str, str, str]:
        """Baseline identity: the line number is deliberately excluded so
        unrelated edits shifting a grandfathered finding do not invalidate
        the baseline."""
        return (self.file, self.code, self.message)

    def to_dict(self) -> dict[str, object]:
        return {"file": self.file, "line": self.line, "code": self.code, "message": self.message}


@dataclass(frozen=True)
class Pragma:
    """A parsed pragma comment.

    ``args`` holds the comma-separated identifiers after the colon for
    ``guarded-by`` / ``unguarded-ok`` / ``lint-ok``; for ``loop-ok`` and
    ``lifecycle-ok`` the free-text reason is kept in ``reason``;
    ``hot-path`` carries neither.  ``lock-order`` keeps both: every
    identifier mentioned lands in ``args`` (mutex registration) and the
    raw text in ``reason`` (the ``a < b`` chain grammar is parsed by the
    REP006 checker).  An ``unguarded-ok`` or ``lint-ok`` with no
    identifiers applies to every attribute / rule code respectively.
    """

    kind: str
    line: int
    args: tuple[str, ...] = ()
    reason: str = ""


class PragmaIndex:
    """Line-indexed lookup over a module's pragmas."""

    def __init__(self, pragmas: Iterable[Pragma]) -> None:
        self._by_line: dict[int, list[Pragma]] = {}
        for pragma in pragmas:
            self._by_line.setdefault(pragma.line, []).append(pragma)

    def at(self, line: int) -> list[Pragma]:
        return self._by_line.get(line, [])

    def find(self, kind: str, first_line: int, last_line: int | None = None) -> Pragma | None:
        """First pragma of ``kind`` anywhere in ``[first_line, last_line]``."""
        last = first_line if last_line is None else last_line
        for line in range(first_line, last + 1):
            for pragma in self._by_line.get(line, []):
                if pragma.kind == kind:
                    return pragma
        return None

    def all(self, kind: str | None = None) -> list[Pragma]:
        found = [p for ps in self._by_line.values() for p in ps]
        if kind is not None:
            found = [p for p in found if p.kind == kind]
        return sorted(found, key=lambda p: p.line)


@dataclass
class ParsedModule:
    """One parsed source file handed to the checkers."""

    relpath: str  # posix path relative to the scan root
    path: Path
    tree: ast.Module
    pragmas: PragmaIndex
    lines: list[str]

    def header_span(self, node: ast.AST) -> tuple[int, int]:
        """Line range of a statement's *header* (the ``def``/``for``/...
        line through the line before its first body statement), where
        pragmas governing the statement may sit."""
        first = node.lineno
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else first
        return first, max(first, last)


@dataclass(frozen=True)
class BatchTwin:
    """A scalar/batch function pair bound by the bit-identity contract."""

    module: str  # relpath of the defining module
    scalar: str
    batch: str


# Inference-path modules subject to REP001 (relative to the scan root,
# which defaults to the ``repro`` package directory).
DEFAULT_DTYPE_MODULES: tuple[str, ...] = (
    "nn/layers.py",
    "nn/network.py",
    "signal/peaks.py",
    "signal/filters.py",
    "signal/spectral.py",
    "models/adaptive_threshold.py",
    "models/timeppg.py",
)

# Threaded modules subject to REP002 and REP006.
DEFAULT_LOCK_MODULES: tuple[str, ...] = (
    "core/scheduler.py",
    "hw/platform.py",
    "core/fleet.py",
)

# Scalar/batch twins bound by the bit-identity equivalence contract.
DEFAULT_BATCH_TWINS: tuple[BatchTwin, ...] = (
    BatchTwin("signal/filters.py", "moving_average", "moving_average_batch"),
    BatchTwin("signal/peaks.py", "adaptive_threshold_peaks", "adaptive_threshold_peaks_batch"),
    BatchTwin("signal/peaks.py", "peak_intervals_to_bpm", "peak_intervals_to_bpm_batch"),
    BatchTwin("signal/spectral.py", "power_spectrum", "power_spectrum_batch"),
)

# Durable-state modules subject to REP005 (persistence atomicity).
DEFAULT_PERSISTENCE_MODULES: tuple[str, ...] = (
    "core/checkpoint.py",
)

# Resource-owning modules subject to REP008 (resource lifecycle): shared
# memory segments, executors/pools and temp files must be released on
# every path.
DEFAULT_LIFECYCLE_MODULES: tuple[str, ...] = (
    "core/checkpoint.py",
    "core/fleet.py",
    "core/scheduler.py",
)


@dataclass
class LintConfig:
    """Everything a lint run needs to know."""

    root: Path
    dtype_modules: tuple[str, ...] = DEFAULT_DTYPE_MODULES
    lock_modules: tuple[str, ...] = DEFAULT_LOCK_MODULES
    contract_root: str = "HeartRatePredictor"
    required_flags: tuple[str, ...] = ("FLEET_BATCHABLE",)
    batch_twins: tuple[BatchTwin, ...] = DEFAULT_BATCH_TWINS
    persistence_modules: tuple[str, ...] = DEFAULT_PERSISTENCE_MODULES
    lifecycle_modules: tuple[str, ...] = DEFAULT_LIFECYCLE_MODULES
    baseline_path: Path | None = None
    exclude_dirs: tuple[str, ...] = ("__pycache__",)


@dataclass
class LintReport:
    """Outcome of one lint run (post inline suppression and baselining)."""

    findings: list[Finding] = field(default_factory=list)
    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    unused_baseline: list[tuple[str, str, str]] = field(default_factory=list)
    n_files: int = 0

    @property
    def clean(self) -> bool:
        return not self.new


def default_config(
    root: Path | None = None, baseline_path: Path | None = None
) -> LintConfig:
    """Configuration for linting the ``repro`` package itself."""
    if root is None:
        root = Path(__file__).resolve().parents[1]
    if baseline_path is None:
        baseline_path = Path(__file__).resolve().with_name("baseline.json")
    return LintConfig(root=Path(root), baseline_path=baseline_path)


# --------------------------------------------------------------- parsing
def parse_pragmas(source: str) -> list[Pragma]:
    """Extract pragma comments via :mod:`tokenize` (robust against ``#``
    characters inside string literals, which a line scan would misread)."""
    pragmas: list[Pragma] = []
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.match(tok.string.strip())
        if match is None:
            continue
        kind = match.group("kind")
        rest = match.group("rest").strip()
        line = tok.start[0]
        if kind in ("hot-path",):
            pragmas.append(Pragma(kind=kind, line=line))
        elif kind in ("loop-ok", "lifecycle-ok"):
            pragmas.append(Pragma(kind=kind, line=line, reason=rest))
        elif kind == "lock-order":
            args = tuple(_IDENT_RE.findall(rest.split("#")[0]))
            pragmas.append(Pragma(kind=kind, line=line, args=args, reason=rest))
        else:  # guarded-by / unguarded-ok / lint-ok: identifier lists
            args = tuple(
                m.group(0)
                for part in rest.split(",")
                if (m := _IDENT_RE.match(part.strip())) is not None
            )
            pragmas.append(Pragma(kind=kind, line=line, args=args, reason=rest))
    return pragmas


def iter_python_files(root: Path, exclude_dirs: tuple[str, ...] = ("__pycache__",)) -> list[Path]:
    """All ``.py`` files under ``root``, deterministically ordered."""
    files = [
        path
        for path in sorted(root.rglob("*.py"))
        if not any(part in exclude_dirs for part in path.parts)
    ]
    return files


# Per-file parse cache keyed on (path, mtime_ns, size): the tier-1 gate
# runs the linter several times in one process, and parsing the whole
# repo is most of the cost of a run — a warm run re-reads nothing that
# did not change on disk.
_PARSE_CACHE: dict[str, tuple[tuple[int, int], str, ParsedModule]] = {}


def clear_caches() -> None:
    """Drop the per-file parse cache (cold-run timing, tests)."""
    _PARSE_CACHE.clear()


def _stat_key(path: Path) -> tuple[int, int]:
    stat = path.stat()
    return (stat.st_mtime_ns, stat.st_size)


def load_module(root: Path, path: Path) -> ParsedModule:
    relpath = path.relative_to(root).as_posix()
    key = str(path)
    stat_key = _stat_key(path)
    cached = _PARSE_CACHE.get(key)
    if cached is not None and cached[0] == stat_key and cached[1] == relpath:
        return cached[2]
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:  # repo files must parse; fail loudly
        raise RuntimeError(f"cannot lint {relpath}: {exc}") from exc
    module = ParsedModule(
        relpath=relpath,
        path=path,
        tree=tree,
        pragmas=PragmaIndex(parse_pragmas(source)),
        lines=source.splitlines(),
    )
    _PARSE_CACHE[key] = (stat_key, relpath, module)
    return module


# -------------------------------------------------------------- baseline
def load_baseline(path: Path) -> Counter:
    """Baseline file -> multiset of ``(file, code, message)`` keys.

    A missing file is an empty baseline (the common case for new repos).
    """
    if not path.exists():
        return Counter()
    data = json.loads(path.read_text(encoding="utf-8"))
    entries = data.get("findings", []) if isinstance(data, dict) else data
    counter: Counter = Counter()
    for entry in entries:
        counter[(entry["file"], entry["code"], entry["message"])] += 1
    return counter


def write_baseline(findings: Iterable[Finding], path: Path) -> None:
    """Persist ``findings`` as the new grandfathered baseline."""
    entries = [
        {"file": f.file, "code": f.code, "message": f.message}
        for f in sorted(findings, key=lambda f: (f.file, f.code, f.line))
    ]
    payload = {
        "comment": (
            "Grandfathered lint findings. Entries match on (file, code, message) "
            "so line churn does not invalidate them; regenerate with "
            "`python -m repro.analysis --write-baseline`."
        ),
        "version": 1,
        "findings": entries,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _apply_baseline(
    findings: list[Finding], baseline: Counter
) -> tuple[list[Finding], list[Finding], list[tuple[str, str, str]]]:
    remaining = Counter(baseline)
    new: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in findings:
        if remaining[finding.key()] > 0:
            remaining[finding.key()] -= 1
            suppressed.append(finding)
        else:
            new.append(finding)
    unused = sorted(key for key, count in remaining.items() for _ in range(count))
    return new, suppressed, unused


def _apply_lint_ok(findings: list[Finding], modules: dict[str, ParsedModule]) -> list[Finding]:
    """Drop findings whose anchor line carries a covering ``# lint-ok``."""
    kept = []
    for finding in findings:
        module = modules.get(finding.file)
        suppressed = False
        if module is not None:
            for pragma in module.pragmas.at(finding.line):
                if pragma.kind == "lint-ok" and (not pragma.args or finding.code in pragma.args):
                    suppressed = True
                    break
        if not suppressed:
            kept.append(finding)
    return kept


# ------------------------------------------------------------------- run
def run_lint(config: LintConfig) -> LintReport:
    """Parse every file under ``config.root`` and run every rule."""
    # Imported here (not at module top) so engine.py stays importable from
    # the checkers without a cycle.
    from repro.analysis import (
        contracts,
        dtype_discipline,
        hot_path,
        lifecycle,
        lock_discipline,
        persistence,
    )

    modules: dict[str, ParsedModule] = {}
    for path in iter_python_files(config.root, config.exclude_dirs):
        module = load_module(config.root, path)
        modules[module.relpath] = module

    findings: list[Finding] = []
    for module in modules.values():
        findings.extend(dtype_discipline.check_module(module, config))
        findings.extend(lock_discipline.check_module(module, config))
        findings.extend(hot_path.check_module(module, config))
        findings.extend(persistence.check_module(module, config))
        findings.extend(lifecycle.check_module(module, config))
    findings.extend(contracts.check_project(modules, config))

    findings.sort(key=lambda f: (f.file, f.line, f.code))
    findings = _apply_lint_ok(findings, modules)

    baseline = load_baseline(config.baseline_path) if config.baseline_path else Counter()
    new, suppressed, unused = _apply_baseline(findings, baseline)
    return LintReport(
        findings=findings,
        new=new,
        baselined=suppressed,
        unused_baseline=unused,
        n_files=len(modules),
    )


# ------------------------------------------------------------- reporters
def format_text(report: LintReport) -> str:
    out: list[str] = []
    for finding in report.new:
        out.append(f"{finding.file}:{finding.line}: {finding.code} {finding.message}")
    for key in report.unused_baseline:
        out.append(f"{key[0]}: stale baseline entry ({key[1]} {key[2]!r} no longer found)")
    summary = (
        f"{report.n_files} files scanned, {len(report.new)} new finding(s), "
        f"{len(report.baselined)} baselined, {len(report.unused_baseline)} stale baseline entr(ies)"
    )
    out.append(summary)
    return "\n".join(out)


def format_json(report: LintReport) -> str:
    payload = {
        "files_scanned": report.n_files,
        "clean": report.clean,
        "new": [f.to_dict() for f in report.new],
        "baselined": [f.to_dict() for f in report.baselined],
        "unused_baseline": [
            {"file": k[0], "code": k[1], "message": k[2]} for k in report.unused_baseline
        ],
    }
    return json.dumps(payload, indent=2)


#: One-line rule summaries, used by the SARIF reporter and the CLI help.
RULE_DESCRIPTIONS: dict[str, str] = {
    "REP001": "dtype discipline: inference-path allocations must not default or pin to float64",
    "REP002": "lock discipline: guarded attributes are only touched holding their declared lock",
    "REP003": "hot-path purity: hot-path functions stay vectorized (no loops or append-accumulation)",
    "REP004": "equivalence contracts: predictor flags, fleet overrides and scalar/batch twins",
    "REP005": "persistence atomicity: durable state commits through the atomic temp-file helpers",
    "REP006": "lock-order discipline: nested acquisitions follow the declared # lock-order partial order",
    "REP008": "resource lifecycle: shared memory, pools and temp files are released on every path",
}


def _github_escape(value: str, *, in_property: bool = False) -> str:
    """Escape text for a GitHub Actions workflow command."""
    value = value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    if in_property:
        value = value.replace(":", "%3A").replace(",", "%2C")
    return value


def format_github(report: LintReport) -> str:
    """GitHub Actions workflow-command annotations (one ``::error`` per
    new finding) so findings render inline on the changed lines in CI."""
    return "\n".join(
        "::error file={file},line={line},title={title}::{message}".format(
            file=_github_escape(f.file, in_property=True),
            line=f.line,
            title=_github_escape(f.code, in_property=True),
            message=_github_escape(f.message),
        )
        for f in report.new
    )


def format_sarif(report: LintReport) -> str:
    """Minimal SARIF 2.1.0 log of the new findings (for code-scanning UIs)."""
    codes = sorted({f.code for f in report.new})
    rule_index = {code: i for i, code in enumerate(codes)}
    payload = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": [
                            {
                                "id": code,
                                "shortDescription": {"text": RULE_DESCRIPTIONS.get(code, code)},
                            }
                            for code in codes
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": f.code,
                        "ruleIndex": rule_index[f.code],
                        "level": "error",
                        "message": {"text": f.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {"uri": f.file},
                                    "region": {"startLine": f.line},
                                }
                            }
                        ],
                    }
                    for f in report.new
                ],
            }
        ],
    }
    return json.dumps(payload, indent=2)
