"""Lint engine: discovery, pragma parsing, summaries, checker dispatch.

The engine runs in two passes.  **Pass 1** parses every Python file
under the scan root exactly once (``ast`` for structure, ``tokenize``
for the trailing-comment pragmas the checkers read) and distills each
module into a :class:`ModuleSummary`: per-class lock declarations (with
``threading.Condition`` aliasing resolved), per-function lock
acquisitions and call sites annotated with the locks lexically held,
and the dtype fact of each function's return value where inferable.
The per-file summaries are cached on ``(mtime, size)`` so repeated runs
in one process (the tier-1 gate runs the linter several times) re-parse
nothing that did not change.  :class:`ProjectSummary` stitches the
module summaries into a project call graph — ``self.method()`` calls
resolve within the defining class, bare and ``module.func()`` calls
resolve through each module's import table — and memoizes transitive
facts over it (locks a method acquires through helpers, dtype facts
propagated through call chains).

**Pass 2** hands the parsed modules to the per-module checkers
(REP001-REP003, REP005, REP008) and the summary to the interprocedural
checkers (REP004, REP006, REP007), funnels the resulting
:class:`Finding` records through inline ``# lint-ok`` suppressions and
the committed baseline file, and renders text, JSON, GitHub-annotation
or SARIF reports.  See the package docstring (:mod:`repro.analysis`)
for the rule catalogue and pragma grammar.
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
from typing import Callable, Iterable

__all__ = [
    "Finding",
    "Pragma",
    "PragmaIndex",
    "ParsedModule",
    "BatchTwin",
    "LintConfig",
    "LintReport",
    "LockAcquisition",
    "CallSite",
    "FunctionSummary",
    "LockDecl",
    "ClassInfo",
    "ModuleSummary",
    "ProjectSummary",
    "RULE_DESCRIPTIONS",
    "default_config",
    "parse_pragmas",
    "load_module",
    "summarize_module",
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

# Threaded modules subject to REP002.
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


# Per-file caches keyed on (path, mtime_ns, size): the tier-1 gate runs
# the linter several times in one process, and parsing + summarizing the
# whole repo is the entire cost of a run — a warm run re-reads nothing
# that did not change on disk.
_PARSE_CACHE: dict[str, tuple[tuple[int, int], str, ParsedModule]] = {}
_SUMMARY_CACHE: dict[str, tuple[tuple[int, int], "ModuleSummary"]] = {}


def clear_caches() -> None:
    """Drop the per-file parse and summary caches (cold-run timing, tests)."""
    _PARSE_CACHE.clear()
    _SUMMARY_CACHE.clear()


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


# ------------------------------------------------------- pass-1 summaries
def _self_attr_name(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


@dataclass(frozen=True)
class LockAcquisition:
    """One lexical lock acquisition (``with self.<lock>:`` or a bare
    ``self.<lock>.acquire()``) with the locks already held at that point."""

    lock: str
    line: int
    held: frozenset[str]


@dataclass(frozen=True)
class CallSite:
    """One call expression, classified by how its target is named.

    ``kind`` is ``'self'`` (``self.m(...)``), ``'local'`` (``f(...)``) or
    ``'attr'`` (``mod.f(...)``, with the qualifier name in ``via``);
    ``held`` is the set of self-attribute locks lexically held at the
    call.
    """

    kind: str
    name: str
    via: str
    line: int
    held: frozenset[str]


@dataclass
class FunctionSummary:
    """Facts pass 2 needs about one function, derived lexically."""

    qualname: str
    cls: str | None
    line: int
    acquisitions: tuple[LockAcquisition, ...]
    calls: tuple[CallSite, ...]
    return_fact: str | None  # 'float64' | 'param' | None (unknown)
    fact_line: int
    return_calls: tuple[CallSite, ...]
    dtype_aware: bool


@dataclass(frozen=True)
class LockDecl:
    """``self.<name> = threading.Lock()/RLock()/Condition(...)``."""

    name: str
    kind: str  # 'Lock' | 'RLock' | 'Condition'
    alias_of: str | None  # Condition(self._lock) aliases '_lock'
    line: int


@dataclass
class ClassInfo:
    """Per-class lock declarations with alias resolution."""

    name: str
    line: int
    end_line: int
    locks: dict[str, LockDecl] = field(default_factory=dict)

    def canonical(self, name: str) -> str:
        """Resolve Condition aliases to the underlying mutex name."""
        seen: set[str] = set()
        while name in self.locks and name not in seen:
            seen.add(name)
            alias = self.locks[name].alias_of
            if alias is None:
                break
            name = alias
        return name

    def reentrant(self, name: str) -> bool:
        """Whether re-acquiring ``name`` on the same thread is safe."""
        decl = self.locks.get(self.canonical(name))
        if decl is None:
            return False
        # A Condition() built with no lock owns an RLock.
        return decl.kind == "RLock" or (decl.kind == "Condition" and decl.alias_of is None)


@dataclass
class ModuleSummary:
    """Pass-1 distillation of one module."""

    relpath: str
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    imports: dict[str, tuple[str, str | None]] = field(default_factory=dict)


_LOCK_CTOR_KINDS = ("Lock", "RLock", "Condition")

# Allocation calls whose dtype= keyword yields a return-dtype fact.  The
# ``*_like`` variants inherit their dtype and always yield 'param'.
_FACT_ALLOCS = {"zeros", "empty", "ones", "full", "array", "arange", "asarray", "linspace"}
_FACT_LIKE_ALLOCS = {"zeros_like", "empty_like", "ones_like", "full_like"}


def _lock_ctor(call: ast.Call) -> tuple[str, str | None] | None:
    """``(kind, alias_of)`` when ``call`` constructs a threading lock."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "threading"
    ):
        kind = func.attr
    elif isinstance(func, ast.Name):
        kind = func.id
    else:
        return None
    if kind not in _LOCK_CTOR_KINDS:
        return None
    alias = _self_attr_name(call.args[0]) if kind == "Condition" and call.args else None
    return kind, alias


def _bare_lock_call(stmt: ast.stmt) -> tuple[str, str, int] | None:
    """``(attr, 'acquire'|'release', line)`` for ``self.<attr>.acquire()``."""
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if isinstance(func, ast.Attribute) and func.attr in ("acquire", "release"):
            target = _self_attr_name(func.value)
            if target is not None:
                return target, func.attr, stmt.lineno
    return None


def _module_relpath(dotted: str) -> str | None:
    """``repro.signal.peaks`` -> ``signal/peaks.py`` (scan-root relative)."""
    parts = dotted.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return "/".join(parts[1:]) + ".py"


def _collect_imports(tree: ast.Module) -> dict[str, tuple[str, str | None]]:
    imports: dict[str, tuple[str, str | None]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = _module_relpath(alias.name)
                if target is not None and alias.asname is not None:
                    imports[alias.asname] = (target, None)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            target = _module_relpath(node.module)
            if target is not None:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (target, alias.name)
    return imports


class _FunctionScanner:
    """Single pass over one function body collecting the summary facts."""

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef, cls: str | None) -> None:
        self.fn = fn
        self.cls = cls
        args = fn.args
        self.params = {
            a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        }
        self.acquisitions: list[LockAcquisition] = []
        self.calls: list[CallSite] = []
        self.return_calls: list[CallSite] = []
        self.return_fact: str | None = None
        self.fact_line = 0
        self._env: dict[str, object] = {}  # var -> fact str | CallSite

    # ------------------------------------------------------------ driving
    def scan(self) -> None:
        self.walk_body(self.fn.body, frozenset())

    def walk_body(self, stmts: list[ast.stmt], held: frozenset[str]) -> None:
        for i, stmt in enumerate(stmts):
            bare = _bare_lock_call(stmt)
            if bare is not None and bare[1] == "acquire":
                attr, _, line = bare
                self.acquisitions.append(LockAcquisition(attr, line, held))
                # Over-approximate the held span to the rest of the list;
                # REP002 separately enforces acquire/release pairing.
                self.walk_body(stmts[i + 1 :], held | {attr})
                return
            self._visit_stmt(stmt, held)

    def _visit_stmt(self, stmt: ast.stmt, held: frozenset[str]) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = held
            for item in stmt.items:
                self._collect_calls(item.context_expr, inner)
                attr = _self_attr_name(item.context_expr)
                if attr is not None:
                    self.acquisitions.append(
                        LockAcquisition(attr, item.context_expr.lineno, inner)
                    )
                    inner = inner | {attr}
            self.walk_body(stmt.body, inner)
        elif isinstance(stmt, ast.If):
            self._collect_calls(stmt.test, held)
            self.walk_body(stmt.body, held)
            self.walk_body(stmt.orelse, held)
        elif isinstance(stmt, (ast.While,)):
            self._collect_calls(stmt.test, held)
            self.walk_body(stmt.body, held)
            self.walk_body(stmt.orelse, held)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._collect_calls(stmt.iter, held)
            self.walk_body(stmt.body, held)
            self.walk_body(stmt.orelse, held)
        elif isinstance(stmt, ast.Try):
            self.walk_body(stmt.body, held)
            for handler in stmt.handlers:
                self.walk_body(handler.body, held)
            self.walk_body(stmt.orelse, held)
            self.walk_body(stmt.finalbody, held)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested scopes are summarized (or checked) separately
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._collect_calls(stmt.value, held)
                self._note_return(stmt.value, held)
        elif isinstance(stmt, ast.Assign):
            self._collect_calls(stmt, held)
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                self._env[stmt.targets[0].id] = self._value_info(stmt.value, held)
        else:
            self._collect_calls(stmt, held)

    # ------------------------------------------------------------- facts
    def _note_return(self, value: ast.expr, held: frozenset[str]) -> None:
        info = self._value_info(value, held)
        if isinstance(info, CallSite):
            self.return_calls.append(info)
        elif info == "float64":
            self.return_fact = "float64"
            self.fact_line = value.lineno
        elif info == "param" and self.return_fact is None:
            self.return_fact = "param"

    def _value_info(self, value: ast.expr, held: frozenset[str]) -> object:
        if isinstance(value, ast.Name):
            return self._env.get(value.id)
        if isinstance(value, ast.Call):
            fact = self._alloc_fact(value)
            if fact is not None:
                return fact
            return self._classify_call(value, held)
        return None

    def _alloc_fact(self, call: ast.Call) -> str | None:
        """Return-dtype fact of a numpy allocation call, if it is one.

        Only pins REP001 cannot see produce a ``'float64'`` fact here
        (``dtype=float`` keywords, ``dtype="float64"`` strings): dtype-less
        allocations are REP001's finding at the allocation site, and
        double-reporting them interprocedurally would drown the signal.
        """
        func = call.func
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)):
            return None
        if func.value.id not in ("np", "numpy"):
            return None
        if func.attr in _FACT_LIKE_ALLOCS:
            return "param"
        if func.attr not in _FACT_ALLOCS:
            return None
        dtype = next((kw.value for kw in call.keywords if kw.arg == "dtype"), None)
        if dtype is None:
            return None
        if self._is_float64_pin(dtype):
            if func.attr == "asarray" and self._coerces_param(call):
                return "param"  # boundary coercion of caller input
            return "float64"
        return "param"

    @staticmethod
    def _is_float64_pin(node: ast.expr) -> bool:
        if isinstance(node, ast.Name) and node.id in ("float", "float64"):
            return True
        if isinstance(node, ast.Constant) and node.value in ("float64", "f8", "double"):
            return True
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and node.attr == "float64"
        )

    def _coerces_param(self, call: ast.Call) -> bool:
        return bool(
            call.args
            and isinstance(call.args[0], ast.Name)
            and call.args[0].id in self.params
        )

    # ------------------------------------------------------------- calls
    def _collect_calls(self, node: ast.AST, held: frozenset[str]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                site = self._classify_call(sub, held)
                if site is not None:
                    self.calls.append(site)

    def _classify_call(self, call: ast.Call, held: frozenset[str]) -> CallSite | None:
        func = call.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id == "self":
                return CallSite("self", func.attr, "", call.lineno, held)
            return CallSite("attr", func.attr, func.value.id, call.lineno, held)
        if isinstance(func, ast.Name):
            return CallSite("local", func.id, "", call.lineno, held)
        return None

    # ---------------------------------------------------------- awareness
    def dtype_aware(self) -> bool:
        if "dtype" in self.params:
            return True
        for node in ast.walk(self.fn):
            if isinstance(node, ast.Name) and node.id == "resolve_dtype":
                return True
            attr = _self_attr_name(node)
            if attr in ("dtype", "_dtype"):
                return True
        return False


def _summarize_function(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, cls: str | None
) -> FunctionSummary:
    scanner = _FunctionScanner(fn, cls)
    scanner.scan()
    qualname = f"{cls}.{fn.name}" if cls else fn.name
    return FunctionSummary(
        qualname=qualname,
        cls=cls,
        line=fn.lineno,
        acquisitions=tuple(scanner.acquisitions),
        calls=tuple(scanner.calls),
        return_fact=scanner.return_fact,
        fact_line=scanner.fact_line,
        return_calls=tuple(scanner.return_calls),
        dtype_aware=scanner.dtype_aware(),
    )


def summarize_module(module: ParsedModule) -> ModuleSummary:
    """Pass-1 summary of one parsed module (cached per file)."""
    key = str(module.path)
    stat_key = _stat_key(module.path) if module.path.exists() else (0, 0)
    cached = _SUMMARY_CACHE.get(key)
    if cached is not None and cached[0] == stat_key:
        return cached[1]

    summary = ModuleSummary(relpath=module.relpath, imports=_collect_imports(module.tree))
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fs = _summarize_function(node, None)
            summary.functions[fs.qualname] = fs
        elif isinstance(node, ast.ClassDef):
            info = ClassInfo(
                name=node.name,
                line=node.lineno,
                end_line=getattr(node, "end_lineno", node.lineno) or node.lineno,
            )
            for child in node.body:
                if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                fs = _summarize_function(child, node.name)
                summary.functions[fs.qualname] = fs
                for stmt in ast.walk(child):
                    if not (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)):
                        continue
                    ctor = _lock_ctor(stmt.value)
                    if ctor is None:
                        continue
                    for target in stmt.targets:
                        attr = _self_attr_name(target)
                        if attr is not None:
                            info.locks[attr] = LockDecl(attr, ctor[0], ctor[1], stmt.lineno)
            summary.classes[node.name] = info
    _SUMMARY_CACHE[key] = (stat_key, summary)
    return summary


class ProjectSummary:
    """Pass-1 project view: module summaries stitched into a call graph.

    Modules are summarized lazily on first use and the two transitive
    queries (locks acquired through helpers, dtype facts propagated
    through call chains) are memoized with a cycle guard, so recursion
    in the analyzed code cannot hang the analyzer.
    """

    def __init__(self, config: LintConfig, modules: dict[str, ParsedModule]) -> None:
        self.config = config
        self._parsed = modules
        self._summaries: dict[str, ModuleSummary | None] = {}
        self._acq_memo: dict[tuple[str, str], frozenset[str]] = {}
        self._fact_memo: dict[tuple[str, str], tuple[str | None, str]] = {}

    def module(self, relpath: str) -> ModuleSummary | None:
        if relpath not in self._summaries:
            parsed = self._parsed.get(relpath)
            self._summaries[relpath] = summarize_module(parsed) if parsed else None
        return self._summaries[relpath]

    def resolve(
        self, call: CallSite, relpath: str, cls: str | None
    ) -> tuple[str, str] | None:
        """``(module_relpath, qualname)`` of the call target, if known."""
        msum = self.module(relpath)
        if msum is None:
            return None
        if call.kind == "self":
            qualname = f"{cls}.{call.name}" if cls else call.name
            if cls and qualname in msum.functions:
                return relpath, qualname
            return None
        if call.kind == "local":
            if call.name in msum.functions:
                return relpath, call.name
            entry = msum.imports.get(call.name)
            if entry is not None:
                modpath, remote = entry
                target = self.module(modpath)
                name = remote or call.name
                if target is not None and name in target.functions:
                    return modpath, name
            return None
        entry = msum.imports.get(call.via)
        if entry is None:
            return None
        modpath, remote = entry
        candidates = [modpath] if remote is None else [modpath[:-3] + "/" + remote + ".py"]
        for candidate in candidates:
            target = self.module(candidate)
            if target is not None and call.name in target.functions:
                return candidate, call.name
        return None

    def transitive_acquires(self, relpath: str, qualname: str) -> frozenset[str]:
        """Locks ``qualname`` acquires directly or through self-call helpers."""
        key = (relpath, qualname)
        if key in self._acq_memo:
            return self._acq_memo[key]
        self._acq_memo[key] = frozenset()  # cycle guard
        msum = self.module(relpath)
        fs = msum.functions.get(qualname) if msum else None
        if fs is None:
            return frozenset()
        acquired = {acq.lock for acq in fs.acquisitions}
        for call in fs.calls:
            if call.kind != "self":
                continue
            target = self.resolve(call, relpath, fs.cls)
            if target is not None:
                acquired |= self.transitive_acquires(*target)
        result = frozenset(acquired)
        self._acq_memo[key] = result
        return result

    def return_fact(self, relpath: str, qualname: str) -> tuple[str | None, str]:
        """``(fact, origin)`` of a function's return value, propagated
        through ``return helper(...)`` chains.  ``origin`` names the
        ``file:line`` of the float64 pin when ``fact == 'float64'``."""
        key = (relpath, qualname)
        if key in self._fact_memo:
            return self._fact_memo[key]
        self._fact_memo[key] = (None, "")  # cycle guard
        msum = self.module(relpath)
        fs = msum.functions.get(qualname) if msum else None
        if fs is None:
            return None, ""
        if fs.return_fact == "float64":
            result: tuple[str | None, str] = ("float64", f"{relpath}:{fs.fact_line}")
        else:
            result = ("param", "") if fs.return_fact == "param" else (None, "")
            for call in fs.return_calls:
                target = self.resolve(call, relpath, fs.cls)
                if target is None:
                    continue
                sub_fact, sub_origin = self.return_fact(*target)
                if sub_fact == "float64":
                    result = ("float64", sub_origin)
                    break
        self._fact_memo[key] = result
        return result


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
    """Parse every file under ``config.root`` and run all eight rules."""
    # Imported here (not at module top) so engine.py stays importable from
    # the checkers without a cycle.
    from repro.analysis import (
        contracts,
        dtype_discipline,
        dtype_flow,
        hot_path,
        lifecycle,
        lock_discipline,
        lock_order,
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

    project = ProjectSummary(config, modules)
    findings.extend(lock_order.check_project(modules, project, config))
    findings.extend(dtype_flow.check_project(project, config))

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
    "REP007": "interprocedural dtype flow: dtype-aware callers must not consume float64-pinned helper results",
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
