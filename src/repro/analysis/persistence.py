"""REP005 — persistence atomicity in the durable-state modules.

The crash-safety story of :mod:`repro.core.checkpoint` rests on one
invariant: durable state is only ever committed through the atomic
temp-file-then-``os.replace`` helpers (``atomic_write_buffers`` /
``atomic_write_bytes`` / ``atomic_write_text``).  A bare
``open(path, "w")`` write — or a ``Path.write_text`` /
``Path.write_bytes`` call — in a persistence module can tear on a
crash, leaving a half-visible journal or manifest that a resumed run
would then trust.

This checker flags, inside the configured ``persistence_modules``:

* ``open(...)`` calls whose mode string writes (any of ``w``/``a``/
  ``x``/``+``);
* ``.write_text(...)`` / ``.write_bytes(...)`` method calls —
  lexically, whatever the receiver, since in a persistence module any
  such call is a durable write;

unless the enclosing function is itself one of the blessed helpers (its
name starts with ``atomic_`` or ``_atomic``), which is where the one
legitimate raw write lives.  Deliberate exceptions carry an inline
``# lint-ok: REP005`` with a justifying comment, like every other rule.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, LintConfig, ParsedModule

CODE = "REP005"

#: Enclosing-function prefixes allowed to perform raw writes: the atomic
#: helpers themselves.
_BLESSED_PREFIXES = ("atomic_", "_atomic")

_WRITE_METHODS = ("write_text", "write_bytes")


def _mode_writes(call: ast.Call) -> bool:
    """Whether an ``open()`` call's mode string opens for writing.

    Only literal modes are judged; a dynamic mode expression is treated
    as writing (conservative — persistence modules have no reason to
    compute file modes).
    """
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False  # default mode "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(flag in mode.value for flag in ("w", "a", "x", "+"))
    return True


class _WriteVisitor(ast.NodeVisitor):
    """Walk a persistence module tracking the enclosing function name."""

    def __init__(self, module: ParsedModule) -> None:
        self.module = module
        self.findings: list[Finding] = []
        self._function_stack: list[str] = []

    def _blessed(self) -> bool:
        return any(
            name.startswith(_BLESSED_PREFIXES) for name in self._function_stack
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Call(self, node: ast.Call) -> None:
        if not self._blessed():
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                if _mode_writes(node):
                    self._flag(
                        node.lineno,
                        "bare write-mode open() in a persistence module; "
                        "commit durable state through atomic_write_buffers/"
                        "atomic_write_bytes/atomic_write_text (temp file + "
                        "os.replace)",
                    )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _WRITE_METHODS
            ):
                self._flag(
                    node.lineno,
                    f"direct .{node.func.attr}() in a persistence module; "
                    "commit durable state through atomic_write_buffers/"
                    "atomic_write_bytes/atomic_write_text (temp file + "
                    "os.replace)",
                )
        self.generic_visit(node)

    def _flag(self, line: int, message: str) -> None:
        self.findings.append(
            Finding(file=self.module.relpath, line=line, code=CODE, message=message)
        )


def check_module(module: ParsedModule, config: LintConfig) -> list[Finding]:
    if module.relpath not in config.persistence_modules:
        return []
    visitor = _WriteVisitor(module)
    visitor.visit(module.tree)
    return visitor.findings
