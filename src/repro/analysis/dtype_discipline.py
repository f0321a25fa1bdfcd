"""REP001 — dtype discipline in inference-path modules.

The float32/int8 engine planned on the roadmap only works if the
inference path *inherits* dtypes from its inputs instead of silently
re-promoting to float64.  Four patterns are flagged in the configured
inference modules (``LintConfig.dtype_modules``):

1. allocation calls that default to float64 —
   ``np.zeros/empty/ones/full/array/arange`` without a ``dtype``
   argument (``*_like`` variants inherit and are fine);
2. explicit float64 pins: any ``np.float64`` reference;
3. allocations pinned to float64 by keyword —
   ``np.zeros/empty/ones/full/array/arange/asarray/linspace`` with
   ``dtype=float``, ``"float64"``, ``"f8"`` or ``"double"`` (a
   ``dtype=np.float64`` keyword is already pattern 2).  The finding
   lands where the pin is made, so a helper that returns such an array
   is caught before any caller consumes it;
4. re-promoting casts: ``.astype(float)`` / ``.astype("float64")`` /
   ``.astype(np.float64)``.

``np.asarray(<parameter>, dtype=float)`` is deliberately not flagged: it
coerces caller input at the public boundary rather than widening an
intermediate, and is the documented entry contract of the signal
modules.  Use ``# lint-ok: REP001`` for the rare justified exception,
such as the float64 BPM contract of the peak-interval conversion.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, LintConfig, ParsedModule

CODE = "REP001"

# Allocation call -> number of positional arguments at which the dtype is
# already covered positionally (np.zeros(shape, dtype), np.full(shape,
# fill, dtype), np.arange(start, stop, step, dtype), ...).
_ALLOC_DTYPE_POSITION = {
    "zeros": 2,
    "empty": 2,
    "ones": 2,
    "full": 3,
    "array": 2,
    "arange": 4,
}
_PINNABLE_ALLOCS = {*_ALLOC_DTYPE_POSITION, "asarray", "linspace"}
_NUMPY_NAMES = {"np", "numpy"}


def _is_numpy_attr(node: ast.AST, attr: str | None = None) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in _NUMPY_NAMES
        and (attr is None or node.attr == attr)
    )


def _names_float64(node: ast.AST) -> bool:
    """``float`` / ``float64`` / ``"float64"`` / ``"f8"`` / ``"double"`` as a
    dtype argument (``np.float64`` is flagged wherever it appears)."""
    if isinstance(node, ast.Name):
        return node.id in ("float", "float64")
    return isinstance(node, ast.Constant) and node.value in ("float64", "f8", "double")


class _DtypeVisitor(ast.NodeVisitor):
    def __init__(self, module: ParsedModule) -> None:
        self.module = module
        self.findings: list[Finding] = []
        self._context: list[str] = []
        self._params: list[set[str]] = []  # innermost function's parameters

    # Track the enclosing function/class name so messages stay meaningful
    # (and baseline-stable) without line numbers.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        args = node.args
        self._context.append(node.name)
        self._params.append({a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)})
        self.generic_visit(node)
        self._params.pop()
        self._context.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._context.append(node.name)
        self.generic_visit(node)
        self._context.pop()

    def _where(self) -> str:
        return ".".join(self._context) if self._context else "<module>"

    def _add(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                file=self.module.relpath,
                line=node.lineno,
                code=CODE,
                message=f"{message} (in {self._where()})",
            )
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Any np.float64 reference is an explicit float64 pin.
        if _is_numpy_attr(node, "float64"):
            self._add(node, "explicit np.float64 pins the inference path to float64")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if _is_numpy_attr(func) and func.attr in _PINNABLE_ALLOCS:  # type: ignore[union-attr]
            dtype = next((kw.value for kw in node.keywords if kw.arg == "dtype"), None)
            position = _ALLOC_DTYPE_POSITION.get(func.attr)  # type: ignore[union-attr]
            if dtype is None and position is not None and len(node.args) < position:
                self._add(
                    node,
                    f"np.{func.attr} without an explicit dtype defaults to float64 — "  # type: ignore[union-attr]
                    "inherit the input dtype or pass dtype=...",
                )
            elif dtype is not None and _names_float64(dtype) and not self._coerces_param(node):
                self._add(
                    node,
                    f"np.{func.attr}(..., dtype={ast.unparse(dtype)}) pins the inference "  # type: ignore[union-attr]
                    "path to float64 — inherit the input dtype instead",
                )
        if isinstance(func, ast.Attribute) and func.attr == "astype" and node.args:
            arg = node.args[0]
            if _names_float64(arg) or _is_numpy_attr(arg, "float64"):
                self._add(
                    node,
                    "astype(float) re-promotes to float64 — cast to the input dtype instead",
                )
        self.generic_visit(node)

    def _coerces_param(self, call: ast.Call) -> bool:
        """``np.asarray(<parameter>, ...)``: boundary coercion of caller input."""
        func = call.func
        return (
            func.attr == "asarray"  # type: ignore[union-attr]
            and bool(self._params)
            and bool(call.args)
            and isinstance(call.args[0], ast.Name)
            and call.args[0].id in self._params[-1]
        )


def check_module(module: ParsedModule, config: LintConfig) -> list[Finding]:
    if module.relpath not in config.dtype_modules:
        return []
    visitor = _DtypeVisitor(module)
    visitor.visit(module.tree)
    return visitor.findings
