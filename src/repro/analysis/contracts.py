"""REP004 — equivalence-contract consistency.

Three structural invariants of the predictor layer, checked across the
whole scan root at once:

1. **Explicit flag** — every (direct or transitive) subclass of
   ``HeartRatePredictor`` must assign ``FLEET_BATCHABLE`` in its own
   class body.  Inheriting the default silently is how a new predictor
   ends up on the wrong fleet path; the flag is the contract and must be
   a visible, reviewed line.  The root class itself (the definition site
   of the default) is exempt.

2. **FleetState handling** — a subclass overriding ``predict_fleet``
   must visibly participate in the stacked-state protocol: its body must
   reference ``_check_fleet_stack`` (validate + unstack a ``FleetStack``)
   or delegate via ``super().predict_fleet``.

3. **Batch twins** — every scalar/batch pair in the twin registry
   (``LintConfig.batch_twins``) must have both functions present in the
   named module, and every defaulted parameter of the scalar twin must
   appear in the batch twin with an equal default (the bit-identity
   contract is meaningless if the twins diverge on ``min_bpm`` et al.).

The subclass graph is resolved by name over all scanned modules, so
cross-module hierarchies (``SmoothedCalibratedHRModel`` →
``CalibratedHRModel`` → ``HeartRatePredictor``) are covered.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, LintConfig, ParsedModule

CODE = "REP004"


def _class_graph(modules: dict[str, ParsedModule]) -> dict[str, list[tuple[str, ast.ClassDef, list[str]]]]:
    """``class name -> [(module relpath, node, base names)]`` over the scan root."""
    graph: dict[str, list[tuple[str, ast.ClassDef, list[str]]]] = {}
    for module in modules.values():
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "") for b in node.bases]
                graph.setdefault(node.name, []).append((module.relpath, node, bases))
    return graph


def _predictor_classes(
    graph: dict[str, list[tuple[str, ast.ClassDef, list[str]]]], root_name: str
) -> list[tuple[str, ast.ClassDef]]:
    """Transitive subclasses of ``root_name`` (excluding the root itself)."""
    known = {root_name}
    changed = True
    while changed:
        changed = False
        for name, entries in graph.items():
            if name in known:
                continue
            if any(base in known for _, _, bases in entries for base in bases):
                known.add(name)
                changed = True
    out: list[tuple[str, ast.ClassDef]] = []
    for name in sorted(known - {root_name}):
        for relpath, node, _ in graph.get(name, []):
            out.append((relpath, node))
    return out


def _class_body_assignments(cls: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.value is not None:
                names.add(stmt.target.id)
    return names


def _handles_fleet_state(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and node.attr == "_check_fleet_stack":
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "predict_fleet"
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Name)
            and node.func.value.func.id == "super"
        ):
            return True
    return False


def _defaulted_params(func: ast.FunctionDef) -> dict[str, str]:
    """``param name -> unparsed default`` for positional/kw-only defaults."""
    out: dict[str, str] = {}
    args = func.args
    positional = args.posonlyargs + args.args
    for arg, default in zip(positional[len(positional) - len(args.defaults):], args.defaults):
        out[arg.arg] = ast.unparse(default)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            out[arg.arg] = ast.unparse(default)
    return out


def _top_level_functions(module: ParsedModule) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in module.tree.body
        if isinstance(node, ast.FunctionDef)
    }


def check_project(modules: dict[str, ParsedModule], config: LintConfig) -> list[Finding]:
    findings: list[Finding] = []
    graph = _class_graph(modules)

    # 1 + 2: per-predictor-class checks.
    for relpath, cls in _predictor_classes(graph, config.contract_root):
        assigned = _class_body_assignments(cls)
        for flag in config.required_flags:
            if flag not in assigned:
                findings.append(
                    Finding(
                        file=relpath,
                        line=cls.lineno,
                        code=CODE,
                        message=(
                            f"predictor class {cls.name} does not declare {flag} in its "
                            "class body — the equivalence-contract flag must be explicit"
                        ),
                    )
                )
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "predict_fleet":
                if not _handles_fleet_state(stmt):
                    findings.append(
                        Finding(
                            file=relpath,
                            line=stmt.lineno,
                            code=CODE,
                            message=(
                                f"{cls.name}.predict_fleet overrides the fused path without "
                                "FleetState handling (no _check_fleet_stack call and no "
                                "super().predict_fleet delegation)"
                            ),
                        )
                    )

    # 3: batch-twin registry.
    for twin in config.batch_twins:
        module = modules.get(twin.module)
        if module is None:
            findings.append(
                Finding(
                    file=twin.module,
                    line=1,
                    code=CODE,
                    message=f"batch-twin module {twin.module} not found in the scan root",
                )
            )
            continue
        funcs = _top_level_functions(module)
        scalar = funcs.get(twin.scalar)
        batch = funcs.get(twin.batch)
        if scalar is None or batch is None:
            missing = twin.scalar if scalar is None else twin.batch
            anchor = scalar.lineno if scalar is not None else (batch.lineno if batch is not None else 1)
            findings.append(
                Finding(
                    file=twin.module,
                    line=anchor,
                    code=CODE,
                    message=(
                        f"batch twin pair ({twin.scalar}, {twin.batch}) is incomplete: "
                        f"{missing} is not defined"
                    ),
                )
            )
            continue
        scalar_defaults = _defaulted_params(scalar)
        batch_defaults = _defaulted_params(batch)
        for name, default in sorted(scalar_defaults.items()):
            if name not in batch_defaults:
                findings.append(
                    Finding(
                        file=twin.module,
                        line=batch.lineno,
                        code=CODE,
                        message=(
                            f"batch twin {twin.batch} drops defaulted parameter {name!r} "
                            f"of {twin.scalar}"
                        ),
                    )
                )
            elif batch_defaults[name] != default:
                findings.append(
                    Finding(
                        file=twin.module,
                        line=batch.lineno,
                        code=CODE,
                        message=(
                            f"batch twin {twin.batch} default for {name!r} "
                            f"({batch_defaults[name]}) differs from {twin.scalar} ({default})"
                        ),
                    )
                )
    return findings
