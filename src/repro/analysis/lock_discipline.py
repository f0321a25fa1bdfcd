"""REP002 lock discipline and REP006 lock-order discipline in the
threaded modules (``LintConfig.lock_modules``).

Both rules read one walk per method.  :class:`_LockWalker` tracks which
locks are lexically held — inside a ``with self.<lock>:`` block, or in
the span of a bare ``self.<lock>.acquire()`` up to its paired
``release()`` (at the same statement level, or in the ``finally`` of an
immediately following ``try``) — and records ``self.<attr>`` accesses,
lock acquisitions and ``self.<method>()`` calls, each with the set of
locks held at that point.

REP002 — lock discipline
------------------------

An instance attribute assigned with a trailing ``# guarded-by: <lock>``
pragma (``self._tables = {}  # guarded-by: _lock``) may only be read or
written while one of its locks is held.  Several lock names may be
listed (``# guarded-by: _lock, _arrivals``) when aliases of one mutex
exist — e.g. ``threading.Condition`` objects constructed around the
same lock; holding *any* listed alias satisfies the guard.  An
*unpaired* bare acquire or release is itself flagged — a leaked acquire
deadlocks the next contender, a stray release corrupts the lock state.

Escapes:

* ``__init__`` is implicitly exempt — the instance is not yet shared
  while it is being constructed;
* a method whose ``def`` line carries ``# unguarded-ok`` (optionally
  naming specific attributes, ``# unguarded-ok: _active_ids``) is
  exempt, which is how caller-holds-the-lock helpers and benign
  set-once-before-sharing reads are documented in place;
* the declaration line itself (the one carrying ``# guarded-by``) is
  never flagged.

REP006 — lock-order discipline
------------------------------

Every mutex a class owns (``self.<x> = threading.Lock()/RLock()/
Condition(...)``) is *registered* in a ``# lock-order`` pragma inside
the class body, and any nested acquisition — directly, or through a
``self.<method>()`` call whose callee (transitively, within the class)
takes a lock — must follow the declared partial order.  The pragma
grammar::

    # lock-order: _lock                      (registers a single mutex)
    # lock-order: _meta < _data < _log       (registers + orders a chain)
    # lock-order: _meta < _data, _meta < _log  (several chains, one pragma)

Names are canonicalized through ``threading.Condition`` aliases before
any check (``Condition(self._lock)`` *is* ``_lock``), so registering the
mutex covers its condition variables, and ``_lock < _arrivals`` between
aliases of one mutex is rejected as meaningless.  Orders are transitive
(``_meta < _data < _log`` permits acquiring ``_log`` under ``_meta``).

Flagged, per class:

* a ``lock-order`` pragma whose pair is already reachable in reverse
  (a declaration cycle — no consistent acquisition order exists);
* a declared mutex whose canonical name no pragma registers;
* acquiring a lock while holding one with the *reverse* order declared;
* nested acquisition of a registered pair with no declared order;
* re-entrant acquisition of a non-reentrant lock (``threading.Lock``;
  ``RLock`` and bare ``Condition()`` — which owns an RLock — are safe).

Helper-call acquisitions are attributed to the *call site* so the
finding lands on the line that creates the nesting.

Both rules are lexical, not model checkers: a nested function's body
counts as running where it is defined, and calls other than
``self.<method>()`` on the same class are not followed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.engine import _IDENT_RE, Finding, LintConfig, ParsedModule

GUARD_CODE = "REP002"
ORDER_CODE = "REP006"

# (line, name, locks held): one recorded access, acquisition or self-call.
_Event = tuple[int, str, frozenset[str]]


def _self_attr(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _bare_lock_call(stmt: ast.stmt) -> tuple[str, str, int] | None:
    """``(attr, 'acquire'|'release', line)`` for ``self.<attr>.acquire()``."""
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if isinstance(func, ast.Attribute) and func.attr in ("acquire", "release"):
            target = _self_attr(func.value)
            if target is not None:
                return target, func.attr, stmt.lineno
    return None


def _releases_in_finally(stmt: ast.Try, attr: str) -> ast.Expr | None:
    """The ``self.<attr>.release()`` statement in ``stmt``'s finally, if any."""
    for final_stmt in stmt.finalbody:
        bare = _bare_lock_call(final_stmt)
        if bare is not None and bare[0] == attr and bare[1] == "release":
            return final_stmt  # type: ignore[return-value]
    return None


# ------------------------------------------------------------ declarations
def collect_guarded_declarations(module: ParsedModule, cls: ast.ClassDef) -> dict[str, frozenset[str]]:
    """``attr -> accepted lock names`` from ``# guarded-by`` pragmas on
    ``self.<attr>`` assignments (or class-level assignments) in ``cls``."""
    guarded: dict[str, frozenset[str]] = {}
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            last_line = getattr(node, "end_lineno", node.lineno) or node.lineno
            pragma = module.pragmas.find("guarded-by", node.lineno, last_line)
            if pragma is None or not pragma.args:
                continue
            for target in targets:
                attr = _self_attr(target)
                if attr is None and isinstance(target, ast.Name):
                    attr = target.id  # class-level declaration
                if attr is not None:
                    guarded[attr] = frozenset(pragma.args)
    return guarded


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
    if kind not in ("Lock", "RLock", "Condition"):
        return None
    alias = _self_attr(call.args[0]) if kind == "Condition" and call.args else None
    return kind, alias


def _class_info(cls: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(
        name=cls.name,
        line=cls.lineno,
        end_line=getattr(cls, "end_lineno", cls.lineno) or cls.lineno,
    )
    for child in cls.body:
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in ast.walk(child):
            if not (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)):
                continue
            ctor = _lock_ctor(stmt.value)
            if ctor is None:
                continue
            for target in stmt.targets:
                attr = _self_attr(target)
                if attr is not None:
                    info.locks[attr] = LockDecl(attr, ctor[0], ctor[1], stmt.lineno)
    return info


# ------------------------------------------------------------------ walker
class _LockWalker:
    """Walk one method body tracking which locks are lexically held, and
    record what happens under them."""

    def __init__(self) -> None:
        self.accesses: list[_Event] = []  # self.<attr> reads and writes
        self.acquisitions: list[_Event] = []  # with self.<x>: / self.<x>.acquire()
        self.self_calls: list[_Event] = []  # self.<method>(...)
        self.unpaired: list[tuple[int, str, str]] = []  # (line, lock, problem)
        # Release statements consumed by a matched acquire (so they are
        # not re-flagged as stray when the walk reaches them).
        self._consumed: set[int] = set()

    # ----------------------------------------------------------- statements
    def walk_body(self, stmts: list[ast.stmt], held: frozenset[str]) -> None:
        index = 0
        while index < len(stmts):
            stmt = stmts[index]
            bare = _bare_lock_call(stmt)
            if bare is not None and id(stmt) not in self._consumed:
                attr, op, line = bare
                if op == "acquire":
                    self.acquisitions.append((line, attr, held))
                    end = self._find_release(stmts, index + 1, attr)
                    if end is None:
                        self.unpaired.append((line, attr, "acquire() without a matching release()"))
                        # Treat the lock as held for the rest of the list so
                        # the leak is one finding, not a cascade.
                        self.walk_body(stmts[index + 1 :], held | {attr})
                        return
                    self.walk_body(stmts[index + 1 : end + 1], held | {attr})
                    index = end + 1
                    continue
                self.unpaired.append((line, attr, "release() without a matching acquire()"))
                index += 1
                continue
            self.walk_stmt(stmt, held)
            index += 1

    def _find_release(self, stmts: list[ast.stmt], start: int, attr: str) -> int | None:
        """Index of the statement completing the acquire span: the bare
        release at the same level, or a ``try`` whose finally releases."""
        for index in range(start, len(stmts)):
            stmt = stmts[index]
            bare = _bare_lock_call(stmt)
            if bare is not None and bare[0] == attr and bare[1] == "release":
                self._consumed.add(id(stmt))
                return index
            if isinstance(stmt, ast.Try):
                release_stmt = _releases_in_finally(stmt, attr)
                if release_stmt is not None:
                    self._consumed.add(id(release_stmt))
                    return index
        return None

    def walk_stmt(self, stmt: ast.stmt, held: frozenset[str]) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            # Items are entered in order: each context expression is
            # evaluated holding the locks of the items before it.
            inner = held
            for item in stmt.items:
                self.walk_expr(item.context_expr, inner)
                if item.optional_vars is not None:
                    self.walk_expr(item.optional_vars, inner)
                attr = _self_attr(item.context_expr)
                if attr is not None:
                    self.acquisitions.append((item.context_expr.lineno, attr, inner))
                    inner = inner | {attr}
            self.walk_body(stmt.body, inner)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.walk_expr(stmt.test, held)
            self.walk_body(stmt.body, held)
            self.walk_body(stmt.orelse, held)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.walk_expr(stmt.target, held)
            self.walk_expr(stmt.iter, held)
            self.walk_body(stmt.body, held)
            self.walk_body(stmt.orelse, held)
        elif isinstance(stmt, ast.Try):
            self.walk_body(stmt.body, held)
            for handler in stmt.handlers:
                if handler.type is not None:
                    self.walk_expr(handler.type, held)
                self.walk_body(handler.body, held)
            self.walk_body(stmt.orelse, held)
            self.walk_body(stmt.finalbody, held)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.walk_body(stmt.body, held)
        else:
            self.walk_expr(stmt, held)

    # ---------------------------------------------------------- expressions
    def walk_expr(self, node: ast.AST, held: frozenset[str]) -> None:
        attr = _self_attr(node)
        if attr is not None:
            self.accesses.append((node.lineno, attr, held))
        elif isinstance(node, ast.Call) and (method := _self_attr(node.func)) is not None:
            self.self_calls.append((node.lineno, method, held))
        for child in ast.iter_child_nodes(node):
            self.walk_expr(child, held)


# ------------------------------------------------------------------ REP002
def _check_guards(
    module: ParsedModule,
    cls_name: str,
    method: ast.FunctionDef | ast.AsyncFunctionDef,
    walker: _LockWalker,
    guarded: dict[str, frozenset[str]],
) -> list[Finding]:
    if method.name == "__init__":
        return []
    first, last = module.header_span(method)
    pragma = module.pragmas.find("unguarded-ok", first, last)
    if pragma is not None and not pragma.args:
        return []  # bare pragma: whole method exempt
    exempt = frozenset(pragma.args) if pragma is not None else frozenset()
    where = f"{cls_name}.{method.name}"
    findings = [
        Finding(module.relpath, line, GUARD_CODE, f"self.{attr}.{problem} in {where}")
        for line, attr, problem in walker.unpaired
    ]
    for line, attr, held in walker.accesses:
        locks = guarded.get(attr)
        if locks is None or attr in exempt or held & locks:
            continue
        if module.pragmas.find("guarded-by", line) is not None:
            continue
        findings.append(
            Finding(
                module.relpath,
                line,
                GUARD_CODE,
                f"self.{attr} accessed outside its guarding lock "
                f"({'/'.join(sorted(locks))}) in {where}",
            )
        )
    return findings


# ------------------------------------------------------------------ REP006
def _declared_order(
    module: ParsedModule, info: ClassInfo
) -> tuple[set[str], set[tuple[str, str]], list[Finding]]:
    """Parse the class's ``lock-order`` pragmas into a registered-mutex
    set and the transitive closure of the declared order, flagging
    declaration cycles and alias self-orders as they are introduced."""
    findings: list[Finding] = []
    registered: set[str] = set()
    edges: dict[str, set[str]] = {}

    def reachable(src: str, dst: str) -> bool:
        stack, seen = [src], set()
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(edges.get(node, ()))
        return False

    pragmas = [
        p
        for p in module.pragmas.all("lock-order")
        if info.line <= p.line <= info.end_line
    ]
    for pragma in pragmas:
        text = pragma.reason.split("#")[0]
        for chain_text in text.split(","):
            names = [
                match.group(0)
                for part in chain_text.split("<")
                if (match := _IDENT_RE.match(part.strip())) is not None
            ]
            chain = [info.canonical(name) for name in names]
            registered.update(chain)
            for first, second in zip(chain, chain[1:]):
                if first == second:
                    findings.append(
                        Finding(
                            file=module.relpath,
                            line=pragma.line,
                            code=ORDER_CODE,
                            message=(
                                f"lock-order pragma in {info.name} orders aliases of "
                                f"the same mutex ('{first}')"
                            ),
                        )
                    )
                    continue
                if reachable(second, first):
                    findings.append(
                        Finding(
                            file=module.relpath,
                            line=pragma.line,
                            code=ORDER_CODE,
                            message=(
                                f"lock-order declaration cycle in {info.name}: "
                                f"'{first} < {second}' contradicts the order already declared"
                            ),
                        )
                    )
                    continue
                edges.setdefault(first, set()).add(second)

    closure: set[tuple[str, str]] = set()
    for src in edges:
        stack, seen = list(edges[src]), set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            closure.add((src, node))
            stack.extend(edges.get(node, ()))
    return registered, closure, findings


def _acquired_through_calls(methods: dict[str, _LockWalker]) -> dict[str, set[str]]:
    """Locks each method takes itself or through the self-method calls it
    makes, closed to a fixed point (so recursion cannot hide a lock)."""
    acquired = {
        name: {lock for _, lock, _ in walker.acquisitions}
        for name, walker in methods.items()
    }
    changed = True
    while changed:
        changed = False
        for name, walker in methods.items():
            for _, callee, _ in walker.self_calls:
                if callee in methods and not acquired[callee] <= acquired[name]:
                    acquired[name] |= acquired[callee]
                    changed = True
    return acquired


def _check_order(
    module: ParsedModule, info: ClassInfo, methods: dict[str, _LockWalker]
) -> list[Finding]:
    registered, closure, findings = _declared_order(module, info)

    for decl in sorted(info.locks.values(), key=lambda d: d.line):
        if info.canonical(decl.name) not in registered:
            findings.append(
                Finding(
                    file=module.relpath,
                    line=decl.line,
                    code=ORDER_CODE,
                    message=(
                        f"mutex 'self.{decl.name}' in {info.name} is not registered "
                        "in any # lock-order pragma"
                    ),
                )
            )

    acquired = _acquired_through_calls(methods)
    for name, walker in sorted(methods.items()):
        qualname = f"{info.name}.{name}"
        # (line, lock, held, via-helper) acquisition events: direct
        # lexical acquisitions plus locks acquired inside self-call
        # helpers, attributed to the call line.
        events = [
            (line, lock, held, "")
            for line, lock, held in walker.acquisitions
            if info.canonical(lock) in info.locks
        ]
        for line, callee, held in walker.self_calls:
            if not held or callee not in methods:
                continue
            for lock in sorted(acquired[callee]):
                if info.canonical(lock) in info.locks:
                    events.append((line, lock, held, callee))

        for line, lock, held, via in sorted(events):
            canon = info.canonical(lock)
            held_canon = {
                info.canonical(h) for h in held if info.canonical(h) in info.locks
            }
            if not held_canon:
                continue
            suffix = f" via self.{via}()" if via else ""
            if canon in held_canon:
                if not info.reentrant(lock):
                    findings.append(
                        Finding(
                            file=module.relpath,
                            line=line,
                            code=ORDER_CODE,
                            message=(
                                f"{qualname} re-acquires non-reentrant lock "
                                f"'self.{canon}' already held{suffix} — deadlock"
                            ),
                        )
                    )
                continue
            for other in sorted(held_canon):
                if (other, canon) in closure:
                    continue
                if (canon, other) in closure:
                    message = (
                        f"{qualname} acquires 'self.{canon}' while holding "
                        f"'self.{other}'{suffix}, reversing the declared lock order"
                    )
                else:
                    message = (
                        f"{qualname} nests 'self.{canon}' under "
                        f"'self.{other}'{suffix} with no declared order — "
                        f"declare '# lock-order: {other} < {canon}' or restructure"
                    )
                findings.append(Finding(module.relpath, line, ORDER_CODE, message))
    return findings


def check_module(module: ParsedModule, config: LintConfig) -> list[Finding]:
    if module.relpath not in config.lock_modules:
        return []
    findings: list[Finding] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        guarded = collect_guarded_declarations(module, node)
        info = _class_info(node)
        if not guarded and not info.locks:
            continue
        methods: dict[str, _LockWalker] = {}
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            walker = _LockWalker()
            walker.walk_body(stmt.body, frozenset())
            methods[stmt.name] = walker
            if guarded:
                findings.extend(_check_guards(module, node.name, stmt, walker, guarded))
        if info.locks:
            findings.extend(_check_order(module, info, methods))
    return findings
