"""repro.analysis — repo-specific AST invariant linter.

Several PRs of engine work rest on conventions no generic linter knows
about: locked dispatcher state, vectorized hot paths, scalar/batch
bit-identity twins, an explicit fleet-batching flag, an inference path
that must not silently re-promote to float64, durable state that
must only be committed atomically, a declared lock ordering on the
threaded modules, and resources whose lifetime must not leak on
exception paths.  This package enforces them statically.  Run it as::

    PYTHONPATH=src python -m repro.analysis                 # text report, exit 1 on new findings
    PYTHONPATH=src python -m repro.analysis --format json   # machine-readable report
    PYTHONPATH=src python -m repro.analysis --format github # ::error annotations for CI
    PYTHONPATH=src python -m repro.analysis --format sarif  # SARIF 2.1.0 for code-scanning UIs
    PYTHONPATH=src python -m repro.analysis --write-baseline   # grandfather current findings

or, once the package is installed, as the ``repro-lint`` console
script.  It is also gated in tier-1 via
``tests/analysis/test_lint_clean.py``.

One-pass architecture
---------------------

The engine parses every module once (``ast`` plus the ``tokenize``-read
pragmas; parses are cached per file on ``(mtime, size)`` — see
:func:`clear_caches` — so a warm whole-repo run is mostly stat calls)
and hands each parsed module to the per-module checkers: REP001-REP003,
REP005, REP008, and REP006, which shares REP002's held-lock walker and
follows ``self.<method>()`` calls within one class.  The one
project-level check, REP004, then sees every module at once because a
predictor's base class and its scalar/batch twins may live in other
files.  No call graph is built: each rule flags a fact where it is
made, not where a caller uses it.

Rule catalogue
--------------

``REP001`` dtype discipline (inference modules only — see
    ``engine.DEFAULT_DTYPE_MODULES``).  Flags dtype-less
    ``np.zeros/empty/ones/full/array/arange`` allocations (they default
    to float64); allocations pinned to float64 by a ``dtype=float``,
    ``"float64"``, ``"f8"`` or ``"double"`` keyword (also on
    ``asarray``/``linspace``), flagged where the pin is made so a
    helper returning such an array is caught before any caller
    consumes it; any ``np.float64`` reference; and
    ``.astype(float)``-style re-promoting casts.
    ``np.asarray(<parameter>, dtype=float)`` coercing *caller input* at
    a public boundary is allowed; the ``*_like`` allocators inherit
    dtype and are never flagged.  New scratch arrays must inherit their
    dtype from the data they hold; a deliberate float64 contract (the
    BPM conversion from integer peak positions) carries
    ``# lint-ok: REP001``.

``REP002`` lock discipline (threaded modules only — see
    ``engine.DEFAULT_LOCK_MODULES``).  An attribute declared with a
    trailing ``# guarded-by:`` pragma may only be touched inside a
    lexically enclosing ``with self.<lock>:`` block (``__init__`` and
    ``# unguarded-ok`` methods excepted — see the pragma grammar).

``REP003`` hot-path purity (any module).  A function marked
    ``# hot-path`` must stay vectorized: no ``for``/``while`` statements
    (unless blessed with ``# loop-ok``), no ``np.append``, no
    list-``.append`` accumulation inside a loop.

``REP004`` equivalence contracts (whole scan root).  Every
    ``HeartRatePredictor`` subclass must assign ``FLEET_BATCHABLE`` in
    its own class body; every ``predict_fleet``
    override must handle ``FleetState`` stacks (call
    ``_check_fleet_stack`` or delegate to ``super().predict_fleet``);
    and every scalar/batch twin pair in the registry
    (``engine.DEFAULT_BATCH_TWINS``) must exist with matching defaults
    for shared defaulted parameters.

``REP005`` persistence atomicity (durable-state modules only — see
    ``engine.DEFAULT_PERSISTENCE_MODULES``).  Durable state must be
    committed through the atomic temp-file-then-``os.replace`` helpers:
    flags bare write-mode ``open()`` calls and direct
    ``.write_text()``/``.write_bytes()`` calls outside functions named
    ``atomic_*``/``_atomic*`` — a torn journal or manifest would be
    silently trusted by the next resumed run.

``REP006`` lock-order discipline (threaded modules only — see
    ``engine.DEFAULT_LOCK_MODULES``).  Every mutex attribute in these
    modules must be registered with a ``# lock-order:`` pragma, and
    nested acquisitions — direct ``with`` blocks, bare ``.acquire()``,
    or locks taken inside a called self-method of the same class
    (closed transitively) — must follow the declared partial order.
    Also flags cyclic or self-aliasing declarations, and re-entrant
    acquisition of a non-reentrant lock (``RLock``-rooted mutexes,
    including argless ``Condition()``, are exempt from re-entry): e.g. a
    method that holds ``self._lock`` and calls a same-class method that
    takes it again is only safe on an ``RLock``.  Helper-call
    acquisitions are attributed to the call site with a ``via`` note.

``REP008`` resource lifecycle (lifecycle modules only — see
    ``engine.DEFAULT_LIFECYCLE_MODULES``).  ``SharedMemory``, executor
    pools, bare ``open()`` and ``tempfile`` constructors must be
    released on every path: a with-block, a try/finally releasing the
    bound name (``close``/``shutdown``/``unlink``/``terminate``/
    ``cleanup``/``release``), or an explicit ``# lifecycle-ok:``
    ownership-transfer pragma.

Pragma grammar
--------------

All pragmas are trailing comments read via :mod:`tokenize`; a pragma
must start the comment.  On multi-line statement headers the pragma may
sit on any header line (``def`` line through the line before the body).

``# guarded-by: <lock>[, <lock>...]``
    On a ``self._x`` assignment (usually in ``__init__``): declares the
    attribute guarded.  Extra names are *aliases* of one mutex — e.g.
    ``threading.Condition`` objects built around the same lock; holding
    any listed name satisfies the guard.

``# unguarded-ok[: <attr>[, <attr>...]]``
    On a ``def`` line: exempts the method from REP002 — entirely when
    bare, or only for the named attributes.  Used for
    caller-holds-the-lock helpers and documented set-once reads.

``# hot-path``
    On a ``def`` line: opts the function into REP003.

``# loop-ok[: <reason>]``
    On a ``for``/``while`` header inside a hot-path function: blesses
    that loop and its body (for intentionally coarse-grained loops —
    per-chunk, per-axis, lock-step over stream steps).

``# lint-ok[: <CODE>[, <CODE>...]]``
    On any finding's anchor line: suppresses the finding inline (all
    codes when bare).  Prefer this over baselining for one-off,
    justified exceptions.

``# lock-order: <lock>[ < <lock>...][, <chain>...]``
    Anywhere inside a class body (conventionally on the mutex
    declaration or as a leading class-body comment): registers mutexes
    for REP006 and optionally declares ordering chains.  A bare name
    registers without ordering; ``_meta < _data < _log`` declares a
    chain; commas separate independent chains.  Names are canonicalized
    (a ``Condition(self._lock)`` alias may be written as either name).

``# lifecycle-ok[: <reason>]``
    On a resource constructor's line (anywhere in a multi-line call):
    exempts it from REP008, documenting an ownership transfer — the
    resource is stored for a named releaser, or handed to the caller.

Baselining
----------

Pre-existing findings are grandfathered in ``baseline.json`` next to
this file.  Entries match on ``(file, code, message)`` — line numbers
are excluded so unrelated line churn cannot invalidate them — with
multiset semantics (two identical findings need two entries).  A
baseline entry that no longer matches anything is reported as *stale*
so the file shrinks as debt is paid down.  To accept new debt
deliberately, run ``python -m repro.analysis --write-baseline`` and
commit the regenerated file; the tier-1 gate only fails on findings
that are neither fixed, inline-suppressed, nor baselined.

The baseline is currently **empty**: the last grandfathered entries
(float64 training-path allocations in ``nn/layers.py``) were
parameterized away by the float32/int8 engine, so today every finding
in a scanned module fails tier-1 outright — keep it that way.
"""

from repro.analysis.engine import (
    RULE_DESCRIPTIONS,
    BatchTwin,
    Finding,
    LintConfig,
    LintReport,
    clear_caches,
    default_config,
    format_github,
    format_json,
    format_sarif,
    format_text,
    load_baseline,
    run_lint,
    write_baseline,
)

__all__ = [
    "RULE_DESCRIPTIONS",
    "BatchTwin",
    "Finding",
    "LintConfig",
    "LintReport",
    "clear_caches",
    "default_config",
    "format_github",
    "format_json",
    "format_sarif",
    "format_text",
    "load_baseline",
    "run_lint",
    "write_baseline",
]
