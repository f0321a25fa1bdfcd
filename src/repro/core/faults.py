"""Deterministic fault injection for the fleet durability layer.

The recovery paths of :mod:`repro.core.checkpoint` and
:class:`repro.core.fleet.FleetExecutor` (retry, quarantine, resume,
checksum re-execution) are only trustworthy if every one of them has a
*forced-failure* test — a test that makes the fault actually happen and
asserts the recovery, rather than hoping the happy path generalizes.
This module is the switchboard those tests flip.

Design
------
A :class:`FaultPlan` is a directory of *token files*, one per armed
fault.  Production code calls :func:`fire` at a few named injection
sites (``"fleet.shard"`` in the pool worker, ``"stager.write"`` before a
staging commit, ``"scheduler.batch"`` before batch execution); firing a
site consumes one matching token via :func:`os.unlink` — which is atomic
on every supported platform — and then acts.  Because consumption is a
filesystem operation, a fault fires **exactly once** no matter which
process hits the site first: pool workers (forked or respawned after a
worker death) share the token directory, not in-memory counters that a
re-fork would silently re-arm.

With no plan activated, :func:`fire` is a no-op costing one module-level
``None`` check — the production hot paths pay nothing.

Fault kinds
-----------
``"exception"``
    Raise :class:`InjectedFault` at the site (a shard task or batch
    failing mid-execution).
``"exit"``
    ``os._exit(WORKER_EXIT_CODE)`` — an abrupt worker death.  In a
    process pool the parent observes ``BrokenProcessPool``; the fleet
    executor must rebuild the pool and retry.

Two further helpers damage durable state directly (no injection site
needed): :func:`corrupt_staged_shard` tears or bit-flips a staged shard
file, and :func:`stale_journal` rewrites a journal's fingerprint so a
resume must treat it as belonging to a different fleet.

Retry policy
------------
Every recovery loop that re-executes failed work — the fleet executor's
serial and pooled shard runners and the scheduler's batch retries —
sleeps :func:`backoff_delay` between attempts: capped exponential
backoff, at most :data:`BACKOFF_CAP_S` per sleep.
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = [
    "InjectedFault",
    "FaultPlan",
    "WORKER_EXIT_CODE",
    "activate",
    "deactivate",
    "fire",
    "injected_faults",
    "corrupt_staged_shard",
    "stale_journal",
    "BACKOFF_CAP_S",
    "backoff_delay",
]

#: Upper bound on one retry backoff sleep, whatever the attempt count.
BACKOFF_CAP_S = 2.0

#: Exit status of an injected ``"exit"`` fault — distinctive enough to
#: recognize in a crashed worker's status, unlike a generic 1.
WORKER_EXIT_CODE = 87

#: Environment variable carrying the active plan's directory so injection
#: sites in *worker processes* (including pools rebuilt after a worker
#: death, and spawn-start-method workers that inherit no module globals)
#: see the same plan as the parent.
_ENV_VAR = "REPRO_FAULT_PLAN_DIR"

_TOKEN_SUFFIX = ".fault"

_KINDS = ("exception", "exit")


class InjectedFault(RuntimeError):
    """Raised by an armed ``"exception"`` fault at its injection site."""

    def __init__(self, site: str, shard: int | None) -> None:
        at = f" (shard {shard})" if shard is not None else ""
        super().__init__(f"injected fault at {site!r}{at}")
        self.site = site
        self.shard = shard

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) into ``__init__``, which takes (site, shard) — a pool
        # worker's InjectedFault would fail to unpickle in the parent and
        # break the whole pool.  Reconstruct from the real fields instead.
        return (type(self), (self.site, self.shard))


class FaultPlan:
    """A directory-backed, exactly-once schedule of injected faults."""

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        self._seq = itertools.count()

    # -------------------------------------------------------------- arming
    def arm(
        self,
        site: str,
        shard: int | None = None,
        times: int = 1,
        kind: str = "exception",
    ) -> None:
        """Arm ``times`` one-shot faults at ``site``.

        ``shard`` restricts the fault to one shard index; ``None`` arms a
        wildcard that matches any firing of the site.  ``kind`` selects
        the action (see the module docstring).
        """
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        if kind not in _KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; expected one of {_KINDS}")
        if "@" in site or "/" in site:
            raise ValueError(f"site name {site!r} may not contain '@' or '/'")
        self.directory.mkdir(parents=True, exist_ok=True)
        shard_tag = "any" if shard is None else str(int(shard))
        for _ in range(times):
            while True:
                name = f"{site}@{shard_tag}@{kind}@{next(self._seq):04d}{_TOKEN_SUFFIX}"
                try:
                    fd = os.open(
                        self.directory / name, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                    )
                except FileExistsError:
                    continue
                os.close(fd)
                break

    def armed(self, site: str | None = None) -> int:
        """Number of unconsumed tokens (optionally of one site)."""
        if not self.directory.is_dir():
            return 0
        tokens = self.directory.glob(f"*{_TOKEN_SUFFIX}")
        if site is None:
            return sum(1 for _ in tokens)
        return sum(1 for t in tokens if t.name.split("@", 1)[0] == site)

    # -------------------------------------------------------------- firing
    def fire(self, site: str, shard: int | None = None) -> None:
        """Consume one matching token and act on it (no-op when none match).

        A token matches when its site equals ``site`` and its shard tag is
        the wildcard or equals ``shard``.  Consumption (``os.unlink``) is
        atomic, so concurrent firings from several processes consume
        distinct tokens.
        """
        if not self.directory.is_dir():
            return
        for token in sorted(self.directory.glob(f"*{_TOKEN_SUFFIX}")):
            try:
                token_site, shard_tag, kind, _ = token.name.split("@", 3)
            except ValueError:  # pragma: no cover - foreign file in the dir
                continue
            if token_site != site:
                continue
            if shard_tag != "any" and (shard is None or int(shard_tag) != shard):
                continue
            try:
                os.unlink(token)
            except FileNotFoundError:
                continue  # another process consumed it first
            self._act(kind, site, shard)
            return

    @staticmethod
    def _act(kind: str, site: str, shard: int | None) -> None:
        if kind == "exit":
            os._exit(WORKER_EXIT_CODE)
        raise InjectedFault(site, shard)


#: The plan activated in this process; worker processes fall back to the
#: environment variable (see ``_ENV_VAR``).
_ACTIVE: FaultPlan | None = None


def activate(plan: FaultPlan) -> None:
    """Install ``plan`` process-wide and export it to child processes."""
    global _ACTIVE
    _ACTIVE = plan
    os.environ[_ENV_VAR] = str(plan.directory)


def deactivate() -> None:
    """Remove the active plan (idempotent)."""
    global _ACTIVE
    _ACTIVE = None
    os.environ.pop(_ENV_VAR, None)


@contextmanager
def injected_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager: activate ``plan`` for the duration of the block."""
    activate(plan)
    try:
        yield plan
    finally:
        deactivate()


def fire(site: str, shard: int | None = None) -> None:
    """Fire an injection site against the active plan (no-op when idle)."""
    plan = _ACTIVE
    if plan is None:
        directory = os.environ.get(_ENV_VAR)
        if directory is None:
            return
        plan = FaultPlan(directory)
    plan.fire(site, shard)


# ---------------------------------------------------------- retry policy
def backoff_delay(base_s: float, attempt: int) -> float:
    """Sleep before retry number ``attempt`` (0-based), in seconds.

    ``min(BACKOFF_CAP_S, base_s * 2**attempt)``; a non-positive base
    disables the sleep.
    """
    if base_s <= 0:
        return 0.0
    return min(BACKOFF_CAP_S, base_s * (2.0 ** attempt))


# -------------------------------------------------- durable-state damage
def corrupt_staged_shard(
    checkpoint_dir: "str | Path", shard: int, mode: str = "truncate"
) -> Path:
    """Damage a staged shard file in place (simulated torn write / bit rot).

    ``mode="truncate"`` drops the second half of the file (a torn write
    that somehow survived — e.g. media failure after the rename);
    ``mode="flip"`` inverts one byte in the middle and ``mode="flip_last"``
    the final byte (silent corruption).  Either way the stager must
    reject the shard on load.
    Returns the damaged path.
    """
    from repro.core.checkpoint import RunStager  # checkpoint imports this module

    path = RunStager(checkpoint_dir).shard_path(shard)
    if not path.exists():
        raise FileNotFoundError(f"no staged shard file at {path}")
    data = path.read_bytes()
    if mode == "truncate":
        damaged = data[: max(1, len(data) // 2)]
    elif mode == "flip":
        mid = len(data) // 2
        damaged = data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1 :]
    elif mode == "flip_last":
        damaged = data[:-1] + bytes([data[-1] ^ 0xFF])
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    path.write_bytes(damaged)
    return path


def stale_journal(checkpoint_dir: "str | Path") -> Path:
    """Rewrite a journal's fleet fingerprint so it no longer matches.

    Simulates resuming against durable state left by a *different* fleet
    (changed subjects, constraint, zoo or cost tables): the journal must
    be treated as stale and every shard re-executed.
    """
    path = Path(checkpoint_dir) / "journal.json"
    if not path.exists():
        raise FileNotFoundError(f"no journal at {path}")
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["fingerprint"] = "stale-" + str(payload.get("fingerprint", ""))[:16]
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path
