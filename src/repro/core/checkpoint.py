"""Durability layer under the fleet path: staged results + shard journal.

A crash anywhere in a large fleet run used to lose the whole run.  This
module makes fleet execution *crash-safe* with two small, append-only
on-disk structures that :class:`repro.core.fleet.FleetExecutor` maintains
in its ``checkpoint_dir``:

:class:`RunStager`
    Persists each completed shard's :class:`~repro.core.runtime.RunResult`
    records as one ``shard-NNNN.npz`` file plus a ``manifest.json`` index.
    The shard archive is *columnar*: each per-window field is stored once,
    concatenated across the shard's records, with a ``lengths`` array to
    split them back — one flat npz instead of one archive per record, so
    staging a 10 MB shard costs a handful of large array writes rather
    than hundreds of small ones.  Every write is *atomic* (temp file in
    the target directory, ``os.replace``), so a crash mid-write can never
    leave a half-visible record — the file either has its old content or
    its new content.  The manifest carries a whole-file checksum and
    per-record checksums; :meth:`RunStager.load_shard` verifies them and
    raises :class:`StagedShardError` on any mismatch, so silent
    corruption is re-executed rather than loaded.

:class:`FleetJournal`
    Tracks per-shard lifecycle (``PENDING -> RUNNING -> DONE/FAILED``)
    together with a *fleet fingerprint* — a hash over the subject/shard
    layout, the constraint, the zoo, the dtype and the cost
    registry snapshot (:meth:`repro.hw.platform.CostTableRegistry.fingerprint`).
    A restarted run resumes only when the fingerprint matches; a stale
    journal (different fleet, different tables) is discarded and the run
    starts clean instead of resuming into wrong results.

Both structures live in one directory and are written only by the
coordinating (parent) process; workers never touch disk.  Resume
equivalence — a resumed run being bit-identical to an uninterrupted one —
is guaranteed by the executor's existing plan-once/fast-forward
machinery and pinned by the property suite.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

import repro.core.faults as faults
from repro.core.runtime import RunResult, _NPZ_ARRAY_FIELDS

__all__ = [
    "StagedShardError",
    "ShardStatus",
    "RunStager",
    "FleetJournal",
    "atomic_write_bytes",
    "atomic_write_text",
    "sha256_hex",
]

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.json"

_FORMAT_VERSION = 1


class StagedShardError(RuntimeError):
    """A staged shard is missing, torn, or fails checksum verification."""


def sha256_hex(data: bytes) -> str:
    """Checksum used for every staged record and manifest entry."""
    return hashlib.sha256(data).hexdigest()


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the target directory so the final rename never
    crosses a filesystem boundary: after a *process* crash the path holds
    either the previous content or the full new content — never a torn
    prefix.  The write is deliberately **not** fsynced: an OS crash could
    at worst leave a renamed-but-empty file or a stale journal entry,
    both of which the durability layer already treats as "re-execute this
    shard" (checksum verification rejects the bytes, a behind-reality
    journal only forgets progress) — it can never load wrong results.
    Skipping the sync keeps the per-shard durability tax to buffered
    writes instead of forced disk flushes.  This is the one blessed write
    path of the persistence layer (lint rule REP005 flags bare
    ``open(..., "w")`` writes outside the ``atomic_*`` helpers).
    """
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed replace
            os.unlink(tmp)


def atomic_write_text(path: Path, text: str) -> None:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    atomic_write_bytes(path, text.encode("utf-8"))


def _load_json(path: Path) -> dict | None:
    """Best-effort read of a JSON structure (``None`` when absent/corrupt).

    Durable metadata is written atomically, so a corrupt file means
    foreign damage; the durability layer degrades to "nothing staged"
    instead of refusing to run.
    """
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


# ----------------------------------------------------------------- stager
def record_checksum(result: RunResult) -> str:
    """Canonical checksum of one :class:`RunResult`'s content.

    Computed over the raw bytes and dtypes of every per-window array,
    the model-name sequence, and the configuration reprs — the same
    function runs at staging time (on the executed record) and at load
    time (on the reconstructed record), so any bit that fails to survive
    the columnar round trip fails verification.
    """
    # Model names hash as a fixed-width unicode array: object -> str picks
    # the record-local width, so the staged record and its columnar
    # reconstruction canonicalize to identical bytes.
    return _record_checksum(result, result.model_names.astype(str))


def _record_checksum(result: RunResult, names: np.ndarray) -> str:
    """:func:`record_checksum` given the record's fixed-width ``names``.

    Arrays are hashed through their buffers (no ``tobytes`` copies);
    :meth:`RunStager.stage_shard` passes the names it already converted
    for the archive.
    """
    digest = hashlib.sha256()
    for name in _NPZ_ARRAY_FIELDS:
        array = np.ascontiguousarray(getattr(result, name))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(array)
    digest.update(str(names.dtype).encode("utf-8"))
    digest.update(names)
    digest.update(repr(result.configuration).encode("utf-8"))
    for start, configuration in result.configuration_segments:
        digest.update(str(int(start)).encode("utf-8"))
        digest.update(repr(configuration).encode("utf-8"))
    return digest.hexdigest()


class RunStager:
    """Append-only on-disk store of per-shard fleet results.

    One ``shard-NNNN.npz`` file per staged shard, in columnar layout:
    every per-window field of :class:`RunResult` is stored as a single
    array concatenated across the shard's records, next to a ``lengths``
    array that splits them back per subject and one pickled blob holding
    the configuration objects.  One file is self-contained and loads
    without consulting other shards.  The ``manifest.json`` index maps
    shard index to file name, whole-file checksum, and per-record
    checksums (see :func:`record_checksum`).
    """

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = _load_json(self.directory / MANIFEST_NAME)
        if manifest is None or manifest.get("version") != _FORMAT_VERSION:
            manifest = {"version": _FORMAT_VERSION, "shards": {}}
        self._manifest: dict = manifest

    # ------------------------------------------------------------- layout
    def shard_path(self, shard: int) -> Path:
        return self.directory / f"shard-{shard:04d}.npz"

    def staged_shards(self) -> list[int]:
        """Shard indices with a manifest entry, ascending."""
        return sorted(int(key) for key in self._manifest["shards"])

    # ------------------------------------------------------------- staging
    def stage_shard(
        self, shard: int, results: Sequence[tuple[str, RunResult]]
    ) -> Path:
        """Persist one completed shard's ``(subject_id, result)`` records.

        The shard file is committed first (atomically), then the manifest
        entry: a crash between the two leaves an orphan file that the
        manifest never references — harmless, re-staged on the next run.
        """
        records = [result for _, result in results]
        payload: dict[str, np.ndarray] = {
            "lengths": np.array([r.n_windows for r in records], dtype=np.int64),
        }
        for name in _NPZ_ARRAY_FIELDS:
            parts = [getattr(r, name) for r in records]
            payload[name] = (
                np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
            )
        name_parts = [r.model_names.astype(str) for r in records]
        payload["model_names"] = (
            np.concatenate(name_parts) if name_parts else np.zeros(0, dtype=str)
        )
        payload["segment_lengths"] = np.array(
            [len(r.configuration_segments) for r in records], dtype=np.int64
        )
        payload["segment_starts"] = np.array(
            [start for r in records for start, _ in r.configuration_segments],
            dtype=np.int64,
        )
        blob = pickle.dumps(
            [
                (r.configuration, [cfg for _, cfg in r.configuration_segments])
                for r in records
            ],
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        payload["configurations"] = np.frombuffer(blob, dtype=np.uint8)
        payload["subject_ids"] = np.array([sid for sid, _ in results], dtype=str)
        buffer = io.BytesIO()
        np.savez(buffer, **payload)
        data = buffer.getvalue()
        faults.fire("stager.write", shard=shard)
        path = self.shard_path(shard)
        atomic_write_bytes(path, data)
        self._manifest["shards"][str(shard)] = {
            "file": path.name,
            "checksum": sha256_hex(data),
            "n_records": len(results),
            "subject_ids": [sid for sid, _ in results],
            "record_checksums": [
                _record_checksum(r, names) for r, names in zip(records, name_parts)
            ],
        }
        self._write_manifest()
        return path

    def load_shard(self, shard: int) -> list[tuple[str, RunResult]]:
        """Load and verify one staged shard (bit-identical to what was staged).

        Raises :class:`StagedShardError` when the shard was never staged,
        its file is missing, or any checksum (whole file or per record)
        fails — the caller re-executes the shard instead of trusting it.
        """
        entry = self._manifest["shards"].get(str(shard))
        if entry is None:
            raise StagedShardError(f"shard {shard} was never staged")
        path = self.directory / entry["file"]
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise StagedShardError(f"staged file for shard {shard} unreadable: {exc}") from exc
        if sha256_hex(data) != entry["checksum"]:
            raise StagedShardError(
                f"staged file for shard {shard} fails its checksum (torn or corrupt)"
            )
        try:
            with np.load(io.BytesIO(data), allow_pickle=False) as archive:
                subject_ids = [str(sid) for sid in archive["subject_ids"]]
                lengths = archive["lengths"]
                arrays = {name: archive[name] for name in _NPZ_ARRAY_FIELDS}
                model_names = archive["model_names"]
                segment_lengths = archive["segment_lengths"]
                segment_starts = archive["segment_starts"]
                configurations = pickle.loads(archive["configurations"].tobytes())
        except (KeyError, ValueError, OSError, pickle.UnpicklingError) as exc:
            raise StagedShardError(f"staged file for shard {shard} unparsable: {exc}") from exc
        if subject_ids != list(entry["subject_ids"]) or len(configurations) != len(
            subject_ids
        ):
            raise StagedShardError(f"staged shard {shard} holds the wrong subjects")
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        seg_offsets = np.concatenate([[0], np.cumsum(segment_lengths)])
        results: list[tuple[str, RunResult]] = []
        for index, subject_id in enumerate(subject_ids):
            lo, hi = int(offsets[index]), int(offsets[index + 1])
            configuration, segment_configs = configurations[index]
            starts = segment_starts[int(seg_offsets[index]) : int(seg_offsets[index + 1])]
            result = RunResult(
                configuration=configuration,
                model_names=model_names[lo:hi].astype(object),
                configuration_segments=[
                    (int(start), cfg) for start, cfg in zip(starts, segment_configs)
                ],
                **{name: arrays[name][lo:hi] for name in _NPZ_ARRAY_FIELDS},
            )
            if record_checksum(result) != entry["record_checksums"][index]:
                raise StagedShardError(
                    f"record for subject {subject_id!r} in shard {shard} "
                    "fails its checksum"
                )
            results.append((subject_id, result))
        return results

    def discard_shard(self, shard: int) -> None:
        """Drop a shard's manifest entry and file (e.g. after corruption)."""
        self._manifest["shards"].pop(str(shard), None)
        self._write_manifest()
        path = self.shard_path(shard)
        if path.exists():
            os.unlink(path)

    def reset(self) -> None:
        """Forget every staged shard (stale journal / new fleet)."""
        for shard in self.staged_shards():
            path = self.shard_path(shard)
            if path.exists():
                os.unlink(path)
        self._manifest = {"version": _FORMAT_VERSION, "shards": {}}
        self._write_manifest()

    def _write_manifest(self) -> None:
        atomic_write_text(
            self.directory / MANIFEST_NAME, json.dumps(self._manifest, indent=1)
        )


# ---------------------------------------------------------------- journal
class ShardStatus(Enum):
    """Lifecycle of one shard in the journal."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


class FleetJournal:
    """Per-shard lifecycle journal keyed by a fleet fingerprint.

    The fingerprint hashes everything that determines the run's results:
    the per-shard subject layout, the constraint, the zoo, the dtype,
    and the cost-registry snapshot.  A journal whose
    fingerprint does not match the current run is *stale* and discarded;
    one that matches lets the executor trust ``DONE`` entries and
    re-execute only the rest.
    """

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._payload: dict = {}

    @property
    def path(self) -> Path:
        return self.directory / JOURNAL_NAME

    @staticmethod
    def fingerprint_of(payload: dict) -> str:
        """Stable hash of a JSON-serializable fingerprint payload."""
        return sha256_hex(json.dumps(payload, sort_keys=True).encode("utf-8"))

    def open_run(
        self,
        fingerprint_payload: dict,
        shard_subjects: Sequence[Sequence[str]],
        registry_snapshot: str,
    ) -> bool:
        """Bind the journal to a run; returns ``True`` when resuming.

        Resuming requires an existing journal whose fingerprint and shard
        count match the current run; anything else (no journal, foreign
        fleet, different tables, changed shard layout) starts a fresh
        journal with every shard ``PENDING``.  ``registry_snapshot`` (the
        cost registry's JSON dump) is stored alongside for inspection.
        """
        fingerprint = self.fingerprint_of(fingerprint_payload)
        existing = _load_json(self.path)
        if (
            existing is not None
            and existing.get("version") == _FORMAT_VERSION
            and existing.get("fingerprint") == fingerprint
            and len(existing.get("shards", [])) == len(shard_subjects)
        ):
            self._payload = existing
            return True
        self._payload = {
            "version": _FORMAT_VERSION,
            "fingerprint": fingerprint,
            "registry_snapshot": registry_snapshot,
            "shards": [
                {
                    "status": ShardStatus.PENDING.value,
                    "attempts": 0,
                    "error": None,
                    "subject_ids": list(subjects),
                }
                for subjects in shard_subjects
            ],
        }
        self._write()
        return False

    # ------------------------------------------------------------- queries
    def _require_open(self) -> list[dict]:
        if not self._payload:
            raise RuntimeError("journal not bound to a run; call open_run() first")
        return self._payload["shards"]

    def status(self, shard: int) -> ShardStatus:
        return ShardStatus(self._require_open()[shard]["status"])

    def statuses(self) -> list[ShardStatus]:
        return [ShardStatus(entry["status"]) for entry in self._require_open()]

    def shards_with(self, status: ShardStatus) -> list[int]:
        return [
            index
            for index, entry in enumerate(self._require_open())
            if entry["status"] == status.value
        ]

    def attempts(self, shard: int) -> int:
        return int(self._require_open()[shard]["attempts"])

    def subject_ids(self, shard: int) -> list[str]:
        return list(self._require_open()[shard]["subject_ids"])

    # ----------------------------------------------------------- lifecycle
    def mark(
        self,
        shard: int,
        status: ShardStatus,
        error: str | None = None,
        attempt: bool = False,
    ) -> None:
        """Record a shard transition (persisted atomically before returning)."""
        entry = self._require_open()[shard]
        entry["status"] = status.value
        entry["error"] = error
        if attempt:
            entry["attempts"] = int(entry["attempts"]) + 1
        self._write()

    def _write(self) -> None:
        atomic_write_text(self.path, json.dumps(self._payload, indent=1))
