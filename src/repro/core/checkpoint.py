"""Durability layer under the fleet path: staged results + shard journal.

A crash anywhere in a large fleet run used to lose the whole run.  This
module makes fleet execution *crash-safe* with two small, append-only
on-disk structures that :class:`repro.core.fleet.FleetExecutor` maintains
in its ``checkpoint_dir``:

:class:`RunStager`
    Persists each completed shard's :class:`~repro.core.runtime.RunResult`
    records as one ``shard-NNNN.bin`` file plus a ``manifest.json`` index.
    The shard file is *columnar*: each per-window field is stored once,
    concatenated across the shard's records, behind a small metadata
    block that splits them back — one flat file instead of one archive
    per record, written straight from the records' array buffers.  Every
    write is *atomic* (temp file in the target directory, ``os.replace``),
    so a crash mid-write can never leave a half-visible record — the file
    either has its old content or its new content.  The manifest carries
    the file size, a checksum of the metadata block and per-record
    checksums over the columns, so every byte the loader reads is hashed
    exactly once; :meth:`RunStager.load_shard` verifies them and raises
    :class:`StagedShardError` on any mismatch, so silent corruption is
    re-executed rather than loaded.

:class:`FleetJournal`
    Tracks per-shard lifecycle (``PENDING -> RUNNING -> DONE/FAILED``)
    together with a *fleet fingerprint* — a hash over the subject/shard
    layout, the constraint, the zoo, the dtype, the hardware and the
    prediction costs the run can look up.  A restarted run resumes only
    when the fingerprint matches; a stale journal (different fleet,
    different costs) is discarded and the run starts clean instead of
    resuming into wrong results.

Both structures live in one directory and are written only by the
coordinating (parent) process; workers never touch disk.  Resume
equivalence — a resumed run being bit-identical to an uninterrupted one —
is guaranteed by the executor's existing plan-once/fast-forward
machinery and pinned by the property suite.
"""

from __future__ import annotations

import hashlib
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
    "atomic_write_buffers",
    "atomic_write_bytes",
    "atomic_write_text",
    "sha256_hex",
]

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.json"

_FORMAT_VERSION = 2

#: Shard-file column holding the model-name codes.
_CODES = "model_codes"
#: Byte alignment of the first column of a shard file.
_ALIGN = 16


class StagedShardError(RuntimeError):
    """A staged shard is missing, torn, or fails checksum verification."""


def sha256_hex(data: bytes) -> str:
    """Checksum used for every staged record and manifest entry."""
    return hashlib.sha256(data).hexdigest()


def atomic_write_buffers(path: Path, buffers: Sequence) -> None:
    """Write ``buffers`` back to back to ``path`` atomically (temp file + ``os.replace``).

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
            handle.writelines(buffers)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed replace
            os.unlink(tmp)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """:func:`atomic_write_buffers` for one ``bytes`` object."""
    atomic_write_buffers(path, [data])


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
    the model-name sequence (as codes into its sorted name table, see
    :func:`_encode_names`), and the configuration reprs — the same
    function runs at staging time (on the executed record) and at load
    time (on the reconstructed record), so any bit that fails to survive
    the columnar round trip fails verification.
    """
    return _record_checksum(result, *_encode_names(result.model_names))


def _encode_names(names: np.ndarray) -> tuple[list[str], np.ndarray]:
    """A model-name sequence as ``(table, codes)`` with ``table[codes] == names``.

    ``table`` is the sorted distinct names, ``codes`` the narrowest
    unsigned integer array.  A zoo holds a handful of names, so one
    equality mask per name keeps the work in C loops; a fixed-width
    unicode copy of the sequence would cost a per-element conversion and
    ~10x the bytes to hash and stage.
    """
    table = sorted(set(names.tolist()))
    codes = np.zeros(len(names), dtype=np.min_scalar_type(max(len(table) - 1, 0)))
    for code, name in enumerate(table[1:], start=1):
        codes[names == name] = code
    return table, codes


def _record_checksum(result: RunResult, table: list[str], codes: np.ndarray) -> str:
    """:func:`record_checksum` given the record's encoded model names.

    Arrays are hashed through their buffers (no ``tobytes`` copies);
    :meth:`RunStager.stage_shard` passes the encoding it already built
    for the archive.
    """
    digest = hashlib.sha256()
    for name in _NPZ_ARRAY_FIELDS:
        array = np.ascontiguousarray(getattr(result, name))
        digest.update(array.dtype.str.encode("utf-8"))
        digest.update(array)
    digest.update(json.dumps(table).encode("utf-8"))
    digest.update(codes.dtype.str.encode("utf-8"))
    digest.update(codes)
    digest.update(repr(result.configuration).encode("utf-8"))
    for start, configuration in result.configuration_segments:
        digest.update(str(int(start)).encode("utf-8"))
        digest.update(repr(configuration).encode("utf-8"))
    return digest.hexdigest()


class RunStager:
    """Append-only on-disk store of per-shard fleet results.

    One ``shard-NNNN.bin`` file per staged shard, in columnar layout:
    every per-window field of :class:`RunResult` is stored as a single
    column concatenated across the shard's records (model names as
    integer codes into a shard-wide name table).  The metadata block in
    front holds two little-endian ``uint64`` sizes, a JSON header
    (subject ids, record lengths, name table, segment starts, and each
    column's name, dtype and length) and one pickled blob with the
    configuration objects, zero-padded to :data:`_ALIGN` bytes; the
    columns follow widest dtype first, so each starts aligned.  One file
    is self-contained and loads without consulting other shards.  The
    ``manifest.json`` index maps shard index to file name, size,
    metadata checksum, and per-record checksums (see
    :func:`record_checksum`).
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
        return self.directory / f"shard-{shard:04d}.bin"

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
        # Model names are stored as codes into one shard-wide name table;
        # each record's own encoding (which its checksum covers) maps
        # onto it through a per-record lookup.
        encoded = [_encode_names(r.model_names) for r in records]
        table = sorted({name for names, _ in encoded for name in names})
        index = {name: code for code, name in enumerate(table)}
        code_dtype = np.min_scalar_type(max(len(table) - 1, 0))
        columns = {
            name: [np.asarray(getattr(r, name)) for r in records]
            for name in _NPZ_ARRAY_FIELDS
        }
        columns[_CODES] = [
            np.array([index[name] for name in names], dtype=code_dtype)[codes]
            for names, codes in encoded
        ]
        typed = [
            (name, np.result_type(*parts) if parts else np.dtype(np.int64), parts)
            for name, parts in columns.items()
        ]
        fields, buffers = [], []
        # Widest items first: with the metadata padded to _ALIGN, every
        # column then starts aligned for its dtype.
        for name, dtype, parts in sorted(typed, key=lambda column: -column[1].itemsize):
            fields.append([name, dtype.str, sum(part.size for part in parts)])
            buffers.extend(np.ascontiguousarray(part, dtype=dtype) for part in parts)
        header = json.dumps(
            {
                "subject_ids": [sid for sid, _ in results],
                "lengths": [int(r.n_windows) for r in records],
                "model_table": table,
                "segment_starts": [
                    [int(start) for start, _ in r.configuration_segments] for r in records
                ],
                "fields": fields,
            }
        ).encode("utf-8")
        blob = pickle.dumps(
            [
                (r.configuration, [cfg for _, cfg in r.configuration_segments])
                for r in records
            ],
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        meta = len(header).to_bytes(8, "little") + len(blob).to_bytes(8, "little")
        meta += header + blob
        meta += bytes(-len(meta) % _ALIGN)
        faults.fire("stager.write", shard=shard)
        path = self.shard_path(shard)
        atomic_write_buffers(path, [meta, *buffers])
        self._manifest["shards"][str(shard)] = {
            "file": path.name,
            "size": len(meta) + sum(buffer.nbytes for buffer in buffers),
            "meta_size": len(meta),
            "checksum": sha256_hex(meta),
            "n_records": len(results),
            "subject_ids": [sid for sid, _ in results],
            "record_checksums": [
                _record_checksum(r, names, codes)
                for r, (names, codes) in zip(records, encoded)
            ],
        }
        self._write_manifest()
        return path

    def load_shard(self, shard: int) -> list[tuple[str, RunResult]]:
        """Load and verify one staged shard (bit-identical to what was staged).

        Raises :class:`StagedShardError` when the shard was never staged,
        its file is missing, or any check fails: the file size, the
        metadata checksum (verified before anything in the file is
        parsed), the range of the model-name codes or a per-record
        checksum — the caller re-executes the shard instead of trusting
        it.
        """
        entry = self._manifest["shards"].get(str(shard))
        if entry is None:
            raise StagedShardError(f"shard {shard} was never staged")
        path = self.directory / entry["file"]
        try:
            data = bytearray(path.read_bytes())
        except OSError as exc:
            raise StagedShardError(f"staged file for shard {shard} unreadable: {exc}") from exc
        meta = int(entry["meta_size"])
        if len(data) != entry["size"] or sha256_hex(memoryview(data)[:meta]) != entry["checksum"]:
            raise StagedShardError(
                f"staged file for shard {shard} fails its checksum (torn or corrupt)"
            )
        try:
            header_size = int.from_bytes(data[:8], "little")
            blob_size = int.from_bytes(data[8:16], "little")
            header = json.loads(data[16 : 16 + header_size])
            configurations = pickle.loads(
                data[16 + header_size : 16 + header_size + blob_size]
            )
            arrays, offset = {}, meta
            for name, dtype, count in header["fields"]:
                arrays[name] = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
                offset += arrays[name].nbytes
            subject_ids = header["subject_ids"]
            model_table = np.array(header["model_table"], dtype=object)
        except (KeyError, TypeError, ValueError, EOFError, pickle.UnpicklingError) as exc:
            raise StagedShardError(f"staged file for shard {shard} unparsable: {exc}") from exc
        # The columns are only verified by the per-record checksums, after
        # reconstruction; the name codes are the one column whose values
        # are used before then (as indices), so bit rot there must fail
        # here rather than as an IndexError.
        if arrays[_CODES].size and int(arrays[_CODES].max()) >= len(model_table):
            raise StagedShardError(
                f"staged file for shard {shard} holds an out-of-range model-name code"
            )
        if subject_ids != list(entry["subject_ids"]) or len(configurations) != len(
            subject_ids
        ):
            raise StagedShardError(f"staged shard {shard} holds the wrong subjects")
        offsets = np.concatenate([[0], np.cumsum(header["lengths"], dtype=np.int64)])
        results: list[tuple[str, RunResult]] = []
        for index, subject_id in enumerate(subject_ids):
            lo, hi = int(offsets[index]), int(offsets[index + 1])
            configuration, segment_configs = configurations[index]
            result = RunResult(
                configuration=configuration,
                model_names=model_table[arrays[_CODES][lo:hi]],
                configuration_segments=list(
                    zip(header["segment_starts"][index], segment_configs)
                ),
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
    the hardware and the prediction costs.  A journal whose
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
    ) -> bool:
        """Bind the journal to a run; returns ``True`` when resuming.

        Resuming requires an existing journal whose fingerprint and shard
        count match the current run; anything else (no journal, foreign
        fleet, different costs, changed shard layout) starts a fresh
        journal with every shard ``PENDING``.
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
