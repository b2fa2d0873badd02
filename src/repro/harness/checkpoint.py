"""Crash-resumable studies: the on-disk study journal.

A study directory holds a checksummed ``manifest.json`` pinning the
simulator version, source digest, and scale, plus an append-only
``journal.jsonl`` where every grid cell logs a ``start`` line when
dispatched and a ``done`` line (carrying the full serialized result)
when finished. Each line is its own checksummed envelope, so a crash
mid-append leaves at most one corrupt tail line; loading skips (and
sidecars) corrupt lines instead of failing, then compact-rewrites the
journal atomically. ``--resume`` seeds every journaled-done cell
straight into the experiment context and re-runs cells that only
reached ``start`` — the figures of a killed-and-resumed study are
byte-identical to an uninterrupted one because each cell's simulation
is deterministic and runs either wholly before or wholly after the
crash.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import repro
from repro.config import SystemConfig
from repro.errors import CheckpointError
from repro.harness.diskcache import (
    ResultDiskCache,
    payload_checksum,
    source_digest,
)
from repro.metrics.export import result_from_json_dict, result_to_json_dict
from repro.metrics.report import RunResult

#: File names inside a study (checkpoint) directory.
MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"

#: Sidecar collecting raw corrupt journal lines (never re-read).
CORRUPT_SIDECAR = "journal.corrupt"

#: Version of the manifest/journal format; bump on shape changes.
JOURNAL_VERSION = 1


def cell_key(workload: str, scale_name: str, record_timelines: bool,
             config: SystemConfig) -> str:
    """Journal key of one grid cell (the disk cache's entry key).

    Reusing :meth:`ResultDiskCache.entry_key` folds the package version
    and source digest into the key, so a journal line can only ever be
    replayed into a bit-identical simulation setup — the same guarantee
    the result cache makes.
    """
    return ResultDiskCache.entry_key(
        workload, scale_name, record_timelines, config
    )


class StudyJournal:
    """Append-only, checksummed completion record of one study run.

    Open with :meth:`start` (fresh study; truncates any prior journal)
    or :meth:`resume` (verifies the manifest, loads done cells, and
    compact-rewrites the journal). Writers call :meth:`record_start`
    when a cell is dispatched and :meth:`record_done` when its result
    is in; each ``done`` line embeds the full serialized result, so
    resuming never re-simulates a finished cell.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self._done: dict[str, dict] = {}
        self._started: set[str] = set()
        #: journal lines dropped during load (crash-truncated tails,
        #: bit rot); their raw text lands in the corrupt sidecar.
        self.corrupt_lines = 0
        self._fh = None

    # ------------------------------------------------------------------
    # opening
    # ------------------------------------------------------------------
    @classmethod
    def start(cls, root: str | os.PathLike, scale_name: str,
              study: str) -> "StudyJournal":
        """Begin a fresh study: write the manifest, truncate the journal."""
        journal = cls(root)
        journal.root.mkdir(parents=True, exist_ok=True)
        manifest = journal._manifest_payload(scale_name, study)
        envelope = {
            "v": JOURNAL_VERSION,
            "checksum": payload_checksum(manifest),
            "payload": manifest,
        }
        tmp = journal.root / f"{MANIFEST_NAME}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(envelope, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, journal.root / MANIFEST_NAME)
        journal._fh = open(journal.root / JOURNAL_NAME, "w")
        return journal

    @classmethod
    def resume(cls, root: str | os.PathLike, scale_name: str,
               study: str) -> "StudyJournal":
        """Re-open an interrupted study after verifying its manifest.

        Raises :class:`~repro.errors.CheckpointError` when there is
        nothing to resume or the manifest pins a different simulator
        version, source tree, scale, or study — journaled results from
        a different setup must never seed this one.
        """
        journal = cls(root)
        manifest_path = journal.root / MANIFEST_NAME
        try:
            data = json.loads(manifest_path.read_text())
        except OSError:
            raise CheckpointError(
                f"nothing to resume: no {MANIFEST_NAME} under {journal.root}"
            ) from None
        except ValueError as exc:
            raise CheckpointError(
                f"unreadable study manifest {manifest_path}: {exc}"
            ) from exc
        if (
            not isinstance(data, dict)
            or data.get("checksum") != payload_checksum(data.get("payload"))
        ):
            raise CheckpointError(
                f"study manifest {manifest_path} failed its checksum"
            )
        recorded = data["payload"]
        expected = journal._manifest_payload(scale_name, study)
        for field in ("journal_version", "version", "source_digest",
                      "scale", "study"):
            if recorded.get(field) != expected[field]:
                raise CheckpointError(
                    f"cannot resume: manifest {field}="
                    f"{recorded.get(field)!r} does not match the current "
                    f"run's {expected[field]!r} (journaled results would "
                    "not be reproducible here)"
                )
        journal._load_and_compact()
        return journal

    @staticmethod
    def _manifest_payload(scale_name: str, study: str) -> dict:
        return {
            "journal_version": JOURNAL_VERSION,
            "version": repro.__version__,
            "source_digest": source_digest(),
            "scale": scale_name,
            "study": study,
        }

    def _load_and_compact(self) -> None:
        """Load journal lines, drop corrupt ones, rewrite atomically."""
        path = self.root / JOURNAL_NAME
        valid: list[str] = []
        corrupt: list[str] = []
        try:
            lines = path.read_text().splitlines()
        except OSError:
            lines = []
        for line in lines:
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                payload = data["payload"]
                if data.get("checksum") != payload_checksum(payload):
                    raise ValueError("checksum mismatch")
                kind = payload["kind"]
                key = payload["key"]
            except (ValueError, KeyError, TypeError):
                corrupt.append(line)
                continue
            if kind == "done":
                self._done[key] = payload["result"]
                valid.append(line)
            elif kind == "start":
                self._started.add(key)
                valid.append(line)
            else:
                corrupt.append(line)
        self.corrupt_lines = len(corrupt)
        if corrupt:
            with open(self.root / CORRUPT_SIDECAR, "a") as sidecar:
                for line in corrupt:
                    sidecar.write(line + "\n")
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text("".join(line + "\n" for line in valid))
        os.replace(tmp, path)
        self._fh = open(path, "a")

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _append(self, payload: dict) -> None:
        assert self._fh is not None, "journal is not open"
        envelope = {
            "checksum": payload_checksum(payload),
            "payload": payload,
        }
        self._fh.write(
            json.dumps(envelope, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        # Flush through to disk per line: the journal's whole purpose
        # is surviving a SIGKILL between these appends.
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record_start(self, key: str) -> None:
        """Log that a cell was dispatched (it will re-run on resume)."""
        if key in self._started:
            return
        self._started.add(key)
        self._append({"kind": "start", "key": key})

    def record_done(self, key: str, result: RunResult) -> None:
        """Log a finished cell with its full serialized result."""
        payload = {
            "kind": "done",
            "key": key,
            "result": result_to_json_dict(result),
        }
        self._done[key] = payload["result"]
        self._append(payload)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def done_result(self, key: str) -> RunResult | None:
        """The journaled result of one cell, or None if not finished."""
        payload = self._done.get(key)
        if payload is None:
            return None
        try:
            return result_from_json_dict(payload)
        except (ValueError, KeyError, TypeError):
            # Schema drift would already have failed the manifest's
            # source-digest check; treat defensively as not-done.
            return None

    def stats(self) -> dict:
        """Counters for reports: done/started/corrupt line totals."""
        return {
            "root": str(self.root),
            "done": len(self._done),
            "started": len(self._started),
            "corrupt_lines": self.corrupt_lines,
        }

    def close(self) -> None:
        """Flush and close the journal file handle."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "StudyJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "JOURNAL_NAME",
    "JOURNAL_VERSION",
    "MANIFEST_NAME",
    "StudyJournal",
    "cell_key",
]
