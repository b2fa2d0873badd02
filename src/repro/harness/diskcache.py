"""On-disk result cache: completed simulations survive across processes.

Each :class:`repro.metrics.report.RunResult` is stored as one file
under a cache root (default ``~/.cache/repro/``, overridable via the
``REPRO_CACHE_DIR`` environment variable). The file name is a SHA-256
over the *content-addressed* config digest plus the workload name, scale
preset, timeline-recording flag, and the package version — so a cache
entry can only ever be replayed for a bit-identical simulation setup, and
upgrading the simulator invalidates every stale entry automatically.

Storage integrity contract (DESIGN.md, "Failure-handling contract"):

* Entries are written atomically (tmp file + rename) so a killed run
  never leaves a truncated JSON behind.
* Every entry is a one-line header ``{"v": 2, "checksum": <hex>}``
  followed by the payload JSON; the checksum is a SHA-256 over those
  stored payload bytes, verified on ``get`` before they are decoded, so
  ``put`` encodes a payload once and ``get`` never re-encodes it. An
  entry that fails to parse, has another envelope version (a bare
  pre-envelope payload, or the one-object v1 envelope), fails the
  checksum, or fails result reconstruction is **quarantined** —
  renamed to ``<key>.corrupt`` and counted in :attr:`corrupt`,
  separately from misses — so a broken entry is re-read and re-failed at
  most once instead of on every subsequent run.
* ``put`` never raises: a full disk, read-only cache root, or any other
  ``OSError`` degrades to a one-time warning and a :attr:`put_errors`
  count. A caching failure must never kill a suite whose simulation
  already succeeded.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path

import repro
from repro.config import SystemConfig, config_digest
from repro.harness import faults
from repro.metrics.report import RunResult
from repro.metrics.export import result_from_json_dict, result_to_json_dict

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Version tag of the on-disk envelope format (the header's ``"v"``).
ENVELOPE_VERSION = 2

#: Suffix given to quarantined (corrupt) entries.
CORRUPT_SUFFIX = ".corrupt"

_SOURCE_DIGEST: str | None = None


def source_digest() -> str:
    """SHA-256 over the simulator's own source files (computed once).

    Folding this into every cache key means editing any simulator source
    invalidates stale entries even without a version bump — a rerun after
    a local change can never silently replay pre-change results.
    """
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for source in sorted(root.rglob("*.py")):
            digest.update(str(source.relative_to(root)).encode())
            digest.update(source.read_bytes())
        _SOURCE_DIGEST = digest.hexdigest()
    return _SOURCE_DIGEST


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def payload_checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON serialization of one payload (the
    study journal's checksum; cache entries hash their stored bytes)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


class CacheIntegrityError(ValueError):
    """An entry's envelope or checksum failed verification."""


def envelope_header(checksum: str) -> bytes:
    """The header line ``put`` writes: ``json.dumps`` of ``{"v", "checksum"}``.

    Spelled out rather than encoded, so ``get`` can accept a well-formed
    entry by one bytes comparison instead of decoding its header.
    """
    return f'{{"v": {ENVELOPE_VERSION}, "checksum": "{checksum}"}}'.encode()


class ResultDiskCache:
    """A content-addressed store of finished :class:`RunResult` objects."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        #: entries quarantined after failing integrity verification.
        self.corrupt = 0
        #: writes that failed and were degraded to a warning.
        self.put_errors = 0
        self._put_warned = False

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    @staticmethod
    def entry_key(workload: str, scale_name: str, record_timelines: bool,
                  config: SystemConfig) -> str:
        """Cache-file stem identifying one simulation's full setup."""
        material = "\n".join(
            (
                repro.__version__,
                source_digest(),
                workload,
                scale_name,
                "timelines" if record_timelines else "plain",
                config_digest(config),
            )
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def path_for(self, workload: str, scale_name: str,
                 record_timelines: bool, config: SystemConfig) -> Path:
        """Where one entry lives on disk."""
        key = self.entry_key(workload, scale_name, record_timelines, config)
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    @staticmethod
    def _verified_payload(data: bytes) -> dict:
        """The payload of one stored entry, or raise CacheIntegrityError.

        The checksum covers the payload bytes exactly as stored, so the
        body is hashed and decoded once and never re-encoded. ``put`` is
        the only writer, so a valid entry's header is byte for byte
        :func:`envelope_header` of its body's checksum.
        """
        head, newline, body = data.partition(b"\n")
        if not newline or head != envelope_header(
                hashlib.sha256(body).hexdigest()):
            raise CacheIntegrityError(
                f"entry is not a v{ENVELOPE_VERSION} envelope with a "
                "matching checksum")
        payload = json.loads(body)
        if not isinstance(payload, dict):
            raise CacheIntegrityError("entry payload is not an object")
        return payload

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it is never re-read again."""
        self.corrupt += 1
        try:
            os.replace(path, path.with_suffix(CORRUPT_SUFFIX))
        except OSError:
            # Unmovable (e.g. read-only dir): leave it; the next get
            # will re-fail, which is the pre-quarantine behaviour.
            pass

    # ------------------------------------------------------------------
    # get / put
    # ------------------------------------------------------------------
    def get(self, workload: str, scale_name: str, record_timelines: bool,
            config: SystemConfig) -> RunResult | None:
        """Stored result for this exact setup, or None on a miss.

        Corrupt entries (unparseable JSON, bad envelope/checksum, or a
        payload the current schema cannot reconstruct) are quarantined
        and counted in :attr:`corrupt`; plain absence counts a miss.
        """
        path = self.path_for(workload, scale_name, record_timelines, config)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = self._verified_payload(data)
            result = result_from_json_dict(payload)
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            return None
        self.hits += 1
        return result

    def put(self, workload: str, scale_name: str, record_timelines: bool,
            config: SystemConfig, result: RunResult) -> Path | None:
        """Persist one result; returns the entry path, or None on failure.

        Any ``OSError`` (ENOSPC, read-only root, permissions) degrades to
        a single :class:`RuntimeWarning` per cache instance and a
        :attr:`put_errors` count — the caller's result is already
        computed and must not be lost to a storage fault.
        """
        key = self.entry_key(workload, scale_name, record_timelines, config)
        path = self.root / f"{key}.json"
        try:
            faults.inject_cache_put_fault(key)
            self.root.mkdir(parents=True, exist_ok=True)
            body = json.dumps(result_to_json_dict(result),
                              separators=(",", ":")).encode()
            header = envelope_header(hashlib.sha256(body).hexdigest())
            # Per-process temp name: concurrent invocations writing the
            # same entry must not clobber each other's half-written file.
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_bytes(header + b"\n" + body)
            os.replace(tmp, path)
        except OSError as error:
            self.put_errors += 1
            if not self._put_warned:
                self._put_warned = True
                warnings.warn(
                    f"result cache write failed ({error}); continuing "
                    f"without persistence under {self.root}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return None
        if faults.corrupt_cache_entry_planned(key):
            # Chaos hook: garble the stored bytes so a later get must
            # detect, quarantine, and re-simulate. Never raises past the
            # OSError guard above because the entry was just written.
            try:
                text = path.read_text()
                path.write_text(text[: max(1, len(text) // 2)])
            except OSError:
                pass
        return path

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counters for reports: hits/misses/corrupt/put_errors/entries."""
        return {
            "root": str(self.root),
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "put_errors": self.put_errors,
        }

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry (incl. quarantined); returns how many."""
        removed = 0
        if self.root.is_dir():
            for pattern in ("*.json", f"*{CORRUPT_SUFFIX}"):
                for entry in self.root.glob(pattern):
                    entry.unlink(missing_ok=True)
                    removed += 1
        return removed
