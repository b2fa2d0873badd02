"""Quiescent-boundary snapshots of a whole simulated system.

A :class:`SimSnapshot` is an explicit, JSON-able capture of every piece
of *mutable* simulation state — engine clock and event counter, cache
frames and recency order, MSHR-free socket counters, bandwidth-server
horizons, page table and placement-policy state, per-socket translation
caches, link lane splits, and the launcher's launch-loop cursor. It
deliberately does **not** pickle objects: each participating class
implements ``snapshot_state()`` / ``restore_state()`` over plain lists,
dicts, ints, floats, and strings (the ``snapshot-complete`` repro-lint
rule audits that every mutable field is either captured or explicitly
listed in the class's ``_SNAPSHOT_EXEMPT``), and ``restore`` rebinds
nothing — it overlays state onto a freshly *constructed* system whose
prebound stage callables, pooled walkers, and wiring were rebuilt by the
ordinary builder path.

Quiescence
----------
Snapshots are only legal at a quiescent boundary: the engine drained
(no pending events — bucket entries are arbitrary bound methods and
cannot be serialized), every socket's MSHR table empty, no queued or
resident CTAs, no lane turns inside their quiesce window, and the
launcher paused between kernels (``Launcher.pause_after``). Capture
*refuses* otherwise by raising :class:`~repro.errors.SnapshotError` —
there is no best-effort partial snapshot. Configurations running
periodic services that never drain (cache partition controllers, link
balancers, timeline recording) are ineligible outright; see
``NumaGpuSystem.snapshot_eligible``.

Determinism
-----------
All dict-shaped state serializes as insertion-ordered ``[key, value]``
pair lists, so a restored dict reproduces the original's insertion
order and a re-snapshot of a restored system is byte-identical to the
original snapshot. Floats round-trip exactly through JSON (shortest
repr), so restored bandwidth servers admit later transfers at
bit-identical cycles. The serialized form carries a SHA-256 checksum
over its canonical JSON (same scheme as the disk cache's envelopes);
:meth:`SimSnapshot.from_bytes` refuses corrupted or truncated blobs.
"""

from __future__ import annotations

import hashlib
import json

from repro.config import config_digest
from repro.errors import SnapshotError

#: Serialized-format version; bump on any payload shape change.
SNAPSHOT_VERSION = 2


def canonical_json(payload) -> str:
    """Canonical JSON used for both checksums and serialization."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def snapshot_checksum(payload) -> str:
    """SHA-256 over the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class SimSnapshot:
    """One captured quiescent boundary of a ``NumaGpuSystem``.

    Construct via :meth:`capture` (from a live, paused system) or
    :meth:`from_bytes` (from a serialized blob); apply with
    :meth:`restore_into`, which returns the launcher state to hand to
    ``NumaGpuSystem.resume``.
    """

    def __init__(self, payload: dict) -> None:
        self.payload = payload

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, system) -> "SimSnapshot":
        """Capture a paused system (duck-typed ``NumaGpuSystem``).

        Raises :class:`~repro.errors.SnapshotError` when the system is
        ineligible (periodic services) or not quiescent (pending
        events, in-flight reads, active CTAs, pending lane turns, or a
        launcher that is not paused at a kernel boundary) — the
        component ``snapshot_state`` methods enforce their own checks.
        """
        reason = system.snapshot_eligible()
        if reason is not None:
            raise SnapshotError(f"system is not snapshot-eligible: {reason}")
        launcher = system.launcher
        if launcher is None:
            raise SnapshotError(
                "system has no launcher; run_prefix() must reach its "
                "pause boundary before capture"
            )
        fabric = system.fabric
        placement = system.page_table.policy
        payload = {
            "version": SNAPSHOT_VERSION,
            "config_digest": config_digest(system.config),
            "engine": system.engine.snapshot_state(),
            "launcher": launcher.snapshot_state(),
            "page_table": system.page_table.snapshot_state(),
            "placement": {
                "stats": placement.stats.snapshot_state(),
                "policy": placement.snapshot_state(),
            },
            "placement_kind": placement.kind,
            "fabric": None if fabric is None else fabric.snapshot_state(),
            "sockets": [
                socket.snapshot_state() for socket in system.sockets
            ],
        }
        return cls(payload)

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------
    def restore_into(self, system, fork: bool = False) -> dict:
        """Overlay this snapshot onto a freshly built system.

        With ``fork=False`` the target must have the exact same config
        digest as the captured system; the overlay is total, and
        resuming produces a run byte-identical to the uninterrupted
        one. With ``fork=True`` the target may differ (a policy-variant
        branch off a shared warmup prefix): placement-policy state
        transfers in full only when the target runs the same placement
        kind — otherwise only the page->home table and placement stats
        carry over — and per-socket translation caches are dropped when
        the target's policy forbids them.

        Returns the launcher state dict for ``NumaGpuSystem.resume``.
        """
        payload = self.payload
        if payload.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {payload.get('version')!r} != "
                f"{SNAPSHOT_VERSION}"
            )
        reason = system.snapshot_eligible()
        if reason is not None:
            raise SnapshotError(
                f"target system is not snapshot-eligible: {reason}"
            )
        target_digest = config_digest(system.config)
        if not fork and target_digest != payload["config_digest"]:
            raise SnapshotError(
                "config mismatch: snapshot was captured under "
                f"{payload['config_digest'][:12]}, target is "
                f"{target_digest[:12]} (use fork=True to branch)"
            )
        if len(system.sockets) != len(payload["sockets"]):
            raise SnapshotError(
                f"socket count mismatch: snapshot has "
                f"{len(payload['sockets'])}, target has "
                f"{len(system.sockets)}"
            )
        system.engine.restore_state(payload["engine"])
        system.page_table.restore_state(payload["page_table"])
        placement = system.page_table.policy
        placement.stats.restore_state(payload["placement"]["stats"])
        if not fork or placement.kind == payload["placement_kind"]:
            placement.restore_state(payload["placement"]["policy"])
        else:
            # Cross-kind branch: the page->home table and the shared
            # placement stats are policy-independent facts about the
            # warmup prefix; policy-private counters are not.
            placement.restore_state(
                {"page_home": payload["placement"]["policy"]["page_home"]}
            )
        fabric_state = payload["fabric"]
        if (system.fabric is None) != (fabric_state is None):
            raise SnapshotError("fabric presence mismatch between "
                                "snapshot and target system")
        if fabric_state is not None:
            system.fabric.restore_state(fabric_state)
        for socket, socket_state in zip(system.sockets, payload["sockets"]):
            socket.restore_state(socket_state)
            if fork and not system.page_table.cacheable:
                # A dynamic-policy branch must observe every touch; a
                # warm line->home record from the prefix would hide them.
                socket._lines.clear()
        return payload["launcher"]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Checksummed canonical-JSON envelope of the payload."""
        envelope = {
            "v": SNAPSHOT_VERSION,
            "checksum": snapshot_checksum(self.payload),
            "payload": self.payload,
        }
        return canonical_json(envelope).encode("utf-8")

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SimSnapshot":
        """Parse and verify a serialized snapshot."""
        try:
            envelope = json.loads(blob.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise SnapshotError(f"unparseable snapshot blob: {exc}") from exc
        if not isinstance(envelope, dict) or "payload" not in envelope:
            raise SnapshotError("snapshot blob is not an envelope")
        payload = envelope["payload"]
        recorded = envelope.get("checksum")
        actual = snapshot_checksum(payload)
        if recorded != actual:
            raise SnapshotError(
                f"snapshot checksum mismatch: recorded {recorded!r}, "
                f"computed {actual!r}"
            )
        return cls(payload)

    @property
    def config_digest(self) -> str:
        """Config digest of the captured system."""
        return self.payload["config_digest"]

    @property
    def cycle(self) -> int:
        """Engine clock at the captured boundary."""
        return self.payload["engine"]["now"]
