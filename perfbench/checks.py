"""Result checks the benchmark applies to every simulated cell.

The model is unvalidated (the repository holds no hardware reference),
so these are conservation laws and determinism checks, not accuracy
checks: every cell must finish the work it was given, the fabric must
deliver every byte it accepted, and the exported result must be the same
bytes on every pass, traced or not, and match the stored reference
digest where one exists for the seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.metrics.report import RunResult

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_digests.json"


def export_text(payload: dict) -> str:
    """Canonical JSON text of one exported result."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    """Digest of one cell's exported result text."""
    return hashlib.sha256(text.encode()).hexdigest()


def check_result(result: RunResult, ctas: int, kernels: int) -> list[str]:
    """Conservation-law violations of one finished cell (empty = ok)."""
    errors = []
    completed = sum(s.ctas_completed for s in result.sockets)
    if completed != ctas:
        errors.append(f"{completed} CTAs completed, {ctas} generated")
    if result.kernels != kernels:
        errors.append(f"{result.kernels} kernels completed, {kernels} launched")
    egress = sum(s.egress_bytes for s in result.sockets)
    ingress = sum(s.ingress_bytes for s in result.sockets)
    if egress != ingress:
        errors.append(f"egress {egress} B != ingress {ingress} B")
    if result.edges:
        hop_packets = sum(h * n for h, n in result.hop_histogram.items())
        edge_packets = sum(e.packets_ab + e.packets_ba for e in result.edges)
        if hop_packets != edge_packets:
            errors.append(
                f"sum(hops x packets) {hop_packets} != edge packets "
                f"{edge_packets}")
    return errors


class DigestBook:
    """Per-cell digests seen in one run, checked against each other and
    against the stored reference for the seed."""

    def __init__(self, reference: dict[str, str] | None = None) -> None:
        self.reference = reference or {}
        self.seen: dict[str, str] = {}

    def check(self, cell_id: str, value: str) -> list[str]:
        """Record one digest; return the mismatches it reveals."""
        errors = []
        first = self.seen.setdefault(cell_id, value)
        if value != first:
            errors.append(f"digest {value[:12]} differs from an earlier "
                          f"pass ({first[:12]})")
        expected = self.reference.get(cell_id)
        if expected is not None and value != expected:
            errors.append(f"digest {value[:12]} differs from the reference "
                          f"({expected[:12]})")
        return errors


def load_reference(leg: str, seed: int,
                   path: Path = REFERENCE_PATH) -> dict[str, str]:
    """Stored reference digests of one leg and seed (empty if none)."""
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get(leg, {}).get(str(seed), {})


def store_reference(leg: str, seed: int, digests: dict[str, str],
                    path: Path = REFERENCE_PATH) -> None:
    """Record one leg and seed's digests as the reference."""
    book = json.loads(path.read_text()) if path.is_file() else {}
    book.setdefault(leg, {})[str(seed)] = dict(sorted(digests.items()))
    path.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
