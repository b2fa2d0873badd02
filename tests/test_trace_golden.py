"""The recorded op stream of every workload is pinned to a golden digest.

The hot-path goldens pin run *results*; this file pins the op stream
itself. Each digest is a SHA-256 over every kernel name, CTA and slice
boundary, compute cycle count, op address and write bit of one
``record_trace`` result, so any change to trace generation that moves
one op (or one RNG draw) fails here before it can reach a result.

Regenerate (only when a trace change is intended) with::

    PYTHONPATH=src python tests/test_trace_golden.py --capture
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.workloads.spec import SMALL, TINY
from repro.workloads.suite import SUITE, get_workload
from repro.workloads.trace import record_trace

GOLDEN = Path(__file__).parent / "golden" / "trace_digests.json"

#: The perfbench sim legs' probe workloads, pinned at the scale they run.
PROBE_WORKLOADS = ("Rodinia-BFS", "Rodinia-Hotspot", "ML-AlexNet-cudnn-Lev2")


def trace_digest(trace) -> str:
    """SHA-256 over the trace's kernels, CTAs, slices and ops, in order."""
    h = hashlib.sha256()
    for kernel in trace.kernels:
        h.update(f"K {kernel.name}\n".encode())
        for cta in kernel.ctas:
            h.update(b"C\n")
            for s in cta:
                ops = " ".join(
                    f"{op.addr}{'w' if op.is_write else 'r'}" for op in s.ops
                )
                h.update(f"S {s.compute_cycles} {ops}\n".encode())
    return h.hexdigest()


def _cases():
    cases = [(name, TINY) for name in SUITE]
    cases += [(name, SMALL) for name in PROBE_WORKLOADS]
    return cases


def _key(name: str, scale) -> str:
    return f"{name}@{scale.name}"


def capture() -> dict[str, str]:
    """Digest of every pinned (workload, scale) case."""
    return {
        _key(name, scale): trace_digest(record_trace(get_workload(name), scale))
        for name, scale in _cases()
    }


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(_key(n, s) for n, s in _cases())


@pytest.mark.parametrize("name,scale", _cases(), ids=lambda v: getattr(v, "name", v))
def test_record_trace_matches_golden(name, scale):
    golden = json.loads(GOLDEN.read_text())
    trace = record_trace(get_workload(name), scale)
    assert trace_digest(trace) == golden[_key(name, scale)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: test_trace_golden.py --capture")
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
