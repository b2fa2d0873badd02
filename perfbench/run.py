"""Layered benchmark of the NUMA-GPU simulator.

Runs one workload (``crossbar4``, ``ring8``, ``single-gpu`` or
``study``) for about ``--seconds`` seconds of closed-loop measurement,
checks every simulated result, and prints every metric by name and unit;
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off. With ``--trace 1`` they are the per-layer ones: the run
measures untraced passes, then traced passes (spans kept and written as
Chrome-trace JSON under ``.perfbench_out/``), then one pass under
cProfile grouped by ``repro`` package. See ``perfbench/README.md``.

Usage, from the repository root::

    python3 perfbench/run.py --workload crossbar4 --seed 1 --seconds 25 --trace 0

The process exits non-zero when any result check fails, and with code 2
(printing no result) when the simulator sources are not next to it.
"""

import time

_START = time.monotonic()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(sys.argv[1:], started=_START)


if __name__ == "__main__":
    sys.exit(main())
