"""Process-wide simulation run tally (events, cycles, drain wall-clock).

:class:`NumaGpuSystem.run` records every completed simulation here:
events executed, simulated cycles, and the wall-clock seconds the engine
drain took. Its readers: ``perfbench`` takes the events and drain
seconds of each cell (``sim.events``, ``sim.drain_s``), and
the harness (:mod:`repro.harness.parallel`) samples the per-task delta.

The tally is deliberately trivial — module-level, no locks — because
simulations are single-threaded within a process. Parallel harness
workers each tally their own process; the supervisor ships every
worker's per-task tally delta back over its result pipe and
:meth:`RunTally.absorb`-s it into the parent tally, so a parallel
suite's tally reflects *all* processes, not just parent-side runs
(see :mod:`repro.harness.supervisor`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RunTally:
    """Accumulated totals across all simulations run in this process."""

    runs: int = 0
    events: int = 0
    cycles: int = 0
    wall_seconds: float = 0.0

    def record(self, events: int, cycles: int, wall_seconds: float) -> None:
        """Add one finished simulation's totals."""
        self.runs += 1
        self.events += events
        self.cycles += cycles
        self.wall_seconds += wall_seconds

    def absorb(self, runs: int, events: int, cycles: int,
               wall_seconds: float) -> None:
        """Fold another process's already-counted totals into this tally.

        Unlike :meth:`record` (one finished simulation), ``absorb`` adds
        a remote tally delta verbatim — the supervisor uses it to merge
        worker-side run totals into the parent process's tally.
        """
        self.runs += runs
        self.events += events
        self.cycles += cycles
        self.wall_seconds += wall_seconds


#: The process-wide tally written by NumaGpuSystem.run.
SIM_TALLY = RunTally()
