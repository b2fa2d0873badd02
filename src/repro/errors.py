"""Exception hierarchy for the repro package.

All exceptions raised by the simulator derive from :class:`ReproError` so
callers can catch a single base class. Specific subclasses exist for the
major subsystems so tests can assert on the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class SimulationError(ReproError):
    """The discrete-event engine reached an impossible state."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or with invalid arguments."""


class CacheError(ReproError):
    """A cache invariant was violated (quota, capacity, or tag state)."""


class InterconnectError(ReproError):
    """A link, lane, or switch invariant was violated."""


class PlacementError(ReproError):
    """A page-placement policy produced an invalid home socket."""


class WorkloadError(ReproError):
    """A workload specification is malformed or references unknown data."""


class RuntimeLaunchError(ReproError):
    """The NUMA GPU runtime could not launch or decompose a kernel."""


class CheckpointError(ReproError):
    """A study checkpoint journal or manifest could not be used.

    Raised on resume when the manifest disagrees with the current
    invocation (different scale, package version, or source digest) —
    replaying journaled results across such a boundary could silently
    mix incompatible simulations.
    """


class ExecutionError(ReproError):
    """A supervised experiment run failed under a fail-fast policy.

    Carries the structured :class:`repro.harness.supervisor.FailureReport`
    in :attr:`report` so callers can render the attempt transcripts and
    repro commands instead of just a message.
    """

    def __init__(self, report=None, message: str | None = None) -> None:
        self.report = report
        if message is None:
            message = (
                report.headline() if report is not None
                else "supervised experiment execution failed"
            )
        super().__init__(message)
