"""Supervised execution of experiment task grids.

The supervisor isolates per-task failures so one crashed, hung, or
excepting simulation marks only that grid cell failed instead of
aborting an entire figure suite. It replaces the previous
``ProcessPoolExecutor`` fan-out for a structural reason: when a pool
worker dies, ``concurrent.futures`` raises ``BrokenProcessPool`` on
*every* in-flight future — the crash cannot be attributed to the task
that caused it, so exact retry accounting (and therefore deterministic
chaos testing) is impossible. Here each worker process is dispatched
exactly one task at a time over its own pipe, so the supervisor always
knows which task a dead or hung worker was running.

Failure-handling state machine (per task; see DESIGN.md,
"Failure-handling contract")::

    WAITING --dispatch--> RUNNING --ok--------------------> DONE
       ^                     | crash / timeout / exception
       |                     v
       +--backoff sleep-- RETRY-SCHEDULED   (attempt < max_retries)
                             | budget exhausted
                             v
                          FAILED  --fail-fast--> run aborted
                                  --keep-going--> remaining tasks continue

Retries back off exponentially: the retry after 0-based failed attempt
``a`` waits ``base_delay * 2**a`` seconds. Delays recorded in the
attempt transcript are the *scheduled* values, so transcripts are
deterministic and chaos tests can assert the schedule exactly.

Tasks are dispatched workload-major (a stable sort by each workload's
first plan position) so a worker's trace memo hits across consecutive
cells; every task keeps its plan index, so fault targets and the report
follow plan order.

Crash recovery rebuilds only what died: the dead worker is respawned and
only its task is rescheduled — finished results are never discarded and
unstarted tasks are unaffected. Hung workers are detected by a per-task
wall-clock deadline, killed, and respawned the same way. The serial
(``jobs <= 1``) path runs the identical state machine in-process —
worker crashes surface as :class:`~repro.harness.faults.InjectedCrash`
and timeouts via ``SIGALRM`` — so ``--jobs 1`` and ``--jobs N`` produce
identical failure reports for the same fault plan.

SIGINT/SIGTERM stop a run gracefully in either mode: the first signal
kills in-flight workers and finalizes the report with
``interrupted=True`` and the in-flight tasks listed as unfinished, so
the caller can print per-task states and the exact ``--resume``
command. A second signal aborts immediately (:class:`KeyboardInterrupt`).
"""

from __future__ import annotations

import json
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.config import CacheArch, LinkPolicy, config_digest
from repro.errors import ExecutionError
from repro.harness import faults
from repro.harness.formatting import format_table
from repro.locality.spec import CtaSpec, PlacementSpec
from repro.sim.instrumentation import SIM_TALLY
from repro.workloads.spec import WorkloadScale

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.parallel import RunTask
    from repro.metrics.report import RunResult

#: How long (s) the pool blocks at most between supervision ticks.
_MAX_TICK = 0.5


# ---------------------------------------------------------------------------
# policy and report data model
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor responds to task failures."""

    #: retries allowed after the first attempt (total attempts = +1).
    max_retries: int = 2
    #: backoff before the retry following 0-based failed attempt ``a``
    #: is ``base_delay * 2**a`` seconds.
    base_delay: float = 0.5
    #: per-attempt wall-clock budget; None disables timeout kills.
    task_timeout: float | None = None
    #: False = fail fast (abort the run on the first exhausted task).
    keep_going: bool = True

    def delay_after(self, failed_attempt: int) -> float:
        """Scheduled backoff after one 0-based failed attempt."""
        return self.base_delay * (2 ** failed_attempt)

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1


@dataclass
class Attempt:
    """One entry of a task's attempt transcript."""

    attempt: int  #: 0-based attempt number
    outcome: str  #: "ok" | "crash" | "timeout" | "error"
    detail: str = ""
    #: scheduled backoff (s) before the next attempt; None if terminal.
    retry_delay: float | None = None


@dataclass
class TaskReport:
    """Transcript of one task that needed supervision."""

    key: str
    workload: str
    scale: str
    record_timelines: bool
    config_fingerprint: str
    index: int
    repro_command: str
    status: str  #: "recovered" | "failed" | "unfinished"
    attempts: list[Attempt] = field(default_factory=list)

    def outcomes(self) -> list[str]:
        return [attempt.outcome for attempt in self.attempts]

    def backoff_schedule(self) -> list[float]:
        return [
            attempt.retry_delay for attempt in self.attempts
            if attempt.retry_delay is not None
        ]


@dataclass
class FailureReport:
    """Structured end-of-run account of everything that went wrong.

    ``tasks`` holds only tasks whose transcript contains at least one
    non-ok attempt (recovered or failed) — a clean run has an empty
    report. Rendered by the CLI and exported to JSON so a failed suite
    always leaves an actionable artifact: every entry carries the exact
    ``repro run`` command and config fingerprint to reproduce its cell.
    """

    policy: RetryPolicy
    total: int
    executed: int = 0
    aborted: bool = False
    #: True when SIGINT/SIGTERM stopped the run early (workers killed,
    #: in-flight tasks listed in :attr:`unfinished`, journal flushed).
    interrupted: bool = False
    tasks: list[TaskReport] = field(default_factory=list)
    #: task keys never completed (fail-fast abort leftovers).
    unfinished: list[str] = field(default_factory=list)
    #: disk-cache counters (hits/misses/corrupt/put_errors), if attached.
    cache: dict | None = None
    #: harness telemetry: per-worker task spans (wall clock) and tally
    #: deltas plus cross-process totals (see DESIGN.md, "Observability
    #: contract"). Populated by run_supervised in both modes.
    telemetry: dict | None = None

    @property
    def failed(self) -> list[TaskReport]:
        return [t for t in self.tasks if t.status == "failed"]

    @property
    def recovered(self) -> list[TaskReport]:
        return [t for t in self.tasks if t.status == "recovered"]

    def ok(self) -> bool:
        return not self.failed and not self.aborted and not self.interrupted

    def headline(self) -> str:
        if self.interrupted:
            parts = [
                f"supervised run INTERRUPTED: {self.executed}/{self.total} "
                f"tasks finished, {len(self.unfinished)} unfinished"
            ]
            if self.failed:
                parts.append(
                    f"{len(self.failed)} tasks exhausted their retry budget"
                )
            return "; ".join(parts)
        if self.ok():
            if not self.tasks:
                return (
                    f"supervised run ok: {self.executed}/{self.total} tasks, "
                    "no faults"
                )
            return (
                f"supervised run ok: {self.executed}/{self.total} tasks, "
                f"{len(self.recovered)} recovered after faults"
            )
        parts = [
            f"supervised run FAILED: {len(self.failed)} of {self.total} "
            f"tasks exhausted their retry budget "
            f"(max_retries={self.policy.max_retries})"
        ]
        if self.aborted:
            parts.append(
                f"aborted (fail-fast) with {len(self.unfinished)} tasks "
                "unfinished"
            )
        return "; ".join(parts)

    def render(self) -> str:
        """Human-readable report (headline + transcript table)."""
        lines = [self.headline()]
        if self.tasks:
            rows = []
            for task in self.tasks:
                delays = ", ".join(
                    f"{d:g}s" for d in task.backoff_schedule()
                ) or "-"
                rows.append([
                    task.key,
                    task.status,
                    " -> ".join(task.outcomes()),
                    delays,
                    task.repro_command,
                ])
            lines.append(format_table(
                ["Task", "Status", "Attempts", "Backoff", "Repro"],
                rows,
                title="Attempt transcripts",
            ))
            for task in self.failed:
                last = task.attempts[-1]
                lines.append(
                    f"  {task.key}: last failure ({last.outcome}) "
                    f"{last.detail} [config {task.config_fingerprint[:12]}]"
                )
        if self.cache is not None:
            lines.append(
                f"disk cache: {self.cache['hits']} hits, "
                f"{self.cache['misses']} misses, "
                f"{self.cache['corrupt']} quarantined, "
                f"{self.cache['put_errors']} failed writes"
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "policy": asdict(self.policy),
            "total": self.total,
            "executed": self.executed,
            "aborted": self.aborted,
            "interrupted": self.interrupted,
            "ok": self.ok(),
            "tasks": [asdict(task) for task in self.tasks],
            "unfinished": list(self.unfinished),
            "cache": self.cache,
            "telemetry": self.telemetry,
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_json_dict(), indent=1) + "\n")
        return path


# ---------------------------------------------------------------------------
# harness telemetry
# ---------------------------------------------------------------------------
def _new_telemetry(mode: str) -> dict:
    """Empty telemetry record for one supervised run (``serial``/``pool``)."""
    return {
        "mode": mode,
        "workers": {},
        "totals": {"runs": 0, "events": 0, "cycles": 0, "wall_seconds": 0.0},
    }


def _record_telemetry(telemetry: dict, worker_id: str, key: str,
                      sample: dict) -> None:
    """Fold one task's measured sample into the run telemetry.

    ``sample`` is the dict produced by
    :func:`repro.harness.parallel._execute_measured`: the task's
    ``time.monotonic()`` span plus the SIM_TALLY delta it produced in
    its executing process. Per-task ``wall_seconds`` here is the *engine
    drain* wall clock (the RunTally semantics), while ``t_start`` /
    ``t_end`` bound the whole task including system construction.
    """
    workers = telemetry["workers"]
    record = workers.get(worker_id)
    if record is None:
        record = workers[worker_id] = {
            "tasks": [],
            "tally": {"runs": 0, "events": 0, "cycles": 0,
                      "wall_seconds": 0.0},
        }
    record["tasks"].append({
        "key": key,
        "t_start": sample["t_start"],
        "t_end": sample["t_end"],
        "runs": sample["runs"],
        "events": sample["events"],
        "cycles": sample["cycles"],
        "wall_seconds": sample["sim_wall_seconds"],
    })
    tally = record["tally"]
    totals = telemetry["totals"]
    for name in ("runs", "events", "cycles"):
        tally[name] += sample[name]
        totals[name] += sample[name]
    tally["wall_seconds"] += sample["sim_wall_seconds"]
    totals["wall_seconds"] += sample["sim_wall_seconds"]


# ---------------------------------------------------------------------------
# task identity
# ---------------------------------------------------------------------------
def task_key(task: "RunTask", scale_name: str) -> str:
    """Stable, human-scannable identity of one task.

    Derived from the workload name, scale, timeline flag, and the
    content-addressed config digest — never from submission order or
    process ids — so fault plans and transcripts name the same task in
    any execution mode.
    """
    suffix = "+tl" if task.record_timelines else ""
    return (
        f"{task.workload}@{scale_name}{suffix}"
        f"/{config_digest(task.config)[:12]}"
    )


def repro_command_for(task: "RunTask", scale_name: str) -> str:
    """The ``repro run`` invocation reproducing one task's simulation.

    Emits only non-default flags; configs outside the CLI surface (e.g.
    hypothetical big-GPU scalings) still get the closest command — the
    report's full config fingerprint pins the exact identity.
    """
    config = task.config
    parts = [
        "repro", "run", task.workload,
        "--scale", scale_name,
        "--sockets", str(config.n_sockets),
    ]
    if config.cache_arch is not CacheArch.MEM_SIDE:
        parts += ["--cache", config.cache_arch.value]
    if config.link_policy is not LinkPolicy.STATIC:
        parts += ["--links", config.link_policy.value]
    if config.placement_spec.kind != PlacementSpec().kind:
        parts += ["--placement", config.placement_spec.kind]
    if config.cta_spec.kind != CtaSpec().kind:
        parts += ["--cta-policy", config.cta_spec.kind]
    if config.topology is not None:
        parts += ["--topology", config.topology.kind]
    return " ".join(parts)


# ---------------------------------------------------------------------------
# shared per-task state machine
# ---------------------------------------------------------------------------
@dataclass
class _TaskState:
    index: int
    task: "RunTask"
    key: str
    attempts: list[Attempt] = field(default_factory=list)
    next_attempt: int = 0
    ready_at: float = 0.0
    done: bool = False
    failed: bool = False


def _workload_major(states: Sequence[_TaskState]) -> list[_TaskState]:
    """Dispatch order: a stable sort by each workload's first plan position.

    Sweep drivers request cells config-major, so plan order interleaves
    workloads and a worker's single-entry trace memo
    (:func:`repro.core.builder._memoizing_kernels`) would miss on every
    task. Grouping by workload lets each worker build a workload's trace
    once per contiguous run of its tasks. Only the order changes: every
    state keeps its plan ``index`` (fault targets, report order).
    """
    rank: dict[str, int] = {}
    for state in states:
        rank.setdefault(state.task.workload, len(rank))
    return sorted(states, key=lambda state: rank[state.task.workload])


def _record_failure(state: _TaskState, outcome: str, detail: str,
                    policy: RetryPolicy, now: float) -> bool:
    """Append a failed attempt; schedule the retry. True = exhausted."""
    attempt = Attempt(state.next_attempt, outcome, detail)
    state.attempts.append(attempt)
    if state.next_attempt < policy.max_retries:
        delay = policy.delay_after(state.next_attempt)
        attempt.retry_delay = delay
        state.ready_at = now + delay
        state.next_attempt += 1
        return False
    state.failed = True
    return True


def _record_success(state: _TaskState) -> None:
    state.attempts.append(Attempt(state.next_attempt, "ok"))
    state.done = True


def _finalize_report(report: FailureReport, states: Sequence[_TaskState],
                     scale_name: str) -> FailureReport:
    for state in states:
        eventful = state.failed or len(state.attempts) > 1 or (
            state.attempts and state.attempts[0].outcome != "ok"
        )
        if not eventful:
            continue
        status = (
            "failed" if state.failed
            else "recovered" if state.done
            else "unfinished"
        )
        report.tasks.append(TaskReport(
            key=state.key,
            workload=state.task.workload,
            scale=scale_name,
            record_timelines=state.task.record_timelines,
            config_fingerprint=config_digest(state.task.config),
            index=state.index,
            repro_command=repro_command_for(state.task, scale_name),
            status=status,
            attempts=state.attempts,
        ))
    report.unfinished = [
        s.key for s in states if not s.done and not s.failed
    ]
    return report


# ---------------------------------------------------------------------------
# graceful interruption
# ---------------------------------------------------------------------------
class _InterruptFlag:
    """Latched by the SIGINT/SIGTERM handler; polled by the run loops."""

    __slots__ = ("signum",)

    def __init__(self) -> None:
        self.signum: int | None = None

    def __bool__(self) -> bool:
        return self.signum is not None


@contextmanager
def _interrupt_guard():
    """Turn SIGINT/SIGTERM into a graceful-stop request (main thread only).

    The first signal latches the flag: the run loops stop dispatching,
    kill in-flight workers, and fall through to normal report
    finalization (so the journal is flushed and every task state is
    accounted for). A second signal raises :class:`KeyboardInterrupt`
    for users who want out *now*; the ``finally`` blocks still destroy
    the worker pool on the way up.
    """
    flag = _InterruptFlag()
    if threading.current_thread() is not threading.main_thread():
        yield flag
        return

    def _on_signal(signum, frame):
        if flag.signum is not None:
            raise KeyboardInterrupt
        flag.signum = signum

    prev_int = signal.signal(signal.SIGINT, _on_signal)
    prev_term = signal.signal(signal.SIGTERM, _on_signal)
    try:
        yield flag
    finally:
        signal.signal(signal.SIGINT, prev_int)
        signal.signal(signal.SIGTERM, prev_term)


# ---------------------------------------------------------------------------
# serial path
# ---------------------------------------------------------------------------
class _SerialTimeout(Exception):
    """Raised by the SIGALRM handler when a serial attempt overruns."""


@contextmanager
def _serial_deadline(seconds: float | None):
    """Arm a SIGALRM-based per-attempt deadline (main thread only)."""
    if seconds is None or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _on_alarm(signum, frame):
        raise _SerialTimeout()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_serial(states: list[_TaskState], scale: WorkloadScale,
                policy: RetryPolicy, report: FailureReport,
                merge: Callable[["RunTask", "RunResult"], None],
                progress: Callable[[int, int], None] | None,
                interrupt: _InterruptFlag) -> None:
    from repro.harness.parallel import _execute_measured

    total = len(states)
    done_count = 0
    for state in states:
        while not state.done and not state.failed:
            if interrupt:
                report.executed = done_count
                return
            try:
                with _serial_deadline(policy.task_timeout):
                    faults.inject_task_fault(
                        state.key, state.index, state.next_attempt,
                        in_process=True,
                    )
                    result, sample = _execute_measured(state.task, scale)
            except faults.InjectedCrash as error:
                exhausted = _record_failure(
                    state, "crash", f"{type(error).__name__}: {error}",
                    policy, time.monotonic(),
                )
            except _SerialTimeout:
                exhausted = _record_failure(
                    state, "timeout",
                    f"exceeded {policy.task_timeout}s wall clock",
                    policy, time.monotonic(),
                )
            except Exception as error:
                exhausted = _record_failure(
                    state, "error", f"{type(error).__name__}: {error}",
                    policy, time.monotonic(),
                )
            else:
                _record_success(state)
                merge(state.task, result)
                # Serial runs execute in-process, so SIM_TALLY already
                # counted this task — record telemetry, never absorb.
                _record_telemetry(report.telemetry, "serial", state.key,
                                  sample)
                done_count += 1
                if progress is not None:
                    progress(done_count, total)
                continue
            if exhausted:
                if not policy.keep_going:
                    report.aborted = True
                    report.executed = done_count
                    return
                break
            time.sleep(state.attempts[-1].retry_delay or 0.0)
    report.executed = done_count


# ---------------------------------------------------------------------------
# supervised worker pool
# ---------------------------------------------------------------------------
def _worker_main(conn, scale: WorkloadScale) -> None:
    """Worker loop: one task per message, result sent back on the pipe.

    A ``None`` message (or pipe EOF) shuts the worker down. Task-level
    fault injection runs here, inside the real worker process, before
    the simulation starts — an injected crash takes the whole process
    down exactly like a genuine OOM kill would.

    An ``ok`` reply's payload is ``(result, sample)``: the RunResult
    plus the task's telemetry sample (wall-clock span and this process's
    SIM_TALLY delta), which the parent absorbs into its own tally.
    """
    from repro.harness.parallel import _execute_measured

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            conn.close()
            return
        key, index, attempt, task = message
        try:
            faults.inject_task_fault(key, index, attempt)
            result, sample = _execute_measured(task, scale)
        except Exception as error:  # noqa: BLE001 - isolate every failure
            try:
                conn.send(("error", key, attempt,
                           f"{type(error).__name__}: {error}"))
            except (BrokenPipeError, OSError):
                return
        else:
            try:
                conn.send(("ok", key, attempt, (result, sample)))
            except (BrokenPipeError, OSError):
                return


class _WorkerHandle:
    """One supervised worker process and its dedicated dispatch pipe."""

    __slots__ = ("conn", "proc", "state", "deadline")

    def __init__(self, mp_context, scale: WorkloadScale, name: str) -> None:
        parent_conn, child_conn = mp_context.Pipe()
        self.proc = mp_context.Process(
            target=_worker_main, args=(child_conn, scale),
            daemon=True, name=name,
        )
        self.proc.start()
        # The parent's copy of the child end must close so a dead worker
        # reliably surfaces as EOF on ``conn``.
        child_conn.close()
        self.conn = parent_conn
        self.state: _TaskState | None = None
        self.deadline: float | None = None

    def dispatch(self, state: _TaskState, timeout: float | None) -> None:
        self.state = state
        self.deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        self.conn.send((state.key, state.index, state.next_attempt,
                        state.task))

    def clear(self) -> None:
        self.state = None
        self.deadline = None

    def destroy(self, kill: bool = True) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if kill and self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=5)


def _run_pool(states: list[_TaskState], scale: WorkloadScale, jobs: int,
              policy: RetryPolicy, report: FailureReport,
              merge: Callable[["RunTask", "RunResult"], None],
              progress: Callable[[int, int], None] | None,
              interrupt: _InterruptFlag) -> None:
    mp_context = get_context()
    total = len(states)
    by_key = {state.key: state for state in states}
    waiting = list(states)
    workers = [
        _WorkerHandle(mp_context, scale, f"repro-supervised-{i}")
        for i in range(min(jobs, total))
    ]
    done_count = 0
    aborting = False

    def fail(state: _TaskState, outcome: str, detail: str) -> None:
        nonlocal aborting
        if _record_failure(state, outcome, detail, policy, time.monotonic()):
            if not policy.keep_going:
                aborting = True
        else:
            # A retry goes ahead of every unstarted task, as in the
            # serial path, so an exhausted budget aborts a fail-fast run
            # as soon as its backoff allows, not after the whole grid.
            waiting.insert(0, state)

    def respawn(worker: _WorkerHandle) -> _WorkerHandle:
        replacement = _WorkerHandle(mp_context, scale, worker.proc.name)
        workers[workers.index(worker)] = replacement
        worker.destroy()
        return replacement

    try:
        while True:
            now = time.monotonic()
            stopping = aborting or bool(interrupt)
            if not stopping:
                for worker in list(workers):
                    if worker.state is not None:
                        continue
                    ready_index = next(
                        (i for i, s in enumerate(waiting)
                         if s.ready_at <= now),
                        None,
                    )
                    if ready_index is None:
                        break
                    state = waiting.pop(ready_index)
                    try:
                        worker.dispatch(state, policy.task_timeout)
                    except (BrokenPipeError, OSError):
                        # The idle worker died before dispatch reached
                        # it; the task never started, so no attempt is
                        # charged — respawn and put it back first.
                        worker.clear()
                        waiting.insert(0, state)
                        respawn(worker)
            running = [w for w in workers if w.state is not None]
            if stopping:
                # Fail-fast abort or SIGINT/SIGTERM: kill in-flight
                # workers; their tasks stay neither done nor failed and
                # land in the report's ``unfinished`` list.
                for worker in running:
                    worker.clear()
                    worker.destroy()
                break
            if not running and not waiting:
                break
            timeout = _poll_timeout(waiting, workers, now)
            if timeout is None:
                # Bounded tick even with no deadline pending, so an
                # interrupt latched mid-wait is honoured promptly.
                timeout = _MAX_TICK
            ready = connection_wait(
                [w.conn for w in workers], timeout=timeout,
            )
            now = time.monotonic()
            conn_to_worker = {w.conn: w for w in workers}
            for conn in ready:
                worker = conn_to_worker[conn]
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    _on_worker_death(worker, respawn, fail)
                    continue
                kind, key, attempt, payload = message
                state = by_key[key]
                worker.clear()
                if kind == "ok":
                    _record_success(state)
                    result, sample = payload
                    merge(state.task, result)
                    _record_telemetry(report.telemetry, worker.proc.name,
                                      state.key, sample)
                    # The worker counted this run in its own process's
                    # SIM_TALLY; fold the delta into the parent tally so
                    # a parallel suite's tally covers every process.
                    SIM_TALLY.absorb(sample["runs"], sample["events"],
                                     sample["cycles"],
                                     sample["sim_wall_seconds"])
                    done_count += 1
                    if progress is not None:
                        progress(done_count, total)
                else:
                    fail(state, "error", payload)
            for worker in list(workers):
                if (worker.state is not None and worker.deadline is not None
                        and now >= worker.deadline):
                    state = worker.state
                    # A result that landed exactly at the deadline still
                    # counts: prefer draining over killing.
                    if worker.conn.poll(0):
                        continue
                    worker.clear()
                    respawn(worker)
                    fail(
                        state, "timeout",
                        f"exceeded {policy.task_timeout}s wall clock; "
                        "worker killed",
                    )
    finally:
        for worker in workers:
            if worker.proc.is_alive() and worker.state is None:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            worker.destroy()
    report.aborted = aborting
    report.executed = done_count


def _on_worker_death(worker: _WorkerHandle,
                     respawn: Callable[[_WorkerHandle], _WorkerHandle],
                     fail: Callable[[_TaskState, str, str], None]) -> None:
    state = worker.state
    worker.clear()
    worker.proc.join(timeout=5)
    exitcode = worker.proc.exitcode
    respawn(worker)
    if state is None:
        return  # an idle worker died; nothing to charge
    injected = " (injected)" if exitcode == faults.INJECTED_CRASH_EXIT else ""
    fail(state, "crash", f"worker died, exit code {exitcode}{injected}")


def _poll_timeout(waiting: Sequence[_TaskState],
                  workers: Sequence[_WorkerHandle],
                  now: float) -> float | None:
    """Sleep until the next deadline or backoff expiry (None = block)."""
    horizons = [w.deadline for w in workers if w.deadline is not None
                and w.state is not None]
    idle = any(w.state is None for w in workers)
    if idle:
        horizons.extend(s.ready_at for s in waiting if s.ready_at > now)
    if not horizons:
        return None
    return min(max(min(horizons) - now, 0.0), _MAX_TICK)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def run_supervised(
    tasks: Sequence["RunTask"],
    scale: WorkloadScale,
    jobs: int,
    policy: RetryPolicy,
    merge: Callable[["RunTask", "RunResult"], None],
    progress: Callable[[int, int], None] | None = None,
) -> FailureReport:
    """Run every task under supervision; returns the failure report.

    Both modes dispatch workload-major (:func:`_workload_major`); task
    indices, fault targets and the report keep plan order.
    ``merge(task, result)`` is called in the supervising process for
    every completed task (in completion order — merging must therefore
    be order-insensitive, which cache seeding is). The report is
    complete in both modes; callers decide whether failures are fatal
    (:class:`~repro.errors.ExecutionError`) based on the policy.
    """
    states = [
        _TaskState(index=i, task=task, key=task_key(task, scale.name))
        for i, task in enumerate(tasks)
    ]
    report = FailureReport(policy=policy, total=len(states))
    serial = jobs <= 1 or len(states) == 1
    report.telemetry = _new_telemetry("serial" if serial else "pool")
    if not states:
        return report
    order = _workload_major(states)
    with _interrupt_guard() as interrupt:
        if serial:
            _run_serial(order, scale, policy, report, merge, progress,
                        interrupt)
        else:
            _run_pool(order, scale, jobs, policy, report, merge, progress,
                      interrupt)
    report.interrupted = bool(interrupt)
    return _finalize_report(report, states, scale.name)


__all__ = [
    "Attempt",
    "ExecutionError",
    "FailureReport",
    "RetryPolicy",
    "TaskReport",
    "repro_command_for",
    "run_supervised",
    "task_key",
]
