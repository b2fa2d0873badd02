"""CTA (thread block) execution model.

A CTA is a sequence of *slices*. Each slice bundles some compute cycles
with a burst of coalesced memory operations (one op = one 128 B line
access by one warp). The slice completes when its compute time has
elapsed *and* all of its memory operations have returned; the CTA then
advances to the next slice. Within a slice at most ``mlp`` operations are
outstanding at once — this bounded memory-level parallelism is what makes
throughput latency- and bandwidth-sensitive, the regime every mechanism in
the paper operates on.

L1 hits complete synchronously (their pipeline latency is folded into the
slice's compute cycles); only misses travel through the event queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from repro.sim.engine import Engine


@dataclass(frozen=True, slots=True)
class MemOp:
    """One coalesced per-warp memory operation."""

    addr: int
    is_write: bool


@dataclass(frozen=True, slots=True)
class Slice:
    """A unit of CTA progress: compute overlapped with a memory burst."""

    compute_cycles: int
    ops: tuple[MemOp, ...]


class MemoryPort(Protocol):
    """What a CTA needs from its socket: an access entry point.

    Ports may additionally provide ``access_burst(sm_index, ops, start,
    limit, on_done) -> (next_index, async_started)`` — the fused form
    :class:`CtaExecution` prefers when present (see
    :meth:`repro.gpu.socket.GpuSocket.access_burst`). ``access`` alone is
    sufficient for simple ports (tests, custom models).
    """

    def access(
        self, sm_index: int, addr: int, is_write: bool, on_done: Callable[[], None]
    ) -> bool:
        """Issue one access; True means it completed synchronously."""
        ...  # pragma: no cover - protocol


class CtaExecution:
    """Runs one CTA's slices on one SM, respecting the MLP bound."""

    __slots__ = (
        "cta_id",
        "sm_index",
        "engine",
        "port",
        "_burst",
        "mlp",
        "on_complete",
        "_slices",
        "_slice_idx",
        "_ops",
        "_n_ops",
        "_op_idx",
        "_outstanding",
        "_compute_pending",
        "_done",
        "_compute_cb",
    )

    def __init__(
        self,
        cta_id: int,
        sm_index: int,
        slices: list[Slice],
        engine: Engine,
        port: MemoryPort,
        mlp: int,
        on_complete: Callable[["CtaExecution"], None],
    ) -> None:
        self.cta_id = cta_id
        self.sm_index = sm_index
        self.engine = engine
        self.port = port
        self._burst = getattr(port, "access_burst", None)
        self.mlp = max(1, mlp)
        self.on_complete = on_complete
        self._slices = slices
        self._slice_idx = -1
        self._ops: tuple[MemOp, ...] = ()
        self._n_ops = 0
        self._op_idx = 0
        self._outstanding = 0
        self._compute_pending = False
        self._done = False
        # Prebound once: the compute-done event is scheduled per slice
        # with no bound arguments.
        self._compute_cb = self._compute_done

    def start(self) -> None:
        """Begin executing the first slice (call once)."""
        self._advance()

    # ------------------------------------------------------------------
    # slice lifecycle
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        self._slice_idx += 1
        if self._slice_idx >= len(self._slices):
            self._done = True
            # No compute event is pending once the last slice is done;
            # dropping the prebound method makes a finished CTA acyclic.
            self._compute_cb = None
            self.on_complete(self)
            return
        current = self._slices[self._slice_idx]
        self._ops = current.ops
        self._n_ops = len(current.ops)
        self._op_idx = 0
        self._outstanding = 0
        self._compute_pending = True
        self.engine.schedule(current.compute_cycles, self._compute_cb)
        self._issue_ops()

    def _issue_ops(self) -> None:
        # Fused issue path: the whole burst of consecutive L1 hits (plus
        # any misses/writes it starts) runs in one port call with the
        # socket's state in locals — no per-op call or callback
        # round-trips. Safe because the port never invokes on_done
        # synchronously — an async op's completion always goes through the
        # event queue, so _op_idx/_outstanding cannot be mutated
        # reentrantly mid-burst.
        i = self._op_idx
        outstanding = self._outstanding
        n_ops = self._n_ops
        if i >= n_ops or outstanding >= self.mlp:
            return
        burst = self._burst
        if burst is not None:
            i, n_async = burst(
                self.sm_index, self._ops, i, self.mlp - outstanding, self._op_done
            )
            self._op_idx = i
            self._outstanding = outstanding + n_async
            return
        # access()-only port (simple test doubles): per-op loop.
        ops = self._ops
        mlp = self.mlp
        access = self.port.access
        sm_index = self.sm_index
        op_done = self._op_done
        while i < n_ops and outstanding < mlp:
            op = ops[i]
            i += 1
            if not access(sm_index, op.addr, op.is_write, op_done):
                outstanding += 1
        self._op_idx = i
        self._outstanding = outstanding

    def _op_done(self) -> None:
        # _maybe_finish_slice is inlined here (this runs once per async
        # memory op); the re-reads after _issue_ops are deliberate — it
        # mutates _op_idx and _outstanding. The finish-check conditions
        # are ordered most-likely-false first (side-effect free, so the
        # short-circuit reorder cannot change behaviour).
        self._outstanding -= 1
        if self._op_idx < self._n_ops:
            self._issue_ops()
        if (
            self._outstanding == 0
            and not self._compute_pending
            and self._op_idx >= self._n_ops
            and not self._done
        ):
            self._advance()

    def _compute_done(self) -> None:
        self._compute_pending = False
        self._maybe_finish_slice()

    def _maybe_finish_slice(self) -> None:
        if (
            not self._compute_pending
            and self._outstanding == 0
            and self._op_idx >= len(self._ops)
            and not self._done
        ):
            self._advance()

    # ------------------------------------------------------------------
    # introspection (tests)
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """True once every slice has completed."""
        return self._done

    @property
    def outstanding(self) -> int:
        """Memory operations currently in flight (bounded by ``mlp``)."""
        return self._outstanding

    @property
    def current_slice(self) -> int:
        """Index of the slice being executed (-1 before start)."""
        return self._slice_idx
