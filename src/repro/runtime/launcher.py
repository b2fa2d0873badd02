"""Kernel launch orchestration: the NUMA-aware GPU runtime's main loop.

The launcher walks a workload's kernel sequence. For each kernel it:

1. pays the sub-kernel dispatch latency (the software cost that forces
   coarse CTA blocks, Section 3),
2. performs the software coherence flush on every socket (Section 5.2) —
   dirty GPU-side L2 lines drain to their homes, and the next kernel's
   traffic queues behind that drain,
3. resets dynamic links to symmetric (Section 4's per-launch reset),
4. splits the CTA range across sockets per the configured policy and
   starts one sub-kernel per socket,
5. waits for every sub-kernel's completion barrier (write acks are
   awaited per-CTA, so the barrier also implies the promoted system-wide
   memory fence), then launches the next kernel.

Everything runs inside the discrete-event engine: the launcher is just
another event-driven component, so a single ``engine.run()`` drains the
whole workload.
"""

from __future__ import annotations

from typing import Callable

from repro.gpu.socket import GpuSocket
from repro.locality.cta import CtaAssignmentPolicy
from repro.runtime.kernel import KernelWork
from repro.sim.engine import Engine
from repro.sim.stats import StatGroup


class Launcher:
    """Executes a list of kernels on a set of sockets.

    :meth:`begin` schedules the first launch; from then on the loop is
    driven entirely by engine events — each kernel's last sub-kernel
    barrier schedules the next launch ``launch_latency`` cycles later,
    and the launcher reports :attr:`finished` once the list is drained.
    """

    def __init__(
        self,
        engine: Engine,
        sockets: list[GpuSocket],
        kernels: list[KernelWork],
        cta_policy: CtaAssignmentPolicy,
        launch_latency: int,
        on_kernel_launch: Callable[[int], None] | None = None,
        on_workload_done: Callable[[], None] | None = None,
        tracer=None,
    ) -> None:
        self.engine = engine
        self.sockets = sockets
        self.kernels = kernels
        self.cta_policy = cta_policy
        self.launch_latency = launch_latency
        self.on_kernel_launch = on_kernel_launch
        self.on_workload_done = on_workload_done
        #: a repro.obs.tracer.Tracer, or None: per-socket kernel spans
        #: open at launch and close at each socket's sub-kernel barrier.
        self.tracer = tracer
        self.stats = StatGroup("launcher")
        self.kernel_launch_times: list[int] = []
        self._kernel_idx = -1
        #: socket id -> CTAs assigned to its unfinished sub-kernel.
        self._pending_ctas: dict[int, int] = {}
        self._finished = False

    def begin(self) -> None:
        """Schedule the first kernel launch (call once, then run engine)."""
        self.engine.schedule(self.launch_latency, self._launch_next)

    @property
    def finished(self) -> bool:
        """True once every kernel has completed."""
        return self._finished

    def unfinished_report(self) -> str:
        """Where an unfinished launcher stopped: the kernel it waits on and
        the CTAs of each sub-kernel that never reported done."""
        if self._kernel_idx < 0:
            return "no kernel was launched"
        kernel = self.kernels[self._kernel_idx]
        return (
            f"kernel {kernel.name!r} ({self._kernel_idx + 1} of "
            f"{len(self.kernels)}) never completed; pending CTAs by "
            f"socket: {self._pending_ctas}"
        )

    # ------------------------------------------------------------------
    # launch loop
    # ------------------------------------------------------------------
    def _launch_next(self) -> None:
        self._kernel_idx += 1
        if self._kernel_idx >= len(self.kernels):
            self._finished = True
            # The callbacks are usually bound methods of the system that
            # owns this launcher; dropping them here keeps a finished
            # system out of a reference cycle (DESIGN.md, "Heap release").
            done = self.on_workload_done
            self.on_kernel_launch = self.on_workload_done = None
            if done is not None:
                done()
            return
        kernel = self.kernels[self._kernel_idx]
        self.stats.add("kernels_launched")
        self.kernel_launch_times.append(self.engine.now)
        for socket in self.sockets:
            socket.flush_caches()
        if self.on_kernel_launch is not None:
            self.on_kernel_launch(self._kernel_idx)
        blocks = self.cta_policy.assign(kernel.n_ctas, self.sockets, kernel)
        populated = [
            (socket, block)
            for socket, block in zip(self.sockets, blocks)
            if block
        ]
        self._pending_ctas = {
            socket.socket_id: len(block) for socket, block in populated
        }
        if self.tracer is not None:
            self.tracer.on_kernel_launch(
                self._kernel_idx, kernel.name, self.engine.now, populated
            )
        if not populated:
            self.engine.schedule(self.launch_latency, self._launch_next)
            return
        for socket, block in populated:
            ctas = [kernel.materialize(i) for i in block]
            socket.start_subkernel(ctas, self._subkernel_done)

    def _subkernel_done(self, socket_id: int) -> None:
        if self.tracer is not None:
            self.tracer.on_subkernel_done(socket_id, self.engine.now)
        del self._pending_ctas[socket_id]
        if not self._pending_ctas:
            self.stats.add("kernels_completed")
            self.engine.schedule(self.launch_latency, self._launch_next)
