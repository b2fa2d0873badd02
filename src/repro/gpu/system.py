"""The NUMA GPU system: sockets + fabric + runtime + dynamic controllers.

:class:`NumaGpuSystem` is the top-level simulation object. Construct it
from a :class:`repro.config.SystemConfig` (usually via
:func:`repro.core.builder.build_system`), then call :meth:`run` with a
list of kernels; it returns a :class:`repro.metrics.report.RunResult`.
"""

from __future__ import annotations

import gc
import time

from repro.config import CacheArch, SystemConfig
from repro.core.link_policy import build_balancers
from repro.core.numa_cache import CachePartitionController
from repro.errors import SimulationError
from repro.gpu.socket import make_socket
from repro.locality.cta import build_cta_policy
from repro.locality.distance import DistanceModel
from repro.memory.page_table import PageTable
from repro.obs import hooks as obs_hooks
from repro.obs.metrics import MetricRegistry
from repro.topology.fabric import build_fabric
from repro.metrics.report import RunResult, collect_results
from repro.runtime.kernel import KernelWork
from repro.runtime.launcher import Launcher
from repro.runtime.uvm import UvmManager
from repro.sim.engine import Engine
from repro.sim.instrumentation import SIM_TALLY


def _wire_default_metrics(registry: MetricRegistry, system: "NumaGpuSystem") -> None:
    """Register the stock gauge/counter set for a traced system.

    Gauges are pure reads of slotted counters (never consuming probes
    like ``UtilizationWindow.sample`` — the balancer policy depends on
    that window state); counters capture end-of-run totals.
    """
    for socket in system.sockets:
        sid = socket.socket_id
        registry.gauge(f"socket{sid}.l2_misses", lambda s=socket: s.n_l2_misses)
        registry.gauge(f"socket{sid}.dram_bytes", lambda s=socket: s.dram.n_bytes)
    if system.fabric is not None:
        registry.gauge("fabric.bytes", lambda f=system.fabric: f.n_bytes)
        registry.gauge("fabric.packets", lambda f=system.fabric: f.n_packets)
    registry.counter("migrations", lambda pt=system.page_table: pt.migrations)
    registry.counter(
        "re_homed_pages", lambda pt=system.page_table: pt.re_homed_pages
    )


class NumaGpuSystem:
    """A multi-socket (or single-socket) GPU built from one config."""

    def __init__(
        self,
        config: SystemConfig,
        record_timelines: bool = False,
        tracer=None,
        metrics_interval: int = 0,
    ) -> None:
        self.config = config
        self.record_timelines = record_timelines
        #: a repro.obs.tracer.Tracer, or None. A traced system is built
        #: from the traced sockets, walkers and fabric of
        #: repro.obs.traced (the per-op sites), and binds the tracer
        #: into the registry's cold hook sites for the duration of
        #: run(). Untraced, no hook runs per op and nothing extra is
        #: scheduled or stored, so results are byte-identical to
        #: pre-observability runs.
        self.tracer = tracer
        self.metrics: MetricRegistry | None = None
        self._metrics_interval = metrics_interval
        if tracer is not None and metrics_interval > 0:
            self.metrics = MetricRegistry()
        self.engine = Engine()
        self.page_table = PageTable(config)
        self.uvm = UvmManager(self.page_table)
        # The fabric-or-none decision lives in one documented helper
        # (`repro.topology.fabric.build_fabric`): None for one socket,
        # a MultiHopFabric (the crossbar star by default) otherwise.
        if tracer is None:
            self.fabric = build_fabric(config, self.engine)
            self.sockets = [
                make_socket(s, config, self.engine, self.page_table, self.fabric)
                for s in range(config.n_sockets)
            ]
        else:
            # Imported here so that an untraced process never loads the
            # traced classes.
            from repro.obs.traced import build_traced

            self.fabric, self.sockets = build_traced(
                config, self.engine, self.page_table, tracer
            )
        if self.fabric is not None:
            self.fabric.owners = list(self.sockets)
        # The locality layer: the fabric's distance model feeds both the
        # placement policy (hop-weighted homing / migration charges) and
        # the CTA-assignment policy (affinity-aware blocks). The default
        # policies ignore it entirely, so the wiring is behaviourally
        # inert on the paper's configuration (pinned by the goldens).
        self.distance_model = (
            self.fabric.distance_model()
            if self.fabric is not None
            else DistanceModel.identity(config.n_sockets)
        )
        self.page_table.attach_fabric(
            self.fabric, self.engine, self.distance_model
        )
        self.cta_policy = build_cta_policy(
            config, page_table=self.page_table, distance=self.distance_model
        )
        self.balancers = build_balancers(
            config,
            self.fabric,
            self.engine,
            record_timelines=record_timelines,
            monitor_only=record_timelines,
        )
        self.cache_controllers: list[CachePartitionController] = []
        if config.cache_arch is CacheArch.NUMA_AWARE and self.fabric is not None:
            self.cache_controllers = [
                CachePartitionController(
                    socket,
                    self.fabric.monitor_port(socket.socket_id),
                    self.engine,
                    config.controllers,
                    record_timeline=record_timelines,
                )
                for socket in self.sockets
            ]
        if self.metrics is not None:
            _wire_default_metrics(self.metrics, self)
        self._launcher: Launcher | None = None

    def __del__(self) -> None:
        """Break the cycles a system cannot avoid, so it frees by refcount.

        Sockets and fabric point at each other, walkers and cache recency
        lists are cycles by construction, and a dynamic placement policy
        points back at its page table (DESIGN.md, "Heap release"). They
        are cut only here, once nothing can inspect the system any more.
        """
        sockets = getattr(self, "sockets", None)
        if sockets is None:  # __init__ failed before the sockets existed
            return
        for socket in sockets:
            socket.release()
        if self.fabric is not None:
            self.fabric.owners = None
        self.page_table.policy.detach()

    # ------------------------------------------------------------------
    # observability (DESIGN.md, "Observability contract")
    # ------------------------------------------------------------------
    def _obs_enable(self) -> None:
        """Bind the tracer into the cold hook sites; start the sampler."""
        if self.tracer is None:
            return
        obs_hooks.enable(self.tracer)
        if self.metrics is not None and not self.metrics.active:
            self.metrics.start(self.engine, self._metrics_interval)

    def _obs_disable(self) -> None:
        """Finish the registry and restore every hook site to NOOP."""
        if self.tracer is None:
            return
        if self.metrics is not None:
            self.metrics.finish()
        obs_hooks.disable()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, kernels: list[KernelWork], workload_name: str = "") -> RunResult:
        """Execute a kernel sequence to completion and collect results."""
        for controller in self.cache_controllers:
            controller.start()
        for balancer in self.balancers:
            balancer.start()
        self._launcher = Launcher(
            engine=self.engine,
            sockets=self.sockets,
            kernels=kernels,
            cta_policy=self.cta_policy,
            launch_latency=self.config.kernel_launch_latency,
            on_kernel_launch=self._on_kernel_launch,
            on_workload_done=self._on_workload_done,
        )
        self._obs_enable()
        try:
            self._launcher.begin()
            self._drain()
        finally:
            self._obs_disable()
        if not self._launcher.finished:
            # An explicit error, not an assert: ``python -O`` strips
            # asserts, and a stuck drain must never report a result.
            raise SimulationError(
                "engine drained before kernels completed: "
                + self._launcher.unfinished_report()
            )
        return collect_results(self, workload_name)

    def _drain(self) -> None:
        """Drain the engine with GC paused and the run tally fed."""
        events_before = self.engine.events_processed
        # Wall-clock here only feeds the run tally, never sim
        # state: the engine drain between these two reads is clock-free.
        wall_start = time.perf_counter()  # repro-lint: disable=determinism
        # The drain allocates millions of short-lived tuples and no cycles;
        # generational GC passes during the run are pure overhead (~15%).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.engine.run()
        finally:
            if gc_was_enabled:
                gc.enable()
        SIM_TALLY.record(
            self.engine.events_processed - events_before,
            self.engine.now,
            time.perf_counter() - wall_start,  # repro-lint: disable=determinism
        )

    def _on_kernel_launch(self, kernel_index: int) -> None:
        for balancer in self.balancers:
            if not balancer.monitor_only:
                balancer.on_kernel_launch()
        for controller in self.cache_controllers:
            controller.on_kernel_launch()

    def _on_workload_done(self) -> None:
        for balancer in self.balancers:
            balancer.stop()
        for controller in self.cache_controllers:
            controller.stop()
        # The metric sampler is a periodic service like the balancers:
        # it must stop here or the engine would never drain.
        if self.metrics is not None:
            self.metrics.stop()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def launcher(self) -> Launcher | None:
        """The launcher of the current/most recent run."""
        return self._launcher

    @property
    def cycles(self) -> int:
        """Simulation time so far."""
        return self.engine.now
