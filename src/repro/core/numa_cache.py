"""NUMA-aware cache partition controller — Figure 7(d)'s algorithm.

One controller per GPU socket. Every ``cache_sample_time`` cycles it
observes two saturation signals and moves one L2 way (and proportionally
one L1 way) between the local and remote groups:

0. at kernel launch the quotas reset to a half/half split,
1. estimate incoming inter-GPU bandwidth from the *outgoing* read-request
   rate multiplied by the response packet size (the paper's trick to avoid
   being fooled by incoming writes), and measure local DRAM utilization,
2. inter-GPU saturated but DRAM not -> grow the remote group,
3. DRAM saturated but inter-GPU not -> grow the local group,
4. both saturated -> step the quotas back toward equal,
5. neither saturated -> do nothing,
6. resample after ``cache_sample_time`` cycles.

Quotas never starve a class: each group keeps at least one way in every
cache (the paper's anti-starvation rule).
"""

from __future__ import annotations

from repro.config import ControllerConfig
from repro.gpu.socket import GpuSocket
from repro.interconnect.link import Direction
from repro.interconnect.packets import DATA_BYTES
from repro.sim.engine import Engine, PeriodicService
from repro.sim.resource import UtilizationWindow
from repro.sim.stats import StatGroup, TimeSeries


class CachePartitionController(PeriodicService):
    """Per-socket dynamic way-partitioning of L1 and L2 caches."""

    def __init__(
        self,
        socket: GpuSocket,
        link,
        engine: Engine,
        config: ControllerConfig,
        record_timeline: bool = False,
    ) -> None:
        super().__init__(engine, config.cache_sample_time)
        self.socket = socket
        #: the socket's bandwidth view: its crossbar DuplexLink, or the
        #: fabric's aggregate monitor port over the incident edges on a
        #: multi-hop topology (anything with ``bandwidth(direction)``).
        self.link = link
        self.threshold = config.saturation_threshold
        self.stats = StatGroup(f"cache_ctl{socket.socket_id}")
        self._dram_window = UtilizationWindow(socket.dram.resource)
        self._last_remote_reads = 0
        n_ways = socket.l2.n_ways
        self._local_ways = n_ways - n_ways // 2
        self._remote_ways = n_ways // 2
        self.timeline: TimeSeries | None = (
            TimeSeries(f"l2_remote_ways{socket.socket_id}") if record_timeline else None
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_kernel_launch(self) -> None:
        """Step 0: reset to the half/half split at kernel launch."""
        n_ways = self.socket.l2.n_ways
        self._local_ways = n_ways - n_ways // 2
        self._remote_ways = n_ways // 2
        self._apply()

    @property
    def quotas(self) -> tuple[int, int]:
        """Current (local_ways, remote_ways) of the socket's L2."""
        return self._local_ways, self._remote_ways

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self) -> None:
        """Steps 1-5 for one sample period."""
        now = self.engine.now
        dram_util = self._dram_window.sample(now)
        inter_util = self._estimate_incoming_utilization(now)
        self._decide(inter_util, dram_util)
        self.stats.add("samples")
        if self.timeline is not None:
            self.timeline.record(now, float(self._remote_ways))

    def _estimate_incoming_utilization(self, now: int) -> float:
        """Step 1: projected ingress utilization from outgoing read rate."""
        remote_reads = self.socket.n_remote_read_requests
        delta = remote_reads - self._last_remote_reads
        self._last_remote_reads = remote_reads
        expected_bytes = delta * DATA_BYTES
        capacity = self.link.bandwidth(Direction.INGRESS) * self.period
        if capacity <= 0:
            return 0.0
        return min(1.0, expected_bytes / capacity)

    def _decide(self, inter_util: float, dram_util: float) -> None:
        inter_sat = inter_util >= self.threshold
        dram_sat = dram_util >= self.threshold
        if inter_sat and not dram_sat:
            if self._local_ways > 1:  # step 2
                self._local_ways -= 1
                self._remote_ways += 1
                self.stats.add("grow_remote")
                self._apply()
        elif dram_sat and not inter_sat:
            if self._remote_ways > 1:  # step 3
                self._remote_ways -= 1
                self._local_ways += 1
                self.stats.add("grow_local")
                self._apply()
        elif inter_sat and dram_sat:  # step 4
            if self._local_ways > self._remote_ways:
                self._local_ways -= 1
                self._remote_ways += 1
                self.stats.add("equalize")
                self._apply()
            elif self._remote_ways > self._local_ways:
                self._remote_ways -= 1
                self._local_ways += 1
                self.stats.add("equalize")
                self._apply()
        # step 5: neither saturated -> no action

    def _apply(self) -> None:
        """Push the L2 quota to the cache and scale it onto the L1s."""
        self.socket.l2.set_quotas(self._local_ways, self._remote_ways)
        l1_ways = self.socket.sms[0].l1.n_ways if self.socket.sms else 0
        if l1_ways < 2:
            return
        n_ways = self._local_ways + self._remote_ways
        l1_remote = round(self._remote_ways * l1_ways / n_ways)
        l1_remote = min(max(l1_remote, 1), l1_ways - 1)
        for sm in self.socket.sms:
            sm.l1.set_quotas(l1_ways - l1_remote, l1_remote)
