"""Dynamic link load balancer (Section 4).

One balancer instance watches one duplex link — a socket's crossbar link
or, on a multi-hop topology, one fabric *edge* (the Section 4 policy
generalizes unchanged: lanes are turned per edge, so rebalancing is
per-edge rather than per-socket). Every ``sample_time`` cycles it
measures the utilization of both directions over the elapsed window and
applies the paper's policy:

1. If one direction is >= 99% saturated while the other is not, reverse
   one of the unsaturated direction's lanes (after quiescing it for
   ``switch_time`` cycles).
2. If both directions are saturated and the link is asymmetric, move one
   lane back toward symmetric to encourage global bandwidth equalization.
3. Otherwise do nothing.

The policy is strictly per-GPU — the paper shows that global policies
miss per-socket phase behaviour — and every link snaps back to symmetric
at each kernel launch.
"""

from __future__ import annotations

from repro.config import ControllerConfig
from repro.interconnect.link import Direction, DuplexLink
from repro.sim.engine import Engine, PeriodicService
from repro.sim.stats import StatGroup, TimeSeries


class LinkBalancer(PeriodicService):
    """Per-link (socket link or topology edge) lane-assignment controller."""

    def __init__(
        self,
        link: DuplexLink,
        engine: Engine,
        config: ControllerConfig,
        record_timeline: bool = False,
        monitor_only: bool = False,
    ) -> None:
        super().__init__(engine, config.link_sample_time)
        self.link = link
        self.switch_time = config.link_switch_time
        self.threshold = config.saturation_threshold
        #: sample (and optionally record) but never turn lanes — used to
        #: capture Figure 5's utilization profile on the static baseline.
        self.monitor_only = monitor_only
        self.stats = StatGroup(f"balancer.{link.label}")
        self.timeline_egress: TimeSeries | None = None
        self.timeline_ingress: TimeSeries | None = None
        if record_timeline:
            # Socket links keep their historic ``link<id>.*`` series
            # names; topology edges record under their edge name.
            self.timeline_egress = TimeSeries(f"{link.label}.egress")
            self.timeline_ingress = TimeSeries(f"{link.label}.ingress")

    def on_kernel_launch(self) -> None:
        """Reset to symmetric lanes, as the paper does at kernel launch."""
        self.link.reset_symmetric()

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self) -> None:
        """Measure both directions over the elapsed window and decide."""
        now = self.engine.now
        util_egress = self.link.windows[Direction.EGRESS].sample(now)
        util_ingress = self.link.windows[Direction.INGRESS].sample(now)
        if self.timeline_egress is not None:
            self.timeline_egress.record(now, util_egress)
        if self.timeline_ingress is not None:
            self.timeline_ingress.record(now, util_ingress)
        if not self.monitor_only:
            self._decide(util_egress, util_ingress)
        self.stats.add("samples")

    def _decide(self, util_egress: float, util_ingress: float) -> None:
        """Apply the Section 4 reconfiguration policy for one sample."""
        egress_sat = util_egress >= self.threshold
        ingress_sat = util_ingress >= self.threshold
        link = self.link
        if egress_sat and not ingress_sat:
            if link.lanes(Direction.INGRESS) > link.config.min_lanes:
                link.turn_lane(Direction.EGRESS, self.switch_time)
                self.stats.add("turns_to_egress")
            return
        if ingress_sat and not egress_sat:
            if link.lanes(Direction.EGRESS) > link.config.min_lanes:
                link.turn_lane(Direction.INGRESS, self.switch_time)
                self.stats.add("turns_to_ingress")
            return
        if egress_sat and ingress_sat and not link.is_symmetric():
            toward = (
                Direction.EGRESS if link.asymmetry() < 0 else Direction.INGRESS
            )
            link.turn_lane(toward, self.switch_time)
            self.stats.add("turns_to_symmetric")
