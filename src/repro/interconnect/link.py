"""A duplex fabric link built from individually reversible lanes.

Table 1: 8 lanes per direction, 8 GB/s per lane, 128-cycle latency. The
paper's Section 4 proposal replaces unidirectional lanes with bidirectional
ones so a link load balancer can *turn* a lane from an underutilized
direction to a saturated one at runtime.

Modelling choices (documented in DESIGN.md):

* Each direction is one work-conserving :class:`BandwidthResource` whose
  rate is ``lanes * lane_bandwidth``. Turning a lane changes rates rather
  than tracking per-lane occupancy — faithful for throughput, which is
  what the experiment measures.
* On a turn, the losing direction's rate drops immediately; the gaining
  direction receives the lane only after ``switch_time`` cycles (the
  quiesce + resynchronization window).

Hot-path notes: the fabric's hop programs admit straight into a
direction's :class:`BandwidthResource`, so per-direction state lives in
plain attributes (no enum-keyed dict hashing) and the per-direction
byte/packet counters are read-only views of that resource's own
``_bytes_total`` / ``_transfers`` — one counter per fact, nothing extra
to bump per hop. Lane-turn counters are slotted ints flattened into
``stats`` on read.
"""

from __future__ import annotations

import enum

from repro.config import LinkConfig
from repro.errors import InterconnectError
from repro.obs.hooks import NOOP, register
from repro.sim.engine import Engine
from repro.sim.resource import BandwidthResource, UtilizationWindow
from repro.sim.stats import StatGroup, flatten_slots

# Observability hook points (repro.obs.hooks): lane reversals and the
# kernel-launch symmetric resets, as instants on the trace timeline.
_obs_lane_turn = NOOP
_obs_lane_reset = NOOP
register(__name__, "_obs_lane_turn", "lane_turn")
register(__name__, "_obs_lane_reset", "lane_reset")


class Direction(enum.Enum):
    """Traffic direction relative to the GPU socket."""

    EGRESS = "egress"  # GPU -> switch (an edge's a -> b)
    INGRESS = "ingress"  # switch -> GPU (an edge's b -> a)

    @property
    def other(self) -> "Direction":
        """The opposite direction."""
        return Direction.INGRESS if self is Direction.EGRESS else Direction.EGRESS


class DuplexLink:
    """One duplex link with dynamic lane assignment."""

    __slots__ = (
        "socket_id",
        "config",
        "engine",
        "latency",
        "label",
        "_lanes_egress",
        "_lanes_ingress",
        "_res_egress",
        "_res_ingress",
        "windows",
        "_stats",
        "_pending_turns",
        "n_lane_turns",
        "n_symmetric_resets",
    )

    #: counter attribute -> public stats key (see repro.sim.stats); the
    #: byte/packet entries are the resource-backed views below.
    _STAT_FIELDS = (
        ("n_egress_bytes", "egress_bytes"),
        ("n_ingress_bytes", "ingress_bytes"),
        ("n_egress_packets", "egress_packets"),
        ("n_ingress_packets", "ingress_packets"),
        ("n_lane_turns", "lane_turns"),
        ("n_symmetric_resets", "symmetric_resets"),
    )

    def __init__(
        self,
        socket_id: int,
        config: LinkConfig,
        engine: Engine,
        label: str | None = None,
    ) -> None:
        self.socket_id = socket_id
        self.config = config
        self.engine = engine
        self.latency = config.latency
        #: display/series name; ``link<id>`` by default (the crossbar's
        #: socket links), while routed topology edges override it with
        #: their edge name (e.g. ``gpu0-gpu1``).
        self.label = label if label is not None else f"link{socket_id}"
        self._lanes_egress = config.lanes_per_direction
        self._lanes_ingress = config.lanes_per_direction
        rate = config.lanes_per_direction * config.lane_bandwidth
        self._res_egress = BandwidthResource(f"{self.label}.egress", rate)
        self._res_ingress = BandwidthResource(f"{self.label}.ingress", rate)
        self.windows = {
            Direction.EGRESS: UtilizationWindow(self._res_egress),
            Direction.INGRESS: UtilizationWindow(self._res_ingress),
        }
        self._stats = StatGroup(self.label)
        self._pending_turns = 0
        self.n_lane_turns = 0
        self.n_symmetric_resets = 0

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StatGroup:
        """Counter view; slotted ints are flattened on every read."""
        return flatten_slots(self, self._STAT_FIELDS, self._stats)

    @property
    def n_egress_bytes(self) -> int:
        """Bytes admitted in the egress direction."""
        return self._res_egress._bytes_total

    @property
    def n_ingress_bytes(self) -> int:
        """Bytes admitted in the ingress direction."""
        return self._res_ingress._bytes_total

    @property
    def n_egress_packets(self) -> int:
        """Packets admitted in the egress direction."""
        return self._res_egress._transfers

    @property
    def n_ingress_packets(self) -> int:
        """Packets admitted in the ingress direction."""
        return self._res_ingress._transfers

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def transfer(
        self, now: int, direction: Direction, nbytes: int, latency: int | None = None
    ) -> int:
        """Send ``nbytes`` in ``direction``; returns arrival cycle.

        Serializes on the direction's current aggregate lane bandwidth and
        then pays the propagation latency (the full link latency unless the
        caller overrides it). The fabric's hop programs inline the same
        lane check and admission.
        """
        if direction is Direction.EGRESS:
            if self._lanes_egress == 0:
                self._raise_emptied(direction)
            res = self._res_egress
        else:
            if self._lanes_ingress == 0:
                self._raise_emptied(direction)
            res = self._res_ingress
        done = res.service(now, nbytes)
        return done + (self.latency if latency is None else latency)

    def _raise_emptied(self, direction: Direction) -> None:
        raise InterconnectError(
            f"{self.label}: no lanes assigned to "
            f"{direction.value}; traffic cannot flow on an emptied "
            "direction (min_lanes=0)"
        )

    def resource(self, direction: Direction) -> BandwidthResource:
        """The bandwidth server for one direction (controllers watch it)."""
        return (
            self._res_egress if direction is Direction.EGRESS else self._res_ingress
        )

    # ------------------------------------------------------------------
    # lane management
    # ------------------------------------------------------------------
    def lanes(self, direction: Direction) -> int:
        """Lanes currently assigned to ``direction`` (committed turns only)."""
        return (
            self._lanes_egress if direction is Direction.EGRESS else self._lanes_ingress
        )

    def _set_lanes(self, direction: Direction, count: int) -> None:
        if direction is Direction.EGRESS:
            self._lanes_egress = count
        else:
            self._lanes_ingress = count

    @property
    def total_lanes(self) -> int:
        """Physical lanes on the link; conserved across all turns."""
        return self._lanes_egress + self._lanes_ingress

    def bandwidth(self, direction: Direction) -> float:
        """Current bytes/cycle for one direction (0.0 when emptied)."""
        if self.lanes(direction) == 0:
            return 0.0
        return self.resource(direction).rate

    def turn_lane(self, toward: Direction, switch_time: int) -> None:
        """Reverse one lane so it serves ``toward``.

        The donor direction loses bandwidth immediately; the recipient
        gains it after ``switch_time`` cycles (quiesce window). Raises
        :class:`InterconnectError` when the donor is at the minimum.
        """
        donor = toward.other
        donor_lanes = self.lanes(donor)
        if donor_lanes <= self.config.min_lanes:
            raise InterconnectError(
                f"{self.label}: cannot drop {donor.value} below "
                f"{self.config.min_lanes} lane(s)"
            )
        donor_lanes -= 1
        self._set_lanes(donor, donor_lanes)
        self._set_lanes(toward, self.lanes(toward) + 1)
        if donor_lanes > 0:
            self.resource(donor).set_rate(donor_lanes * self.config.lane_bandwidth)
        # At 0 lanes (min_lanes=0) the donor direction carries no traffic:
        # transfer() rejects it and bandwidth() reports 0.0. The underlying
        # resource keeps its last positive rate only because a FIFO server
        # cannot represent rate 0; it is unreachable until a lane returns.
        self.n_lane_turns += 1
        self._pending_turns += 1
        _obs_lane_turn(self.label, toward.value, self.engine.now)
        self.engine.schedule(switch_time, self._commit_turn, toward)

    def _commit_turn(self, toward: Direction) -> None:
        """Apply the gained lane's bandwidth after the quiesce window."""
        self._pending_turns -= 1
        # Rate follows the *current* lane count; if further turns happened
        # during the quiesce they each scheduled their own commit. The
        # direction may have been emptied again meanwhile (min_lanes=0) —
        # then there is no rate to apply until a later turn restores it.
        lanes = self.lanes(toward)
        if lanes > 0:
            self.resource(toward).set_rate(lanes * self.config.lane_bandwidth)

    def is_symmetric(self) -> bool:
        """True when both directions hold the same number of lanes."""
        return self._lanes_egress == self._lanes_ingress

    def asymmetry(self) -> int:
        """Egress lanes minus ingress lanes (signed)."""
        return self._lanes_egress - self._lanes_ingress

    def reset_symmetric(self) -> None:
        """Snap back to the symmetric design point (kernel-launch reset).

        The paper reconfigures links to symmetric at every kernel launch.
        Outstanding quiesce windows are subsumed: rates are set directly.
        """
        half = self.total_lanes // 2
        rate = half * self.config.lane_bandwidth
        self._lanes_egress = half
        self._lanes_ingress = half
        self._res_egress.set_rate(rate)
        self._res_ingress.set_rate(rate)
        self.n_symmetric_resets += 1
        _obs_lane_reset(self.label, self.engine.now)
