"""Unit tests for links, lanes, the switch, and packets."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LinkConfig, scaled_config
from repro.errors import ConfigError, InterconnectError
from repro.interconnect.link import Direction, DuplexLink
from repro.interconnect.packets import (
    CONTROL_BYTES,
    DATA_BYTES,
    PacketKind,
    packet_bytes,
)
from repro.sim.engine import Engine
from repro.topology import MultiHopFabric, TopologySpec, build_fabric, crossbar


def make_link(**overrides):
    engine = Engine()
    config = LinkConfig(**overrides)
    return DuplexLink(0, config, engine), engine


def test_packet_sizes():
    assert packet_bytes(PacketKind.READ_REQUEST) == CONTROL_BYTES
    assert packet_bytes(PacketKind.WRITE_ACK) == CONTROL_BYTES
    assert packet_bytes(PacketKind.READ_RESPONSE) == DATA_BYTES
    assert packet_bytes(PacketKind.WRITE_DATA) == DATA_BYTES
    assert packet_bytes(PacketKind.WRITEBACK_DATA) == DATA_BYTES
    assert DATA_BYTES == 128 + CONTROL_BYTES


def test_direction_other():
    assert Direction.EGRESS.other is Direction.INGRESS
    assert Direction.INGRESS.other is Direction.EGRESS


def test_symmetric_start():
    link, _ = make_link()
    assert link.is_symmetric()
    assert link.lanes(Direction.EGRESS) == 8
    assert link.bandwidth(Direction.EGRESS) == pytest.approx(64.0)


def test_transfer_serializes_and_adds_latency():
    link, _ = make_link()
    # 64 bytes at 64 B/cyc = 1 cycle + 128 latency.
    assert link.transfer(0, Direction.EGRESS, 64) == 129


def test_transfer_latency_override():
    link, _ = make_link()
    assert link.transfer(0, Direction.EGRESS, 64, latency=10) == 11


def test_transfer_counts_stats():
    link, _ = make_link()
    link.transfer(0, Direction.EGRESS, 100)
    link.transfer(0, Direction.INGRESS, 50)
    assert link.stats["egress_bytes"] == 100
    assert link.stats["ingress_bytes"] == 50
    assert link.stats["egress_packets"] == 1


def test_turn_lane_conserves_total():
    link, engine = make_link()
    link.turn_lane(Direction.EGRESS, switch_time=100)
    assert link.total_lanes == 16
    assert link.lanes(Direction.EGRESS) == 9
    assert link.lanes(Direction.INGRESS) == 7
    engine.run()
    assert link.total_lanes == 16


def test_donor_loses_bandwidth_immediately():
    link, _ = make_link()
    link.turn_lane(Direction.EGRESS, switch_time=100)
    assert link.bandwidth(Direction.INGRESS) == pytest.approx(7 * 8.0)


def test_recipient_gains_bandwidth_after_switch_time():
    link, engine = make_link()
    link.turn_lane(Direction.EGRESS, switch_time=100)
    # Before the quiesce commits, egress still runs at the old rate.
    assert link.bandwidth(Direction.EGRESS) == pytest.approx(64.0)
    engine.run()
    assert engine.now == 100
    assert link.bandwidth(Direction.EGRESS) == pytest.approx(9 * 8.0)


def test_min_lanes_enforced():
    link, engine = make_link()
    for _ in range(7):
        link.turn_lane(Direction.EGRESS, switch_time=1)
        engine.run()
    assert link.lanes(Direction.INGRESS) == 1
    with pytest.raises(InterconnectError):
        link.turn_lane(Direction.EGRESS, switch_time=1)


def test_asymmetry_sign():
    link, engine = make_link()
    assert link.asymmetry() == 0
    link.turn_lane(Direction.EGRESS, switch_time=1)
    engine.run()
    assert link.asymmetry() == 2  # 9 egress vs 7 ingress


def test_reset_symmetric():
    link, engine = make_link()
    for _ in range(3):
        link.turn_lane(Direction.INGRESS, switch_time=1)
    engine.run()
    link.reset_symmetric()
    assert link.is_symmetric()
    assert link.bandwidth(Direction.EGRESS) == pytest.approx(64.0)
    assert link.bandwidth(Direction.INGRESS) == pytest.approx(64.0)


def test_min_lanes_floor_rate_is_exact():
    # At the min_lanes=1 floor the donor keeps exactly one lane's worth
    # of bandwidth — no more, no less.
    link, engine = make_link()
    for _ in range(7):
        link.turn_lane(Direction.EGRESS, switch_time=1)
        engine.run()
    assert link.lanes(Direction.INGRESS) == 1
    assert link.bandwidth(Direction.INGRESS) == pytest.approx(8.0)


def test_zero_min_lanes_empties_without_phantom_bandwidth():
    # Regression: with min_lanes=0 the donor used to keep one lane's
    # bandwidth (max(lanes, 1)) even when holding zero lanes.
    link, engine = make_link(min_lanes=0)
    for _ in range(8):
        link.turn_lane(Direction.EGRESS, switch_time=1)
        engine.run()
    assert link.lanes(Direction.INGRESS) == 0
    assert link.bandwidth(Direction.INGRESS) == 0.0
    assert link.lanes(Direction.EGRESS) == 16
    assert link.bandwidth(Direction.EGRESS) == pytest.approx(16 * 8.0)
    # An emptied direction cannot carry traffic.
    with pytest.raises(InterconnectError):
        link.transfer(engine.now, Direction.INGRESS, 64)
    # And the floor still raises once reached.
    with pytest.raises(InterconnectError):
        link.turn_lane(Direction.EGRESS, switch_time=1)


def test_commit_after_direction_emptied_mid_quiesce():
    # A direction can gain a lane (commit pending) and be emptied again
    # before that commit fires; the commit must not apply a zero rate.
    link, engine = make_link(min_lanes=0)
    link.turn_lane(Direction.EGRESS, switch_time=100)
    for _ in range(9):
        link.turn_lane(Direction.INGRESS, switch_time=1)
        engine.run(until=engine.now + 2)
    assert link.lanes(Direction.EGRESS) == 0
    engine.run()  # the outstanding egress commit fires harmlessly
    assert link.bandwidth(Direction.EGRESS) == 0.0
    assert link.total_lanes == 16


def test_emptied_direction_recovers_on_turn_back():
    link, engine = make_link(min_lanes=0)
    for _ in range(8):
        link.turn_lane(Direction.EGRESS, switch_time=1)
    engine.run()
    link.turn_lane(Direction.INGRESS, switch_time=1)
    engine.run()
    assert link.lanes(Direction.INGRESS) == 1
    assert link.bandwidth(Direction.INGRESS) == pytest.approx(8.0)
    # Traffic flows again.
    assert link.transfer(engine.now, Direction.INGRESS, 8) > engine.now


def test_lane_turn_counts_stat():
    link, engine = make_link()
    link.turn_lane(Direction.EGRESS, switch_time=1)
    engine.run()
    assert link.stats["lane_turns"] == 1


# ---------------------------------------------------------------------------
# switch: the paper's crossbar, built as a star fabric
# ---------------------------------------------------------------------------

def star(n_sockets, link=LinkConfig()):
    """The crossbar exactly as a system builds it (no topology)."""
    config = replace(scaled_config(n_sockets=n_sockets), link=link)
    return build_fabric(config, Engine())


def test_switch_needs_two_sockets():
    with pytest.raises(ConfigError):
        crossbar(1)
    lone = TopologySpec("lone", "crossbar", ("gpu0",))
    with pytest.raises(InterconnectError):
        MultiHopFabric(lone, Engine())


def test_switch_rejects_self_route():
    switch = star(4)
    with pytest.raises(InterconnectError):
        switch.send(0, 1, 1, PacketKind.READ_REQUEST)


def test_switch_end_to_end_latency():
    switch = star(2)
    # 32B request: 1 cycle on each link + 2 x 64 half-latency.
    arrival = switch.send(0, 0, 1, PacketKind.READ_REQUEST)
    assert arrival == 1 + 64 + 1 + 64


def test_switch_charges_both_links():
    switch = star(2)
    switch.send(0, 0, 1, PacketKind.READ_RESPONSE)
    links = switch.balancer_links
    assert links[0].stats["egress_bytes"] == DATA_BYTES
    assert links[1].stats["ingress_bytes"] == DATA_BYTES
    assert links[1].stats["egress_bytes"] == 0


def test_switch_total_bytes_counts_once_per_packet():
    switch = star(4)
    switch.send(0, 0, 1, PacketKind.READ_REQUEST)
    switch.send(0, 2, 3, PacketKind.READ_RESPONSE)
    assert switch.total_bytes == CONTROL_BYTES + DATA_BYTES


def test_switch_contention_on_shared_ingress():
    """Two sources sending to one destination serialize on its ingress."""
    switch = star(3)
    a1 = switch.send(0, 0, 2, PacketKind.READ_RESPONSE)
    a2 = switch.send(0, 1, 2, PacketKind.READ_RESPONSE)
    assert a2 > a1


class TwoHopReference:
    """The crossbar in closed form: source egress, then destination
    ingress, each a FIFO admission followed by half the link latency."""

    def __init__(self, links, latency):
        self.links, self.half = links, latency // 2
        self.free, self.bytes, self.packets = {}, {}, {}

    def hop(self, t, sid, direction, nbytes):
        key = (sid, direction)
        rate = self.links[sid].resource(direction).rate
        self.free[key] = max(t, self.free.get(key, 0.0)) + nbytes / rate
        self.bytes[key] = self.bytes.get(key, 0) + nbytes
        self.packets[key] = self.packets.get(key, 0) + 1
        return math.ceil(self.free[key]) + self.half

    def send(self, now, src, dst, nbytes):
        at_switch = self.hop(now, src, Direction.EGRESS, nbytes)
        return self.hop(at_switch, dst, Direction.INGRESS, nbytes)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=150).map(lambda k: 2 * k + 1),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),  # cycles since last op
            st.integers(min_value=0, max_value=3),  # src / link
            st.integers(min_value=0, max_value=3),  # dst
            st.sampled_from([CONTROL_BYTES, DATA_BYTES, 1000]),
            st.sampled_from(["send", "send", "turn", "reset"]),
        ),
        max_size=120,
    ),
)
def test_star_matches_closed_form_two_hop_reference(latency, ops):
    """Arrivals and per-link counters equal the two-hop closed form over
    odd latencies, with lane turns and symmetric resets interleaved."""
    link = LinkConfig(lanes_per_direction=4, lane_bandwidth=3.0, latency=latency)
    switch = star(4, link)
    engine = switch.engine
    links = switch.balancer_links
    reference = TwoHopReference(links, latency)
    now = 0
    for delta, src, dst, nbytes, op in ops:
        now += delta
        engine.run(until=now)
        if op == "turn":
            toward = Direction.EGRESS if dst % 2 else Direction.INGRESS
            if links[src].lanes(toward.other) > link.min_lanes:
                links[src].turn_lane(toward, switch_time=dst * 7)
        elif op == "reset":
            links[src].reset_symmetric()
        elif src != dst:
            expected = reference.send(now, src, dst, nbytes)
            assert switch.send_bytes(now, src, dst, nbytes) == expected
    for sid, duplex in enumerate(links):
        for direction in Direction:
            key = (sid, direction)
            stats = duplex.stats
            assert stats[f"{direction.value}_bytes"] == reference.bytes.get(key, 0)
            assert stats[f"{direction.value}_packets"] == reference.packets.get(key, 0)
    assert switch.total_bytes == sum(reference.bytes.values()) // 2
