"""Inter-GPU interconnect: lanes, links, packets, and the load balancer.

The fabric that routes packets over these links (the paper's crossbar
included) is :class:`repro.topology.fabric.MultiHopFabric`.
"""

from repro.interconnect.balancer import LinkBalancer
from repro.interconnect.link import Direction, DuplexLink
from repro.interconnect.packets import (
    CONTROL_BYTES,
    DATA_BYTES,
    PacketKind,
    packet_bytes,
)

__all__ = [
    "LinkBalancer",
    "Direction",
    "DuplexLink",
    "CONTROL_BYTES",
    "DATA_BYTES",
    "PacketKind",
    "packet_bytes",
]
