"""Traced walkers, sockets and fabric: the per-op hook sites.

The per-op simulator paths (the miss-path walker stages, the burst
issue loop, the fabric send) carry no hook calls at all, so an untraced
system runs no :mod:`repro.obs` frame per op. A system built with a
tracer (:class:`repro.gpu.system.NumaGpuSystem`) is built from the
subclasses here instead. Each override calls the tracer, then the base
method; the end-of-body hooks (``write_end``, ``burst``,
``fabric_send``) call the base method, then the tracer:

==========================  ===============================================
``TracedReadPath``          ``read_begin`` / ``read_hop`` / ``read_end``
``TracedWritePath``         ``write_begin`` / ``write_end``
``TracedGpuSocket``,        ``burst`` (and both build traced walkers when
``TracedLocalGpuSocket``    their pools run dry)
``TracedFabric``            ``fabric_send``
==========================  ===============================================

A traced system simulates exactly what an untraced one does: the
overrides only read walker, socket and fabric state (pinned by
``tests/test_obs.py``). The cold sites (kernel launches, re-homes, lane
turns) need no subclass: each reads the ``tracer`` attribute of its
owner, which :func:`build_traced` sets on every fabric link and the
traced system sets on its placement policy and launcher.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.gpu.socket import GpuSocket, LocalGpuSocket, make_socket
from repro.memory.page_table import PageTable
from repro.sim.engine import Engine
from repro.sim.path import ReadPath, WritePath
from repro.topology.fabric import MultiHopFabric, build_fabric


class TracedReadPath(ReadPath):
    """A read walker whose stages report to the socket's tracer."""

    __slots__ = ("tracer",)

    def __init__(self, socket, pool: list) -> None:
        self.tracer = socket.tracer
        # The base binds the st_* slots, so they reach the overrides.
        super().__init__(socket, pool)

    def _stage_l2(self) -> None:
        self.tracer.on_read_begin(self)
        ReadPath._stage_l2(self)

    def _stage_serve(self) -> None:
        self.tracer.on_read_hop(self, "serve")
        ReadPath._stage_serve(self)

    def _stage_reply(self) -> None:
        self.tracer.on_read_hop(self, "reply")
        ReadPath._stage_reply(self)

    def _stage_complete(self) -> None:
        self.tracer.on_read_end(self)
        ReadPath._stage_complete(self)


class TracedWritePath(WritePath):
    """A write walker whose stages report to the socket's tracer."""

    __slots__ = ("tracer",)

    def __init__(self, socket, pool: list) -> None:
        self.tracer = socket.tracer
        super().__init__(socket, pool)

    def _stage_l2(self) -> None:
        self.tracer.on_write_begin(self)
        WritePath._stage_l2(self)
        # A write the requester L2 absorbed has ended (its callback was
        # handed to the engine); a forwarded one ends in _stage_absorb.
        if self.on_done is None:
            self.tracer.on_write_end(self, self.t_end)

    def _stage_absorb(self) -> None:
        WritePath._stage_absorb(self)
        self.tracer.on_write_end(self, self.t_end)


class _TracedBurst:
    """Burst hook and traced walkers for either socket variant."""

    __slots__ = ()

    read_path_type = TracedReadPath
    write_path_type = TracedWritePath

    def access_burst(self, sm_index, ops, start, limit, on_done):
        now = self.engine.now
        hits = self.n_l1_hits
        i, n_async = super().access_burst(sm_index, ops, start, limit, on_done)
        self.tracer.on_burst(self, sm_index, now, self.n_l1_hits - hits, n_async)
        return i, n_async


class TracedGpuSocket(_TracedBurst, GpuSocket):
    __slots__ = ("tracer",)


class TracedLocalGpuSocket(_TracedBurst, LocalGpuSocket):
    __slots__ = ("tracer",)


class TracedFabric(MultiHopFabric):
    """A fabric that reports every packet to the tracer."""

    __slots__ = ("tracer",)

    def send_bytes(self, now: int, src: int, dst: int, nbytes: int) -> int:
        t = MultiHopFabric.send_bytes(self, now, src, dst, nbytes)
        self.tracer.on_fabric_send(
            src, dst, nbytes, now, t, self._route_hops[src][dst]
        )
        return t


def build_traced(
    config: SystemConfig, engine: Engine, page_table: PageTable, tracer
) -> tuple[TracedFabric | None, list[GpuSocket]]:
    """The fabric (None for one socket) and sockets of a traced system."""
    fabric = build_fabric(config, engine, TracedFabric)
    if fabric is not None:
        fabric.tracer = tracer
        for link in fabric.edges:
            link.tracer = tracer
    sockets = []
    for socket_id in range(config.n_sockets):
        socket = make_socket(
            socket_id, config, engine, page_table, fabric,
            TracedGpuSocket, TracedLocalGpuSocket,
        )
        socket.tracer = tracer
        sockets.append(socket)
    return fabric, sockets
