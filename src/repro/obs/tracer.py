"""The Tracer: simulated-time spans and instants from the hook sites.

One :class:`Tracer` instance collects everything a traced run emits.
Every handler reads *simulated* time (``engine.now`` / stage-quoted
completion cycles) — never the wall clock — so the recorded event
stream is a pure function of the configuration and two runs of the
same config produce identical traces (pinned by ``tests/test_obs.py``).

Event kinds and their record shapes (plain tuples, exported via
:meth:`Tracer.to_dict` / :mod:`repro.obs.chrome`):

==============  ======================================================
kernel_spans    ``(kernel_idx, name, socket_id, t_start, t_end)`` —
                one per populated socket per kernel (launch to
                sub-kernel completion barrier).
read_spans      ``(socket_id, line, cls, home_id, t_start, t_end,
                hops)`` — one per ``ReadPath`` walk (L1 miss to L1
                refill); ``hops`` is a tuple of ``(tag, cycle)``
                waypoints (``serve`` at the home socket, ``reply``
                back at the requester).
write_spans     ``(socket_id, line, is_local, home_id, t_start,
                t_end)`` — one per ``WritePath`` walk.
migrations      ``(page, old_home, new_home, cycle)`` instants from
                dynamic placement re-homes.
fabric_sends    ``(src, dst, nbytes, t_start, t_end, hops)`` — one
                per fabric packet (crossbar hops = 2; multi-hop
                fabrics report their routed hop count).
lane_events     ``(link_label, kind, cycle)`` — ``turn_egress`` /
                ``turn_ingress`` lane reversals and kernel-launch
                ``reset`` events.
==============  ======================================================

Per-kind event lists are capped (``max_events_per_kind``) with exact
``dropped`` counts, so a trace of a long run stays bounded while the
truncation is visible in the exported metadata rather than silent.
Burst-level activity (per-SM issue counts) is too high-volume for
per-event records; :meth:`on_burst` folds it into running counters
that the metric registry and trace metadata report instead.
"""

from __future__ import annotations


class Tracer:
    """Collects spans/instants from enabled hook sites (simulated time)."""

    def __init__(self, max_events_per_kind: int = 50000) -> None:
        self.max_events_per_kind = max_events_per_kind
        self.kernel_spans: list[tuple] = []
        self.read_spans: list[tuple] = []
        self.write_spans: list[tuple] = []
        self.migrations: list[tuple] = []
        self.fabric_sends: list[tuple] = []
        self.lane_events: list[tuple] = []
        #: exact per-kind counts of events past the cap (empty = none).
        self.dropped: dict[str, int] = {}
        # Burst-level aggregates (too hot for per-event records).
        self.n_bursts = 0
        self.n_l1_hits = 0
        self.n_async_issued = 0
        # Open-span state keyed by walker identity; walkers are pooled
        # per socket so an id is reused only after its span closed.
        self._open_kernel: tuple | None = None
        self._open_reads: dict[int, tuple] = {}
        self._open_writes: dict[int, int] = {}

    # ------------------------------------------------------------------
    # bounded append
    # ------------------------------------------------------------------
    def _append(self, events: list, kind: str, item: tuple) -> None:
        if len(events) < self.max_events_per_kind:
            events.append(item)
        else:
            self.dropped[kind] = self.dropped.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # kernel lifecycle (runtime/launcher.py)
    # ------------------------------------------------------------------
    def on_kernel_launch(self, idx, name, now, populated) -> None:
        """A kernel launched; ``populated`` lists its (socket, block)s."""
        self._open_kernel = (idx, name, now)

    def on_subkernel_done(self, socket_id, now) -> None:
        """One socket finished its sub-kernel: close its kernel span."""
        if self._open_kernel is not None:
            idx, name, t_start = self._open_kernel
            self._append(
                self.kernel_spans,
                "kernel",
                (idx, name, socket_id, t_start, now),
            )

    # ------------------------------------------------------------------
    # miss-path walkers (TracedReadPath / TracedWritePath, obs/traced.py)
    # ------------------------------------------------------------------
    def on_read_begin(self, walker) -> None:
        """A ``ReadPath`` entered its L2 stage."""
        self._open_reads[id(walker)] = (walker.engine.now, [])

    def on_read_hop(self, walker, tag) -> None:
        """A waypoint (``serve`` / ``reply``) on an open read walk."""
        entry = self._open_reads.get(id(walker))
        if entry is not None:
            entry[1].append((tag, walker.engine.now))

    def on_read_end(self, walker) -> None:
        """The walk completed (L1s refilled); close the span."""
        entry = self._open_reads.pop(id(walker), None)
        if entry is None:
            return
        t_start, hops = entry
        self._append(
            self.read_spans,
            "read",
            (
                walker.socket_id,
                walker.line,
                walker.cls,
                walker.home_id,
                t_start,
                walker.engine.now,
                tuple(hops),
            ),
        )

    def on_write_begin(self, walker) -> None:
        """A ``WritePath`` entered its L2 stage."""
        self._open_writes[id(walker)] = walker.engine.now

    def on_write_end(self, walker, t_end) -> None:
        """The write was absorbed/acked at ``t_end``; close the span."""
        t_start = self._open_writes.pop(id(walker), None)
        if t_start is None:
            return
        self._append(
            self.write_spans,
            "write",
            (
                walker.socket_id,
                walker.line,
                1 if walker.is_local else 0,
                walker.home_id,
                t_start,
                t_end,
            ),
        )

    # ------------------------------------------------------------------
    # burst aggregates (traced sockets, obs/traced.py)
    # ------------------------------------------------------------------
    def on_burst(self, socket, sm_index, now, n_hits, n_async) -> None:
        """Fold one SM issue burst into the running counters."""
        self.n_bursts += 1
        self.n_l1_hits += n_hits
        self.n_async_issued += n_async

    # ------------------------------------------------------------------
    # placement / fabric / lanes
    # ------------------------------------------------------------------
    def on_page_rehome(self, page, old, new, engine) -> None:
        """A dynamic placement policy re-homed ``page`` old -> new."""
        now = engine.now if engine is not None else 0
        self._append(self.migrations, "migration", (page, old, new, now))

    def on_fabric_send(self, src, dst, nbytes, t_start, t_end, hops) -> None:
        """One fabric packet admitted at ``t_start``, arriving ``t_end``."""
        self._append(
            self.fabric_sends,
            "fabric",
            (src, dst, nbytes, t_start, t_end, hops),
        )

    def on_lane_turn(self, label, toward, now) -> None:
        """The balancer reversed a lane of ``label`` toward a direction."""
        self._append(self.lane_events, "lane", (label, "turn_" + toward, now))

    def on_lane_reset(self, label, now) -> None:
        """Kernel-launch symmetric reset of ``label``."""
        self._append(self.lane_events, "lane", (label, "reset", now))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data view of everything recorded (JSON-serializable)."""
        return {
            "kernel_spans": [list(span) for span in self.kernel_spans],
            "read_spans": [
                [*span[:6], [list(hop) for hop in span[6]]]
                for span in self.read_spans
            ],
            "write_spans": [list(span) for span in self.write_spans],
            "migrations": [list(item) for item in self.migrations],
            "fabric_sends": [list(item) for item in self.fabric_sends],
            "lane_events": [list(item) for item in self.lane_events],
            "dropped": dict(self.dropped),
            "bursts": {
                "n_bursts": self.n_bursts,
                "n_l1_hits": self.n_l1_hits,
                "n_async_issued": self.n_async_issued,
            },
        }
