"""Tests for the per-socket line->home translation cache (PR 2/PR 3).

The cache lets the steady-state access path skip PageTable.translate();
these tests pin the invalidation contract (page re-homing must drop
cached lines across all sockets) and the first-touch caveat.
"""

from dataclasses import replace

import pytest

from repro.config import scaled_config
from repro.gpu.socket import make_socket
from repro.locality import PlacementSpec
from repro.memory.page_table import PageTable
from repro.runtime.uvm import UvmManager
from repro.sim.engine import Engine
from repro.topology.fabric import build_fabric


def build_sockets(placement="first_touch", n_sockets=2):
    config = replace(
        scaled_config(n_sockets=n_sockets, sms_per_socket=2),
        placement_spec=PlacementSpec(kind=placement),
    )
    engine = Engine()
    table = PageTable(config)
    switch = build_fabric(config, engine)
    sockets = [
        make_socket(s, config, engine, table, switch)
        for s in range(n_sockets)
    ]
    if switch is not None:
        switch.owners = list(sockets)
    return config, engine, table, sockets


def test_access_populates_translation_cache_and_skips_translate():
    config, engine, table, sockets = build_sockets()
    s0 = sockets[0]
    addr = 0
    line = addr // s0.line_size
    s0.access(0, addr, False, lambda: None)
    engine.run()
    assert s0._lines[line].home == 0
    translations_before = table.n_translations
    s0.access(0, addr, False, lambda: None)
    engine.run()
    assert table.n_translations == translations_before  # cache hit, no walk


def test_invalidate_page_drops_lines_in_all_sockets():
    config, engine, table, sockets = build_sockets()
    page_size = config.page_size
    lines_per_page = page_size // sockets[0].line_size
    # Touch two lines of page 0 from socket 0 and one from socket 1.
    sockets[0].access(0, 0, False, lambda: None)
    sockets[0].access(0, sockets[0].line_size, False, lambda: None)
    sockets[1].access(0, 2 * sockets[0].line_size, False, lambda: None)
    engine.run()
    assert len(sockets[0]._lines) == 2
    assert len(sockets[1]._lines) == 1
    removed = table.invalidate_page(0)
    assert removed == 3
    assert sockets[0]._lines == {} and sockets[1]._lines == {}
    # Lines of other pages survive.
    sockets[0].access(0, page_size, False, lambda: None)
    engine.run()
    assert len(sockets[0]._lines) == 1
    assert table.invalidate_page(0) == 0
    assert len(sockets[0]._lines) == 1
    assert table.n_translation_invalidations == 3


def test_retranslation_after_invalidation_sees_new_home():
    # Simulate a page migration: re-home the page in the placement map,
    # invalidate, and check the next access translates to the new home.
    config, engine, table, sockets = build_sockets()
    s0 = sockets[0]
    s0.access(0, 0, False, lambda: None)
    engine.run()
    assert s0._lines[0].home == 0
    page = 0
    table.policy.page_home[page] = 1  # the migration itself
    table.invalidate_page(page)
    s0.access(0, 0, False, lambda: None)
    engine.run()
    assert s0._lines[0].home == 1
    assert s0.n_remote_accesses >= 1


def test_uvm_prefetch_invalidates_newly_pinned_pages():
    config, engine, table, sockets = build_sockets()
    uvm = UvmManager(table)
    pinned = uvm.prefetch(0, 3 * config.page_size, socket=1)
    assert pinned == 3
    s0 = sockets[0]
    s0.access(0, 0, False, lambda: None)
    engine.run()
    # The pinned page belongs to socket 1: socket 0 sees a remote access.
    assert s0._lines[0].home == 1
    assert s0.n_remote_accesses == 1


def test_first_touch_single_socket_is_never_cached():
    # Degenerate combination: first_touch placement on one socket never
    # claims pages, so every access pays the first-touch charge — the
    # translation cache must not memoize it away.
    config, engine, table, sockets = build_sockets(n_sockets=1)
    s0 = sockets[0]
    assert not s0._always_local
    s0.access(0, 0, False, lambda: None)
    engine.run()
    assert s0._lines == {}
    before = table.n_faults
    s0.access(0, 0, False, lambda: None)
    engine.run()
    assert table.n_faults == before + 1  # still charged per access


def test_local_only_single_socket_skips_translation_wholesale():
    config, engine, table, sockets = build_sockets(
        placement="local_only", n_sockets=1
    )
    s0 = sockets[0]
    assert s0._always_local
    s0.access(0, 0, False, lambda: None)
    engine.run()
    assert table.n_translations == 0
    assert s0.n_local_accesses == 1


class _ProbeCountingDict(dict):
    """A registered dict that counts every probe made through ``get``."""

    def __init__(self):
        super().__init__()
        self.probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


def test_invalidate_page_probes_nothing_when_not_cacheable():
    # A dynamic policy forbids settled homes, so a re-home has no record
    # or L1 hint to drop: the early return must not walk the page's lines.
    config, engine, table, sockets = build_sockets("access_counter_migration")
    assert not table.cacheable
    lines, frames = _ProbeCountingDict(), _ProbeCountingDict()
    table.register_line_cache(lines)
    table.register_frame_hints(frames)
    sockets[0].access(0, 0, False, lambda: None)
    engine.run()
    assert table.invalidate_page(0) == 0
    assert lines.probes == 0 and frames.probes == 0
    assert table.n_translation_invalidations == 0
    # A cacheable table probes the same registered dicts.
    config, engine, table, sockets = build_sockets("first_touch")
    lines, frames = _ProbeCountingDict(), _ProbeCountingDict()
    table.register_line_cache(lines)
    table.register_frame_hints(frames)
    table.invalidate_page(0)
    assert lines.probes == frames.probes == table._lines_per_page
