"""Unit tests for the runtime: scheduler, kernels, launcher, UVM."""

import pytest

from dataclasses import replace

from repro.config import scaled_config
from repro.core.builder import build_system
from repro.errors import RuntimeLaunchError, SimulationError
from repro.gpu.cta import MemOp, Slice
from repro.gpu.socket import GpuSocket
from repro.locality import PlacementSpec
from repro.locality.cta import CTA_POLICIES
from repro.runtime.kernel import KernelWork
from repro.runtime.launcher import Launcher
from repro.runtime.uvm import UvmManager

#: the two static Section 3 CTA policies.
STATIC_CTA_KINDS = ("contiguous", "interleaved")


def assign(kind, n_ctas, n_sockets):
    return CTA_POLICIES[kind]().assign(n_ctas, range(n_sockets))


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------

def test_contiguous_blocks():
    blocks = assign("contiguous", 8, 4)
    assert blocks == [[0, 1], [2, 3], [4, 5], [6, 7]]


def test_interleaved_modulo():
    blocks = assign("interleaved", 8, 4)
    assert blocks == [[0, 4], [1, 5], [2, 6], [3, 7]]


def test_uneven_counts_balanced_within_one():
    for kind in STATIC_CTA_KINDS:
        blocks = assign(kind, 10, 4)
        sizes = [len(b) for b in blocks]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 10


def test_every_cta_assigned_exactly_once():
    for kind in STATIC_CTA_KINDS:
        blocks = assign(kind, 37, 3)
        flat = sorted(i for block in blocks for i in block)
        assert flat == list(range(37))


def test_single_socket_gets_everything():
    for kind in STATIC_CTA_KINDS:
        assert assign(kind, 5, 1) == [[0, 1, 2, 3, 4]]


def test_fewer_ctas_than_sockets():
    blocks = assign("contiguous", 2, 4)
    assert [len(b) for b in blocks] == [1, 1, 0, 0]


def test_contiguous_blocks_are_contiguous():
    blocks = assign("contiguous", 100, 4)
    for block in blocks:
        assert block == list(range(block[0], block[0] + len(block)))


def test_zero_ctas_rejected():
    for kind in STATIC_CTA_KINDS:
        with pytest.raises(RuntimeLaunchError):
            assign(kind, 0, 4)


def test_zero_sockets_rejected():
    for kind in STATIC_CTA_KINDS:
        with pytest.raises(RuntimeLaunchError):
            assign(kind, 4, 0)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_requires_ctas():
    with pytest.raises(RuntimeLaunchError):
        KernelWork("k", 0, lambda i: [])


def test_kernel_materialize_keeps_original_id():
    kernel = KernelWork("k", 4, lambda i: [Slice(i, ())])
    cta_id, slices = kernel.materialize(3)
    assert cta_id == 3
    assert slices[0].compute_cycles == 3


def test_kernel_materialize_bounds():
    kernel = KernelWork("k", 4, lambda i: [])
    with pytest.raises(RuntimeLaunchError):
        kernel.materialize(4)
    with pytest.raises(RuntimeLaunchError):
        kernel.materialize(-1)


# ---------------------------------------------------------------------------
# launcher (driven through a real system)
# ---------------------------------------------------------------------------

def tiny_kernel(name, n_ctas=8, compute=5):
    return KernelWork(
        name, n_ctas, lambda i: [Slice(compute, (MemOp(i * 128, False),))]
    )


def test_launcher_runs_kernels_in_sequence():
    system = build_system(scaled_config(n_sockets=2, sms_per_socket=2))
    kernels = [tiny_kernel("a"), tiny_kernel("b"), tiny_kernel("c")]
    result = system.run(kernels, "seq")
    assert result.kernels == 3
    assert len(result.kernel_launch_times) == 3
    assert result.kernel_launch_times == sorted(result.kernel_launch_times)


def test_launcher_pays_launch_latency():
    cfg = replace(
        scaled_config(n_sockets=2, sms_per_socket=2), kernel_launch_latency=777
    )
    system = build_system(cfg)
    result = system.run([tiny_kernel("a")], "lat")
    assert result.kernel_launch_times[0] == 777


def test_launcher_flushes_caches_each_kernel():
    system = build_system(scaled_config(n_sockets=2, sms_per_socket=2))
    result = system.run([tiny_kernel("a"), tiny_kernel("b")], "flush")
    assert all(s.flushes == 2 for s in result.sockets)


def test_all_ctas_complete_across_sockets():
    system = build_system(scaled_config(n_sockets=4, sms_per_socket=2))
    result = system.run([tiny_kernel("a", n_ctas=40)], "all")
    assert sum(s.ctas_completed for s in result.sockets) == 40


def test_kernel_smaller_than_socket_count():
    system = build_system(scaled_config(n_sockets=4, sms_per_socket=2))
    result = system.run([tiny_kernel("a", n_ctas=2)], "small")
    assert sum(s.ctas_completed for s in result.sockets) == 2


def test_launcher_finished_flag():
    system = build_system(scaled_config(n_sockets=2, sms_per_socket=2))
    system.run([tiny_kernel("a")], "fin")
    assert system.launcher is not None
    assert system.launcher.finished


def test_stuck_drain_raises_simulation_error(monkeypatch):
    # A socket that drops its CTAs never reports its sub-kernel done, so
    # the engine drains with the kernel unfinished. That must fail with
    # an error naming the kernel and its pending CTAs, also under
    # ``python -O`` (which strips asserts).
    real_start = GpuSocket.start_subkernel

    def drop_on_socket_1(self, ctas, on_done):
        if self.socket_id != 1:
            real_start(self, ctas, on_done)

    monkeypatch.setattr(GpuSocket, "start_subkernel", drop_on_socket_1)
    system = build_system(scaled_config(n_sockets=2, sms_per_socket=2))
    with pytest.raises(SimulationError, match=(
            r"kernel 'a' \(1 of 2\) never completed; "
            r"pending CTAs by socket: \{1: 8\}")):
        system.run([tiny_kernel("a", n_ctas=16), tiny_kernel("b")], "stuck")
    assert not system.launcher.finished


# ---------------------------------------------------------------------------
# UVM
# ---------------------------------------------------------------------------

def test_prefetch_pins_pages():
    system = build_system(scaled_config(n_sockets=4, sms_per_socket=2))
    pinned = system.uvm.prefetch(0, 3 * 4096, socket=2)
    assert pinned == 3
    home, extra = system.page_table.translate(4096, accessor=0)
    assert home == 2
    assert extra == 0  # prefetched pages fault-free


def test_prefetch_respects_existing_claims():
    system = build_system(scaled_config(n_sockets=4, sms_per_socket=2))
    system.page_table.translate(0, accessor=1)
    pinned = system.uvm.prefetch(0, 4096, socket=3)
    assert pinned == 0
    home, _ = system.page_table.translate(0, accessor=2)
    assert home == 1


def test_prefetch_noop_for_interleave():
    cfg = replace(
        scaled_config(n_sockets=4, sms_per_socket=2),
        placement_spec=PlacementSpec(kind="page_interleave"),
    )
    system = build_system(cfg)
    assert system.uvm.prefetch(0, 4096 * 10, socket=1) == 0


def test_prefetch_validates_socket():
    from repro.errors import PlacementError

    system = build_system(scaled_config(n_sockets=2, sms_per_socket=2))
    with pytest.raises(PlacementError):
        system.uvm.prefetch(0, 4096, socket=5)


def test_uvm_migration_counter():
    system = build_system(scaled_config(n_sockets=2, sms_per_socket=2))
    system.page_table.translate(0, 0)
    system.page_table.translate(4096, 1)
    assert system.uvm.migrations == 2
