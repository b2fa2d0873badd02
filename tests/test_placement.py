"""Unit tests for page-placement policies and the page table."""

from collections import Counter

import pytest

from dataclasses import replace

from repro.config import scaled_config
from repro.errors import PlacementError
from repro.locality import PlacementSpec, build_page_policy
from repro.memory.page_table import PageTable
from repro.sim.stats import StatGroup


def make_config(kind, n_sockets=4):
    return replace(
        scaled_config(n_sockets=n_sockets),
        placement_spec=PlacementSpec(kind=kind),
    )


def make_policy(kind, n_sockets=4):
    return build_page_policy(make_config(kind, n_sockets), StatGroup("placement"))


def home(table, addr, accessor):
    return table.translate(addr, accessor)[0]


def test_local_only_always_socket_zero():
    policy = make_policy("local_only")
    for addr in (0, 4096, 10**9):
        assert policy.home_socket(addr, accessor=3) == 0


def test_single_socket_always_local():
    # One socket homes everything at 0 and claims nothing: every access
    # keeps billing the first-touch copy.
    table = PageTable(make_config("first_touch", n_sockets=1))
    for _ in range(2):
        assert table.translate(12345, accessor=0) == (
            0, table.migration_latency
        )
        assert table.peek_home(12345, accessor=0) == 0
    assert table.policy.page_home == {}
    assert table.migrations == 0


def test_fine_interleave_strides_at_granularity():
    policy = make_policy("fine_interleave")
    gran = policy.granularity
    homes = [policy.home_socket(i * gran, accessor=0) for i in range(8)]
    assert homes == [0, 1, 2, 3, 0, 1, 2, 3]


def test_fine_interleave_same_block_same_home():
    policy = make_policy("fine_interleave")
    gran = policy.granularity
    assert policy.home_socket(0, 0) == policy.home_socket(gran - 1, 0)


def test_page_interleave_strides_by_page():
    policy = make_policy("page_interleave")
    page = policy.page_size
    homes = [policy.home_socket(i * page, accessor=0) for i in range(8)]
    assert homes == [0, 1, 2, 3, 0, 1, 2, 3]


def test_interleave_remote_fraction_is_three_quarters():
    """75% of fine-interleaved accesses are remote in a 4-GPU system (§3)."""
    policy = make_policy("fine_interleave")
    gran = policy.granularity
    remote = sum(
        1 for i in range(1000) if policy.home_socket(i * gran, 0) != 0
    )
    assert remote / 1000 == pytest.approx(0.75, abs=0.01)


def test_first_touch_claims_for_accessor():
    table = PageTable(make_config("first_touch"))
    assert home(table, 0, accessor=2) == 2
    # Later accesses from other sockets see the claimed home.
    assert home(table, 64, accessor=0) == 2


def test_first_touch_counts_migrations_once_per_page():
    table = PageTable(make_config("first_touch"))
    table.translate(0, 1)
    table.translate(128, 2)  # same page
    table.translate(table.policy.page_size, 3)  # next page
    assert table.migrations == 2


def test_is_first_touch():
    table = PageTable(make_config("first_touch"))
    assert table.policy.is_first_touch(0)
    table.translate(0, 1)
    assert not table.policy.is_first_touch(0)


def test_is_first_touch_false_for_other_policies():
    policy = make_policy("page_interleave")
    assert not policy.is_first_touch(0)


def test_pages_on_socket():
    table = PageTable(make_config("first_touch"))
    page = table.policy.page_size
    table.translate(0 * page, 1)
    table.translate(1 * page, 1)
    table.translate(2 * page, 2)
    pages_on = Counter(table.policy.page_home.values())
    assert pages_on[1] == 2
    assert pages_on[2] == 1
    assert pages_on[0] == 0


def test_accessor_out_of_range():
    # Checked on the fused first-touch path, the dynamic touch path and
    # the generic path alike.
    for kind in ("first_touch", "access_counter_migration", "page_interleave"):
        table = PageTable(make_config(kind))
        for accessor in (4, -1):
            with pytest.raises(PlacementError):
                table.translate(0, accessor=accessor)


# ---------------------------------------------------------------------------
# page table
# ---------------------------------------------------------------------------

def test_page_table_charges_migration_once():
    cfg = scaled_config()
    table = PageTable(cfg)
    home, extra = table.translate(0, accessor=1)
    assert home == 1
    assert extra == cfg.migration_latency
    home2, extra2 = table.translate(64, accessor=3)
    assert home2 == 1
    assert extra2 == 0


def test_page_table_no_charge_for_arithmetic_policies():
    table = PageTable(make_config("page_interleave"))
    _home, extra = table.translate(0, accessor=1)
    assert extra == 0
    assert table.migrations == 0


def test_page_table_counts_faults_and_translations():
    table = PageTable(scaled_config())
    table.translate(0, 0)
    table.translate(1, 0)
    assert table.stats["translations"] == 2
    assert table.stats["faults"] == 1
