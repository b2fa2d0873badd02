"""Unit tests for configuration presets, validation, and scaling."""

import pytest

from repro.config import (
    LINE_SIZE,
    CacheConfig,
    ControllerConfig,
    GpuConfig,
    LinkConfig,
    SystemConfig,
    hypothetical_config,
    paper_config,
    scaled_config,
    single_gpu_config,
)
from repro.errors import ConfigError


def test_paper_config_matches_table1():
    cfg = paper_config()
    assert cfg.n_sockets == 4
    assert cfg.gpu.sms == 64
    assert cfg.gpu.l1.capacity_bytes == 128 * 1024
    assert cfg.gpu.l1.ways == 4
    assert cfg.gpu.l2.capacity_bytes == 4 * 1024 * 1024
    assert cfg.gpu.l2.ways == 16
    assert cfg.gpu.dram_bandwidth == 768.0
    assert cfg.gpu.dram_latency == 100
    assert cfg.link.lanes_per_direction == 8
    assert cfg.link.lane_bandwidth == 8.0
    assert cfg.link.latency == 128


def test_cache_geometry():
    cache = CacheConfig(capacity_bytes=4 * 1024 * 1024, ways=16)
    assert cache.n_sets == 2048
    assert cache.n_lines == 32768


def test_cache_capacity_must_divide():
    with pytest.raises(ConfigError):
        CacheConfig(capacity_bytes=1000, ways=3)


def test_cache_needs_a_way():
    with pytest.raises(ConfigError):
        CacheConfig(capacity_bytes=0, ways=0)


def test_link_direction_bandwidth():
    link = LinkConfig()
    assert link.direction_bandwidth == 64.0
    assert link.total_lanes == 16


def test_link_validation():
    with pytest.raises(ConfigError):
        LinkConfig(lanes_per_direction=0)
    with pytest.raises(ConfigError):
        LinkConfig(lane_bandwidth=0)


def test_system_needs_a_socket():
    with pytest.raises(ConfigError):
        SystemConfig(n_sockets=0)


def test_interleave_granularity_floor():
    with pytest.raises(ConfigError):
        SystemConfig(interleave_granularity=LINE_SIZE // 2)


def test_total_sms():
    assert paper_config(n_sockets=8).total_sms == 512


def test_describe_contains_table1_rows():
    desc = paper_config().describe()
    assert desc["Num of GPU sockets"] == "4"
    assert "768GB/s" in desc["DRAM Bandwidth"]
    assert "128-cycle latency" in desc["GPU-GPU Interconnect"]
    assert "100 ns" in desc["DRAM Latency"]


def test_scaled_config_preserves_dram_to_link_ratio():
    full = paper_config()
    scaled = scaled_config(sms_per_socket=8)
    full_ratio = full.gpu.dram_bandwidth / full.link.direction_bandwidth
    scaled_ratio = scaled.gpu.dram_bandwidth / scaled.link.direction_bandwidth
    assert scaled_ratio == pytest.approx(full_ratio)


def test_scaled_config_scales_bandwidth_linearly():
    a = scaled_config(sms_per_socket=4)
    b = scaled_config(sms_per_socket=8)
    assert b.gpu.dram_bandwidth == pytest.approx(2 * a.gpu.dram_bandwidth)


def test_scaled_config_keeps_latencies():
    scaled = scaled_config(sms_per_socket=4)
    assert scaled.gpu.dram_latency == 100
    assert scaled.link.latency == 128


def test_scaled_config_validates_sm_count():
    with pytest.raises(ConfigError):
        scaled_config(sms_per_socket=0)


def test_scaled_l2_has_whole_sets():
    for sms in (1, 2, 4, 8, 16, 32):
        cfg = scaled_config(sms_per_socket=sms)
        assert cfg.gpu.l2.capacity_bytes % (cfg.gpu.l2.ways * LINE_SIZE) == 0


def test_single_gpu_config():
    cfg = single_gpu_config(scaled_config())
    assert cfg.n_sockets == 1
    assert cfg.placement_spec.kind == "local_only"
    assert cfg.cta_spec.kind == "contiguous"


def test_hypothetical_scales_resources():
    base = scaled_config()
    hypo = hypothetical_config(base, 4)
    assert hypo.n_sockets == 1
    assert hypo.gpu.sms == base.gpu.sms * 4
    assert hypo.gpu.dram_bandwidth == pytest.approx(base.gpu.dram_bandwidth * 4)
    assert hypo.gpu.l2.capacity_bytes == base.gpu.l2.capacity_bytes * 4


def test_hypothetical_validates_factor():
    with pytest.raises(ConfigError):
        hypothetical_config(scaled_config(), 0)


def test_controller_defaults():
    ctl = ControllerConfig()
    assert ctl.link_sample_time == 5000
    assert ctl.link_switch_time == 100
    assert ctl.saturation_threshold == pytest.approx(0.99)


def test_gpu_config_defaults_are_pascal_like():
    gpu = GpuConfig()
    assert gpu.sms == 64
    assert gpu.ctas_per_sm * 8 == 64  # 64 warps per SM at 8 warps per CTA


def test_configs_are_frozen():
    cfg = paper_config()
    with pytest.raises(AttributeError):
        cfg.n_sockets = 2


# ---------------------------------------------------------------------------
# content-addressed config identity
# ---------------------------------------------------------------------------

def _perturb(value):
    """A different value of the same type, for field-sensitivity checks."""
    import enum as _enum

    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 2 + 1.0
    if isinstance(value, str):
        return value + "_x"
    if isinstance(value, _enum.Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    return None  # nested dataclasses handled by recursion


def _walk_fields(config, path=()):
    """Yield (path, leaf value) for every scalar field of a config tree."""
    from dataclasses import fields as _fields, is_dataclass as _is_dc

    for f in _fields(config):
        value = getattr(config, f.name)
        if _is_dc(value) and not isinstance(value, type):
            yield from _walk_fields(value, path + (f.name,))
        else:
            yield path + (f.name,), value


def _replace_at(config, path, new_value):
    from dataclasses import replace as _replace

    if len(path) == 1:
        return _replace(config, **{path[0]: new_value})
    child = getattr(config, path[0])
    return _replace(config, **{path[0]: _replace_at(child, path[1:], new_value)})


def test_every_config_field_changes_the_digest():
    """The architectural guarantee: no field can be silently dropped.

    The old hand-maintained memo key omitted noc_bandwidth, dram_latency,
    L1 geometry, and more; the content-addressed key must react to a
    change in *any* scalar field of the config tree.
    """
    from repro.config import config_digest

    base = paper_config()
    baseline = config_digest(base)
    checked = 0
    for path, value in _walk_fields(base):
        new_value = _perturb(value)
        if new_value is None:
            continue
        try:
            mutated = _replace_at(base, path, new_value)
        except ConfigError:
            # Some perturbations violate validation (e.g. capacity not
            # divisible); try a second, coarser perturbation.
            if not isinstance(value, int):
                continue
            mutated = _replace_at(base, path, value * 2)
        assert config_digest(mutated) != baseline, (
            f"field {'.'.join(path)} does not affect the config digest"
        )
        checked += 1
    # Sanity: the walk actually covered the whole tree (Table 1 has
    # well over 20 scalar parameters).
    assert checked >= 25


def test_digest_is_stable_and_order_free():
    from repro.config import config_digest, config_fingerprint

    a = paper_config()
    b = paper_config()
    assert config_fingerprint(a) == config_fingerprint(b)
    assert config_digest(a) == config_digest(b)
    assert isinstance(hash(config_fingerprint(a)), int)
    assert len(config_digest(a)) == 64


def test_digest_covers_previously_omitted_fields():
    """Exactly the aliasing bug: these fields were missing from the key."""
    from dataclasses import replace

    from repro.config import config_digest

    base = scaled_config()
    variants = [
        replace(base, gpu=replace(base.gpu, noc_bandwidth=base.gpu.noc_bandwidth * 2)),
        replace(base, gpu=replace(base.gpu, dram_latency=base.gpu.dram_latency + 50)),
        replace(base, gpu=replace(base.gpu, mlp_per_cta=base.gpu.mlp_per_cta + 1)),
        replace(base, gpu=replace(
            base.gpu,
            l1=CacheConfig(
                capacity_bytes=base.gpu.l1.capacity_bytes * 2,
                ways=base.gpu.l1.ways,
            ),
        )),
        replace(base, gpu=replace(
            base.gpu,
            l2=CacheConfig(
                capacity_bytes=base.gpu.l2.capacity_bytes,
                ways=base.gpu.l2.ways,
                hit_latency=base.gpu.l2.hit_latency + 8,
            ),
        )),
        replace(base, link=replace(base.link, min_lanes=0)),
    ]
    digests = {config_digest(v) for v in variants}
    digests.add(config_digest(base))
    assert len(digests) == len(variants) + 1


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("placement_spec", "first_touch", "PlacementSpec"),
        ("placement_spec", None, "PlacementSpec"),
        ("cta_spec", "contiguous", "CtaSpec"),
        ("cta_spec", None, "CtaSpec"),
    ],
)
def test_malformed_policy_values_raise_config_error(field, value, expected):
    from dataclasses import replace

    with pytest.raises(ConfigError, match=f"{field} must be a .*{expected}"):
        replace(scaled_config(), **{field: value})
