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


@pytest.mark.parametrize("kwargs, match", [
    ({"capacity_bytes": 0}, "capacity 0 not a positive multiple"),
    ({"line_size": 0}, "line_size must be >= 1"),
    ({"hit_latency": -30}, "hit_latency must be >= 0"),
], ids=["zero-capacity", "zero-line", "negative-hit-latency"])
def test_cache_leaf_rules(kwargs, match):
    # hit_latency=-30 on the scaled L2 used to queue hits in the past and
    # stretch a 2,350-cycle run to 18,626 cycles with no error.
    with pytest.raises(ConfigError, match=match):
        CacheConfig(**{"capacity_bytes": 4096, "ways": 4, **kwargs})


def test_link_direction_bandwidth():
    link = LinkConfig()
    assert link.direction_bandwidth == 64.0
    assert link.total_lanes == 16


def test_link_validation():
    with pytest.raises(ConfigError):
        LinkConfig(lanes_per_direction=0)
    with pytest.raises(ConfigError):
        LinkConfig(lane_bandwidth=0)


def test_negative_min_lanes_is_rejected():
    # min_lanes=-1 used to pass, and the balancer could then turn a
    # direction down to -1 lanes (negative bandwidth).
    with pytest.raises(ConfigError, match="min_lanes must be >= 0"):
        LinkConfig(min_lanes=-1)
    assert LinkConfig(min_lanes=0).min_lanes == 0


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

def _filled_config():
    """``paper_config()`` with every optional subtree filled in.

    A routed topology (routers, heterogeneous per-edge links) and
    non-default locality specs, so the digest walk reaches every
    dataclass that ``SystemConfig`` can hold.
    """
    from dataclasses import replace

    from repro.locality.spec import CtaSpec, PlacementSpec
    from repro.topology.spec import switch_tree

    base = paper_config()
    return replace(
        base,
        topology=switch_tree(base.n_sockets, link=base.link),
        placement_spec=PlacementSpec(
            kind="access_counter_migration",
            touch_window=16,
            migration_threshold=8,
            max_migrations_per_page=3,
            read_shared_filter=False,
        ),
        cta_spec=CtaSpec(kind="distance_affine"),
    )


def _config_type_closure():
    """Every dataclass type reachable from ``SystemConfig``'s type hints.

    ``X | None`` and ``tuple[X, ...]`` are unwrapped through
    ``typing.get_args``; ``SystemConfig``'s string annotations name
    types it cannot import, so they are resolved here.
    """
    import typing
    from dataclasses import is_dataclass

    from repro.locality.spec import CtaSpec, PlacementSpec
    from repro.topology.spec import TopologySpec

    names = {"TopologySpec": TopologySpec, "PlacementSpec": PlacementSpec,
             "CtaSpec": CtaSpec}
    seen: set[type] = set()
    todo = [SystemConfig]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        hints = list(typing.get_type_hints(cls, localns=names).values())
        while hints:
            hint = hints.pop()
            hints.extend(typing.get_args(hint))
            if is_dataclass(hint):
                todo.append(hint)
    return seen


def _walk_fields(node, visited, path=()):
    """Yield ``(owner type, field name, path, value)`` per leaf field.

    Recurses into nested dataclasses and tuples of dataclasses (a path
    element is then the tuple index); records every dataclass type it
    enters in ``visited``. ``None`` (an absent optional subtree) is
    skipped: the filled-in base config reaches it.
    """
    from dataclasses import fields as _fields, is_dataclass as _is_dc

    visited.add(type(node))
    for f in _fields(node):
        value = getattr(node, f.name)
        if _is_dc(value):
            yield from _walk_fields(value, visited, path + (f.name,))
        elif value and isinstance(value, tuple) and all(map(_is_dc, value)):
            for i, item in enumerate(value):
                yield from _walk_fields(item, visited, path + (f.name, i))
        elif value is not None:
            yield type(node), f.name, path + (f.name,), value


def _perturbations(owner, name, value, strings):
    """Candidate values of the same type that differ from ``value``.

    A ``kind`` field draws the other registered kinds of its owner; any
    other string tries a fresh name, then every other string of the
    config (node names, so an edge can be re-wired validly). A tuple of
    scalars is rotated (socket and router order are node ids).
    """
    import enum as _enum

    from repro.locality.spec import (
        CTA_KINDS, PLACEMENT_KINDS, CtaSpec, PlacementSpec,
    )
    from repro.topology.spec import BUILDERS, TopologySpec

    kinds = {PlacementSpec: PLACEMENT_KINDS, CtaSpec: CTA_KINDS,
             TopologySpec: tuple(BUILDERS)}
    if isinstance(value, bool):
        candidates = [not value]
    elif isinstance(value, int):
        candidates = [value + 1, value * 2]
    elif isinstance(value, float):
        candidates = [value * 2 + 1.0, value / 2]
    elif isinstance(value, _enum.Enum):
        members = list(type(value))
        candidates = [members[(members.index(value) + 1) % len(members)]]
    elif isinstance(value, str) and name == "kind":
        candidates = list(kinds[owner])
    elif isinstance(value, str):
        candidates = [value + "_x", *strings]
    else:  # a tuple of scalars
        candidates = [value[1:] + value[:1]]
    return [c for c in candidates if c != value]


def _replace_at(node, path, new_value):
    from dataclasses import replace as _replace

    head, rest = path[0], path[1:]
    child = node[head] if isinstance(head, int) else getattr(node, head)
    if rest:
        new_value = _replace_at(child, rest, new_value)
    if isinstance(head, int):
        return node[:head] + (new_value,) + node[head + 1:]
    return _replace(node, **{head: new_value})


def _reference_canonical(value):
    """An independent, memo-free walk: the canonical form by definition."""
    import enum as _enum
    from dataclasses import fields as _fields, is_dataclass as _is_dc

    if _is_dc(value):
        return (type(value).__name__, tuple(
            (f.name, _reference_canonical(getattr(value, f.name)))
            for f in _fields(value)
        ))
    if isinstance(value, _enum.Enum):
        return (type(value).__name__, value.value)
    if isinstance(value, (list, tuple)):
        return tuple(_reference_canonical(v) for v in value)
    if isinstance(value, dict):
        return tuple(
            (k, _reference_canonical(v)) for k, v in sorted(value.items())
        )
    return value


def _reference_digest(config):
    import hashlib

    return hashlib.sha256(
        repr(_reference_canonical(config)).encode()
    ).hexdigest()


def test_every_config_field_changes_the_digest():
    """The architectural guarantee: no field can be silently dropped.

    The old hand-maintained memo key omitted noc_bandwidth, dram_latency,
    L1 geometry, and more; the content-addressed key must react to a
    change in *any* leaf field of the config tree, including those of
    the optional topology (routers, edges and their links) and of the
    locality specs. The walk must reach every dataclass type
    ``SystemConfig``'s type hints can hold, so a new optional subtree
    fails here until ``_filled_config`` sets it, and every leaf field
    must have at least one valid change. The base digest is taken
    first, so every replace starts from a tree that carries its
    identity memo, and each mutated digest must equal a memo-free walk.
    """
    from repro.config import config_digest

    visited: set[type] = set()
    leaves: set[tuple[type, str]] = set()
    checked: set[tuple[type, str]] = set()
    for base in (paper_config(), _filled_config()):
        baseline = config_digest(base)
        walk = list(_walk_fields(base, visited))
        strings = sorted({v for *_, v in walk if isinstance(v, str)})
        for owner, name, path, value in walk:
            leaves.add((owner, name))
            for candidate in _perturbations(owner, name, value, strings):
                try:
                    mutated = _replace_at(base, path, candidate)
                except ConfigError:
                    continue  # e.g. an edge re-wired into a disconnection
                assert config_digest(mutated) != baseline, (
                    f"{owner.__name__} field {'.'.join(map(str, path))} "
                    "does not affect the config digest"
                )
                assert config_digest(mutated) == _reference_digest(mutated)
                checked.add((owner, name))
                break
    assert visited == _config_type_closure()
    assert checked == leaves, sorted(
        f"{owner.__name__}.{name}" for owner, name in leaves - checked
    )


#: Config leaves with no invalid value, each with the reason. Every
#: other leaf must reject at least one value of its type with a
#: ConfigError (see test_every_config_leaf_has_a_rule).
_ANY_VALUE_IS_VALID = {
    # Enums: every member is a modelled design point.
    ("SystemConfig", "cache_arch"),
    ("SystemConfig", "link_policy"),
    ("SystemConfig", "l2_write_policy"),
    # Switches: both settings are modelled.
    ("SystemConfig", "coherence_invalidations"),
    ("PlacementSpec", "read_shared_filter"),
    # A label: it names the topology in reports and nothing else.
    ("TopologySpec", "name"),
}


def _invalid_candidates(value):
    """Values of ``value``'s type that a checked leaf should reject."""
    import enum as _enum

    if isinstance(value, (bool, _enum.Enum)):
        return []
    if isinstance(value, int):
        return [-1, 0]
    if isinstance(value, float):
        return [-1.0, 0.0, float("nan")]
    if isinstance(value, str):
        return ["", "no_such_name"]
    return [(), value + value[:1]]  # a tuple of node names: empty, repeated


def test_every_config_leaf_has_a_rule():
    """No config leaf ships unchecked.

    Walks the same leaves as the digest test. Each leaf must reject one
    of its type's usual bad values (negative or zero numbers, NaN, an
    empty or unknown name, an empty or repeated node tuple) with a
    ``ConfigError``, or be listed in :data:`_ANY_VALUE_IS_VALID` with
    its reason. The list must stay current: a listed leaf that gains a
    rule fails here too.
    """
    visited: set[type] = set()
    leaves: set[tuple[str, str]] = set()
    ruled: set[tuple[str, str]] = set()
    for base in (paper_config(), _filled_config()):
        for owner, name, path, value in _walk_fields(base, visited):
            key = (owner.__name__, name)
            leaves.add(key)
            for candidate in _invalid_candidates(value):
                try:
                    _replace_at(base, path, candidate)
                except ConfigError:
                    ruled.add(key)
                    break
    assert visited == _config_type_closure()
    assert leaves - ruled == _ANY_VALUE_IS_VALID, sorted(
        (leaves - ruled) ^ _ANY_VALUE_IS_VALID
    )


def test_digest_is_stable_and_order_free():
    from repro.config import config_digest, config_fingerprint

    # Two separately built objects: ``paper_config`` itself is memoized.
    a = paper_config.__wrapped__()
    b = paper_config.__wrapped__()
    assert a is not b
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


# ---------------------------------------------------------------------------
# the identity memo
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [paper_config, _filled_config])
def test_memoized_fingerprint_equals_a_fresh_walk(make):
    from repro.config import (
        _CANONICAL_MEMO, _DIGEST_MEMO, config_digest, config_fingerprint,
    )

    config = make()
    expected = _reference_canonical(config)
    for _ in range(2):  # the first call fills the memo, the second reads it
        assert config_fingerprint(config) == expected
        assert config_digest(config) == _reference_digest(config)
    assert {_CANONICAL_MEMO, _DIGEST_MEMO} <= set(vars(config))
    assert _CANONICAL_MEMO in vars(config.gpu.l2)


def test_pickle_round_trip_keeps_identity_and_memo():
    import copy
    import pickle

    from repro.config import _DIGEST_MEMO, config_digest

    config = _filled_config()
    digest = config_digest(config)
    for clone in (pickle.loads(pickle.dumps(config)), copy.deepcopy(config)):
        assert clone == config
        assert hash(clone) == hash(config)
        # The memo travels with the config (a pool worker skips the walk)
        # and still matches the clone's own fields.
        assert vars(clone)[_DIGEST_MEMO] == digest
        assert config_digest(clone) == _reference_digest(clone) == digest


def test_memo_is_invisible_to_dataclass_protocols():
    from dataclasses import asdict, fields as _fields

    from repro.config import config_digest

    fresh, memoized = _filled_config(), _filled_config()
    config_digest(memoized)
    assert fresh == memoized
    assert hash(fresh) == hash(memoized)
    assert repr(fresh) == repr(memoized)
    assert asdict(fresh) == asdict(memoized)
    assert [f.name for f in _fields(memoized)] == [
        f.name for f in _fields(fresh)
    ]


def test_mutable_subtrees_are_rewalked():
    """Only all-immutable frozen subtrees keep a memo, so none goes stale."""
    from dataclasses import dataclass as _dataclass

    from repro.config import _CANONICAL_MEMO, config_fingerprint

    @_dataclass
    class Loose:
        x: int

    @_dataclass(frozen=True)
    class Holder:
        items: list

    @_dataclass(frozen=True)
    class Outer:
        inner: Holder

    @_dataclass(frozen=True, slots=True)
    class Slotted:  # immutable, but has no __dict__ to hold a memo
        x: int

    loose = Loose(1)
    assert config_fingerprint(loose) == ("Loose", (("x", 1),))
    loose.x = 2
    assert config_fingerprint(loose) == ("Loose", (("x", 2),))

    outer = Outer(Holder([1]))
    assert config_fingerprint(outer) == (
        "Outer", (("inner", ("Holder", (("items", (1,)),))),))
    outer.inner.items.append(2)
    assert config_fingerprint(outer) == (
        "Outer", (("inner", ("Holder", (("items", (1, 2)),))),))
    for node in (loose, outer, outer.inner):
        assert _CANONICAL_MEMO not in vars(node)
    assert config_fingerprint(Slotted(3)) == ("Slotted", (("x", 3),))


def test_memoized_builders_share_immutable_results():
    """Fresh contexts share every built sub-tree, which is safe only
    because each result is deeply immutable."""
    from repro.config import _canonical
    from repro.topology.spec import BUILDERS, build_topology

    config = scaled_config(n_sockets=4, sms_per_socket=2)
    assert scaled_config(n_sockets=4, sms_per_socket=2) is config
    assert _canonical(config)[1] is True
    for kind in BUILDERS:
        spec = build_topology(kind, 4, config.link)
        assert build_topology(kind, 4, config.link) is spec
        assert _canonical(spec)[1] is True


def test_memoized_builders_key_on_identity_not_equality():
    """Equal-comparing arguments with different digests never alias."""
    from repro.config import config_fingerprint
    from repro.topology.spec import build_topology

    whole, real = LinkConfig(lane_bandwidth=8), LinkConfig(lane_bandwidth=8.0)
    assert whole == real
    a = build_topology("ring", 4, whole)
    b = build_topology("ring", 4, real)
    assert a is not b
    assert type(a.edges[0].link.lane_bandwidth) is int
    assert type(b.edges[0].link.lane_bandwidth) is float
    assert repr(config_fingerprint(a)) != repr(config_fingerprint(b))


def test_memoized_builder_drops_the_least_recently_used_result():
    """A full memo evicts by recency, so a pass whose results fit is
    never rebuilt by its repeat, whatever filled the memo before it."""
    from repro.config import BUILDER_MEMO_SIZE, memoized_builder

    calls = []

    @memoized_builder
    def build(n):
        calls.append(n)
        return object()

    first = [build(n) for n in range(BUILDER_MEMO_SIZE)]
    assert build(0) is first[0]  # a hit makes 0 the most recently used
    build(BUILDER_MEMO_SIZE)  # the memo is full: 1 is dropped
    calls.clear()
    assert build(0) is first[0]
    assert build(2) is first[2]
    assert calls == []
    assert build(1) is not first[1]
    assert calls == [1]


# ---------------------------------------------------------------------------
# shared context configs
# ---------------------------------------------------------------------------

def _context_cases():
    """``(method, args, kwargs, reference)`` for every context config.

    ``reference(base)`` builds the same config from a memo-free scaled
    base with plain ``dataclasses.replace`` calls and fresh sub-trees,
    the way the harness built every config before configs were shared,
    so equal digests mean unchanged disk-cache keys. ``base(n)`` is that
    fresh base at ``n`` sockets (``None``: the context's own).
    """
    from dataclasses import replace

    from repro.config import CacheArch, LinkPolicy, WritePolicy
    from repro.locality.spec import (
        CTA_KINDS, PLACEMENT_KINDS, CtaSpec, PlacementSpec,
    )
    from repro.topology.spec import BUILDERS, build_topology

    def combined(base):
        return replace(base, cache_arch=CacheArch.NUMA_AWARE,
                       link_policy=LinkPolicy.DYNAMIC)

    def topology(config, kind):
        return replace(config, topology=build_topology.__wrapped__(
            kind, config.n_sockets, config.link))

    def policies(config, placement, cta, **params):
        return replace(config,
                       placement_spec=PlacementSpec(kind=placement, **params),
                       cta_spec=CtaSpec(kind=cta))

    def dynamic(config, **changes):
        config = replace(config, link_policy=LinkPolicy.DYNAMIC)
        return replace(config,
                       controllers=replace(config.controllers, **changes))

    numa = lambda b: replace(b(None), cache_arch=CacheArch.NUMA_AWARE)  # noqa: E731
    cases = [
        ("config_single_gpu", (), {}, lambda b: single_gpu_config(b(None))),
        ("config_traditional", (), {},
         lambda b: policies(b(None), "fine_interleave", "interleaved")),
        ("config_locality", (), {}, lambda b: b(None)),
        ("config_locality", (2,), {}, lambda b: b(2)),
        ("config_doubled_link", (), {},
         lambda b: replace(b(None), link_policy=LinkPolicy.DOUBLED)),
        ("config_combined", (), {}, lambda b: combined(b(None))),
        ("config_combined", (8,), {}, lambda b: combined(b(8))),
        ("config_no_invalidations", (), {},
         lambda b: replace(numa(b), coherence_invalidations=False)),
        ("config_write_through", (), {},
         lambda b: replace(numa(b),
                           l2_write_policy=WritePolicy.WRITE_THROUGH)),
    ]
    cases += [("config_hypothetical", (factor,), {},
               lambda b, f=factor: hypothetical_config(b(None), f))
              for factor in (1, 2, 4)]
    cases += [("config_cache", (arch,), {},
               lambda b, a=arch: replace(b(None), cache_arch=a))
              for arch in CacheArch]
    for sample, switch in ((None, None), (1000, None), (None, 10),
                           (500, 500)):
        changes = {}
        if sample is not None:
            changes["link_sample_time"] = sample
        if switch is not None:
            changes["link_switch_time"] = switch
        cases.append(("config_dynamic_link", (sample, switch), {},
                      lambda b, c=changes: dynamic(b(None), **c)))
    for kind in BUILDERS:
        for n, with_combined in ((None, False), (8, False), (4, True)):
            cases.append((
                "config_topology", (kind, n), {"combined": with_combined},
                lambda b, k=kind, n=n, c=with_combined: topology(
                    combined(b(n)) if c else b(n), k),
            ))
    for placement in PLACEMENT_KINDS:
        for cta in CTA_KINDS:
            cases.append(("config_locality_policy", (placement, cta), {},
                          lambda b, p=placement, c=cta: policies(
                              b(None), p, c)))
    knobs = {"touch_window": 16, "migration_threshold": 8,
             "max_migrations_per_page": 3, "read_shared_filter": False}
    for kind in BUILDERS:
        cases.append((
            "config_locality_policy",
            ("access_counter_migration", "distance_affine"),
            {"kind": kind, "n_sockets": 8, **knobs},
            lambda b, k=kind: policies(
                topology(b(8), k), "access_counter_migration",
                "distance_affine", **knobs),
        ))
    cases.append((
        "config_locality_policy", ("distance_weighted_first_touch",
                                   "contiguous"),
        {"combined": True, "touch_window": 8},
        lambda b: policies(combined(b(None)),
                           "distance_weighted_first_touch", "contiguous",
                           touch_window=8),
    ))
    cases.append((
        "config_locality_policy", ("first_touch", "distance_affine"),
        {"kind": "ring", "combined": True},
        lambda b: policies(topology(combined(b(None)), "ring"),
                           "first_touch", "distance_affine"),
    ))
    return cases


def test_context_cases_cover_every_config_method():
    from repro.harness.runner import ExperimentContext

    methods = {name for name in vars(ExperimentContext)
               if name.startswith("config_")}
    assert methods == {method for method, *_ in _context_cases()}


@pytest.mark.parametrize("sms", [64, 2], ids=["paper", "scaled"])
@pytest.mark.parametrize("n_sockets", [2, 4, 8])
def test_context_configs_are_shared_frozen_and_keep_their_digest(
        sms, n_sockets):
    """Every context config is one shared, deeply immutable object whose
    digest (the disk-cache key) is that of a memo-free build."""
    from repro.config import _canonical, config_digest
    from repro.harness.runner import ExperimentContext

    def fresh_base(n):
        return scaled_config.__wrapped__(
            n_sockets=n_sockets if n is None else n, sms_per_socket=sms)

    ctx = ExperimentContext(n_sockets=n_sockets, sms_per_socket=sms)
    twin = ExperimentContext(n_sockets=n_sockets, sms_per_socket=sms)
    for method, args, kwargs, reference in _context_cases():
        label = f"{method}{args}{kwargs}"
        config = getattr(ctx, method)(*args, **kwargs)
        assert getattr(ctx, method)(*args, **kwargs) is config, label
        assert getattr(twin, method)(*args, **kwargs) is config, label
        assert _canonical(config)[1] is True, label
        expected = reference(fresh_base)
        assert config == expected, label
        assert config_digest(config) == _reference_digest(expected), label


def test_contexts_of_other_sizes_share_no_config():
    from repro.config import config_digest
    from repro.harness.runner import ExperimentContext

    small = ExperimentContext(sms_per_socket=2)
    large = ExperimentContext(sms_per_socket=4)
    for method, args, kwargs, _ in _context_cases():
        a = getattr(small, method)(*args, **kwargs)
        b = getattr(large, method)(*args, **kwargs)
        assert a is not b, f"{method}{args}{kwargs}"
        assert config_digest(a) != config_digest(b), f"{method}{args}"


# ---------------------------------------------------------------------------
# controller and link validation
# ---------------------------------------------------------------------------

def _context():
    from repro.harness.runner import ExperimentContext

    return ExperimentContext()


def test_zero_link_sample_time_is_rejected():
    # It used to re-arm the link balancer at delay 0: the run never ended.
    with pytest.raises(ConfigError, match="link_sample_time must be >= 1"):
        _context().config_dynamic_link(sample_time=0)


def test_negative_link_sample_time_is_rejected():
    with pytest.raises(ConfigError, match="link_sample_time must be >= 1"):
        _context().config_dynamic_link(sample_time=-5)


def test_negative_cache_sample_time_is_rejected():
    with pytest.raises(ConfigError, match="cache_sample_time must be >= 1"):
        ControllerConfig(cache_sample_time=-1)


def test_negative_link_switch_time_is_rejected():
    with pytest.raises(ConfigError, match="link_switch_time must be >= 0"):
        _context().config_dynamic_link(switch_time=-10)


def test_saturation_threshold_above_one_is_rejected():
    with pytest.raises(ConfigError, match="saturation_threshold"):
        ControllerConfig(saturation_threshold=2.0)


def test_zero_saturation_threshold_is_rejected():
    with pytest.raises(ConfigError, match="saturation_threshold"):
        ControllerConfig(saturation_threshold=0.0)


def test_negative_link_latency_is_rejected():
    with pytest.raises(ConfigError, match="link latency must be >= 0"):
        LinkConfig(latency=-50)


def test_unknown_placement_parameter_is_rejected():
    with pytest.raises(ConfigError, match=(
            r"unknown placement parameter\(s\) \['bogus'\]; known: "
            r"\['max_migrations_per_page', 'migration_threshold', "
            r"'read_shared_filter', 'touch_window'\]")):
        _context().config_locality_policy("first_touch", bogus=3)


@pytest.mark.parametrize(
    "name", ["sms", "ctas_per_sm", "max_outstanding_per_sm", "mlp_per_cta"]
)
def test_gpu_counts_below_one_are_rejected(name):
    # sms=0 used to end in a bare AssertionError after an empty drain;
    # mlp_per_cta=0 and max_outstanding_per_sm=0 ran silently.
    with pytest.raises(ConfigError, match=f"gpu.{name} must be >= 1"):
        GpuConfig(**{name: 0})


@pytest.mark.parametrize("value", [0, 0.0, -1.5])
@pytest.mark.parametrize("name", ["dram_bandwidth", "noc_bandwidth"])
def test_nonpositive_gpu_bandwidth_is_rejected(name, value):
    with pytest.raises(ConfigError, match=f"gpu.{name} must be > 0"):
        GpuConfig(**{name: value})


@pytest.mark.parametrize("name", ["dram_latency", "noc_latency"])
def test_negative_gpu_latency_is_rejected(name):
    # dram_latency=-100 used to run silently.
    with pytest.raises(ConfigError, match=f"gpu.{name} must be >= 0"):
        GpuConfig(**{name: -100})


@pytest.mark.parametrize("name", ["migration_latency", "kernel_launch_latency"])
def test_negative_system_latency_is_rejected(name):
    # kernel_launch_latency=-5000 used to fail mid-run with a
    # SchedulingError; migration_latency=-10 ran silently.
    with pytest.raises(ConfigError, match=f"{name} must be >= 0"):
        SystemConfig(**{name: -10})


@pytest.mark.parametrize("page_size", [100, LINE_SIZE + 1, 0, -4096])
def test_page_size_must_be_a_positive_multiple_of_the_line(page_size):
    with pytest.raises(ConfigError, match="page_size must be a positive multiple"):
        SystemConfig(page_size=page_size)


def test_rejected_gpu_leaf_fails_through_replace():
    # Configs are derived with dataclasses.replace, which re-validates.
    from dataclasses import replace

    base = scaled_config()
    with pytest.raises(ConfigError, match="gpu.sms must be >= 1"):
        replace(base, gpu=replace(base.gpu, sms=0))


def test_gpu_and_system_boundaries_are_accepted():
    gpu = GpuConfig(sms=1, ctas_per_sm=1, max_outstanding_per_sm=1,
                    mlp_per_cta=1, dram_bandwidth=0.5, noc_bandwidth=0.5,
                    dram_latency=0, noc_latency=0)
    config = SystemConfig(gpu=gpu, migration_latency=0,
                          kernel_launch_latency=0, page_size=LINE_SIZE)
    assert config.page_size == LINE_SIZE and config.total_sms == 4


def test_controller_boundaries_are_accepted():
    ctl = ControllerConfig(link_sample_time=1, cache_sample_time=1,
                           link_switch_time=0, saturation_threshold=1.0)
    assert (ctl.link_sample_time, ctl.link_switch_time) == (1, 0)
    assert LinkConfig(latency=0).latency == 0


# ---------------------------------------------------------------------------
# metamorphic identities
# ---------------------------------------------------------------------------

def _identity_bases():
    from repro.harness.runner import ExperimentContext

    ctx = ExperimentContext()
    return {
        "paper": paper_config(),
        "scaled": scaled_config(),
        "combined": ctx.config_combined(),
        "ring8": ctx.config_topology("ring", n_sockets=8),
    }


@pytest.mark.parametrize("name", sorted(_identity_bases()))
def test_hypothetical_factor_one_is_the_single_gpu(name):
    """A 1x "bigger" GPU is the single GPU, so the harness runs it once."""
    from repro.config import config_digest

    base = _identity_bases()[name]
    hypo, single = hypothetical_config(base, 1), single_gpu_config(base)
    assert hypo == single
    assert config_digest(hypo) == config_digest(single)
