"""Declarative locality-policy specs carried by :class:`SystemConfig`.

A :class:`PlacementSpec` / :class:`CtaSpec` names a registered policy
*kind* plus its tuning parameters. They are the only way a config picks
its page-placement and CTA-assignment policies (``SystemConfig``'s
``placement_spec`` / ``cta_spec`` fields, which default to the paper's
``first_touch`` + ``contiguous`` runtime). Both are frozen dataclasses
of plain scalars, so :func:`repro.config.config_fingerprint`
canonicalizes them exactly like every other config field — a locality
policy can never be silently dropped from a run's content-addressed
identity, and two configs naming the same policies share one identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Registered page-placement policy kinds: the paper's four Section 3
#: policies, then the two distance-aware additions
#: (:mod:`repro.locality.placement`).
PLACEMENT_KINDS = (
    "fine_interleave",
    "page_interleave",
    "first_touch",
    "local_only",
    "distance_weighted_first_touch",
    "access_counter_migration",
)

#: Registered CTA-assignment policy kinds (:mod:`repro.locality.cta`).
CTA_KINDS = (
    "contiguous",
    "interleaved",
    "distance_affine",
)


@dataclass(frozen=True)
class PlacementSpec:
    """One page-placement policy selection plus its tuning knobs.

    ``touch_window`` — every this-many touches of a page,
    ``distance_weighted_first_touch`` re-evaluates the page's
    hop-weighted centroid; ``migration_threshold`` — remote touches from
    one socket that trigger an ``access_counter_migration`` re-home;
    ``max_migrations_per_page`` — re-home cap preventing ping-pong
    (first-touch claims are not counted against it);
    ``read_shared_filter`` — ``access_counter_migration`` only: suppress
    re-homing of pages that are *read-shared* (two or more distinct
    remote readers, zero remote writes since the last homing) — moving
    such a page can never make more than one of its readers local, so
    migration just ping-pongs it between sharers.
    """

    kind: str = "first_touch"
    touch_window: int = 32
    migration_threshold: int = 32
    max_migrations_per_page: int = 2
    read_shared_filter: bool = True

    def __post_init__(self) -> None:
        if self.kind not in PLACEMENT_KINDS:
            raise ConfigError(
                f"unknown placement kind {self.kind!r}; "
                f"known: {sorted(PLACEMENT_KINDS)}"
            )
        if self.touch_window < 2:
            raise ConfigError("touch_window must be >= 2")
        if self.migration_threshold < 1:
            raise ConfigError("migration_threshold must be >= 1")
        if self.max_migrations_per_page < 0:
            raise ConfigError("max_migrations_per_page must be >= 0")


@dataclass(frozen=True)
class CtaSpec:
    """One CTA-assignment policy selection."""

    kind: str = "contiguous"

    def __post_init__(self) -> None:
        if self.kind not in CTA_KINDS:
            raise ConfigError(
                f"unknown CTA policy kind {self.kind!r}; "
                f"known: {sorted(CTA_KINDS)}"
            )
