"""The locality subsystem: topology-aware placement + CTA scheduling.

The paper's central claim (Sections 3-4) is that a NUMA-aware GPU only
works when the *software* locality policy — where pages are homed and
which socket runs which CTA block — cooperates with the interconnect.
On multi-hop fabrics a distance-blind policy is exactly the ring/mesh
gap the topology driver measures at 8-16 sockets.

This package is the one policy surface for both levers:

* :mod:`repro.locality.distance` — :class:`DistanceModel`, the hop-count
  and bottleneck-bandwidth matrices every fabric exposes (identity for
  the crossbar, routing-table derived for multi-hop fabrics);
* :mod:`repro.locality.placement` — the page-placement policy registry:
  the paper's four policies plus the distance-aware
  ``distance_weighted_first_touch`` and ``access_counter_migration``;
* :mod:`repro.locality.cta` — the CTA-assignment policy registry: the
  paper's ``contiguous`` and ``interleaved`` plus the affinity-aware
  ``distance_affine``;
* :mod:`repro.locality.spec` — the frozen policy specs
  (:class:`PlacementSpec` / :class:`CtaSpec`) that
  :class:`repro.config.SystemConfig` carries as its only policy fields,
  so a locality policy is part of every run's content-addressed
  identity exactly like a topology.

The default config (crossbar, ``first_touch``, ``contiguous``) is
byte-identical to the pre-locality simulator; see DESIGN.md, "Locality
layer".
"""

from repro.locality.cta import (
    CTA_POLICIES,
    CtaAssignmentPolicy,
    build_cta_policy,
)
from repro.locality.distance import DistanceModel
from repro.locality.placement import (
    PAGE_POLICIES,
    PagePolicy,
    build_page_policy,
)
from repro.locality.spec import CTA_KINDS, PLACEMENT_KINDS, CtaSpec, PlacementSpec

__all__ = [
    "CTA_KINDS",
    "CTA_POLICIES",
    "CtaAssignmentPolicy",
    "CtaSpec",
    "DistanceModel",
    "PAGE_POLICIES",
    "PLACEMENT_KINDS",
    "PagePolicy",
    "PlacementSpec",
    "build_cta_policy",
    "build_page_policy",
]
