"""Hook-point registry for the cold observability sites.

Two kinds of site feed a tracer:

* **Per-op sites** — the miss-path walker stages, the burst issue loop
  and the fabric send, which run millions of times per run. They carry
  no hook call at all: a system built with a tracer is built from the
  traced subclasses of :mod:`repro.obs.traced`, whose overrides call the
  tracer around the base method, so an untraced system pays nothing per
  op. The ``obs-hook-discipline`` lint rule flags any ``_obs_*`` call in
  a declared hot function.
* **Cold sites** — kernel launches, page re-homes and lane turns, which
  fire per kernel, per migration or per turn. They keep this registry:
  the instrumented module binds a module-level global to the shared
  :data:`NOOP` and declares the site here::

      from repro.obs.hooks import NOOP, register

      _obs_kernel_launch = NOOP
      register(__name__, "_obs_kernel_launch", "kernel_launch")

  Call sites are bare global calls — ``_obs_kernel_launch(...)``.
  :func:`enable` rebinds every registered site to the matching
  ``on_<event>`` method of a tracer; :func:`disable` restores
  :data:`NOOP`. This state is process-global (matching the
  module-global bind points), so runs are traced one at a time under a
  ``try/finally`` — exactly how :class:`repro.gpu.system.NumaGpuSystem`
  drives it.
"""

from __future__ import annotations

import sys


def NOOP(*args) -> None:
    """Shared do-nothing handler every hook site binds when disabled."""
    return None


#: Registered (module name, global attr, event name) bind sites.
_SITES: list[tuple[str, str, str]] = []

#: The tracer currently bound into the hook sites, or None.
_bound = None


def register(module_name: str, attr: str, event: str) -> None:
    """Declare one hook site: ``module.attr`` fires ``on_<event>``.

    Called at import time by every instrumented module, immediately
    after binding ``attr = NOOP``. Registration is idempotent per
    (module, attr) pair so a re-imported module does not duplicate its
    sites.
    """
    for mod, existing, _ in _SITES:
        if mod == module_name and existing == attr:
            return
    _SITES.append((module_name, attr, event))


def sites() -> tuple[tuple[str, str, str], ...]:
    """All registered (module, attr, event) sites, registration order."""
    return tuple(_SITES)


def is_enabled() -> bool:
    """True while a tracer is bound into the hook sites."""
    return _bound is not None


def enable(tracer) -> None:
    """Swap every registered site from :data:`NOOP` to ``tracer``.

    Each site's global becomes ``tracer.on_<event>`` (the handler must
    exist — a missing handler is a programming error, raised eagerly so
    a typo'd event name cannot silently trace nothing). Raises
    ``RuntimeError`` when a tracer is already bound: nested tracing has
    no meaning for module-global bind points.
    """
    global _bound
    if _bound is not None:
        raise RuntimeError(
            "obs hooks already enabled; disable() the current tracer first"
        )
    for module_name, attr, event in _SITES:
        handler = getattr(tracer, "on_" + event)
        setattr(sys.modules[module_name], attr, handler)
    _bound = tracer


def disable() -> None:
    """Restore every registered site to :data:`NOOP` (idempotent)."""
    global _bound
    for module_name, attr, _event in _SITES:
        setattr(sys.modules[module_name], attr, NOOP)
    _bound = None
