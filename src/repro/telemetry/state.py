"""Process-global telemetry state: the on/off switch and the registry.

Telemetry is **disabled by default**; every instrumented call site goes
through a no-op fast path whose cost is a flag check.  Enable it with::

    REPRO_TELEMETRY=1 python -m repro.experiments fig9

or programmatically via :func:`enable` / the :func:`enabled_scope` context
manager.  The flag is read directly (``state._enabled``) by the span fast
path, so toggling is instant and allocation-free when off.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from .metrics import MetricsRegistry

_TRUTHY_OFF = ("", "0", "false", "no", "off")


def _env_enabled(value: str) -> bool:
    """Interpret the ``REPRO_TELEMETRY`` environment value."""
    return value.strip().lower() not in _TRUTHY_OFF


_enabled: bool = _env_enabled(os.environ.get("REPRO_TELEMETRY", ""))
_registry = MetricsRegistry()


def enabled() -> bool:
    """Whether instrumentation currently records anything."""
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


@contextmanager
def enabled_scope(on: bool = True) -> Iterator[None]:
    """Temporarily force telemetry on (or off), restoring the prior state."""
    global _enabled
    previous = _enabled
    _enabled = on
    try:
        yield
    finally:
        _enabled = previous


def get_registry() -> MetricsRegistry:
    """The process-global registry all instrumentation records into."""
    return _registry


def reset() -> None:
    """Clear all recorded spans (test isolation)."""
    _registry.reset()


# A forked worker inherits the parent's registry contents; without a reset
# its first chunk export would re-deliver everything the parent already
# recorded, double-counting on merge.  Fork start is the default for the
# parallel engine on Linux, so clear the child's copy at the fork boundary.
if hasattr(os, "register_at_fork"):  # pragma: no branch - always true on posix
    os.register_at_fork(after_in_child=reset)
