"""Central registry of every cache in the process.

Caches live in several layers — the plan memo and cost memo inside each
:class:`~repro.network.routing.DARoutePlanner`, plus the precomputed
successor/fan-out table of each
:class:`~repro.network.road_network.RoadNetwork`.  This registry lets one
call report the sizes and hit rates of all of them (``all_cache_info`` /
``cache_report``).

Owners are held by weak reference so registration never extends the life
of a network or planner; dead entries are dropped on the next read.
"""

from __future__ import annotations

import itertools
import os
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Optional

#: name -> (weakref to owner, probe(owner) -> CacheProbe)
_caches: Dict[str, tuple] = {}
_serial = itertools.count(1)


@dataclass(frozen=True)
class CacheProbe:
    """Uniform snapshot of one cache: size plus optional hit/miss counters.

    Size-only entries (plain dict memos, precomputed lookup tables) leave
    ``hits``/``misses`` as ``None`` and report no hit rate.
    """

    size: int
    capacity: Optional[int] = None
    hits: Optional[int] = None
    misses: Optional[int] = None

    @property
    def hit_rate(self) -> Optional[float]:
        if self.hits is None or self.misses is None:
            return None
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _default_probe(owner) -> CacheProbe:
    """Probe an ``LRUCache``-style object exposing ``info()``."""
    info = owner.info()
    return CacheProbe(
        size=info.size, capacity=info.capacity,
        hits=info.hits, misses=info.misses,
    )


def size_probe(attr: str) -> Callable:
    """Probe reporting only ``len(getattr(owner, attr))``."""

    def probe(owner) -> CacheProbe:
        return CacheProbe(size=len(getattr(owner, attr)))

    return probe


def register_cache(
    name: str, owner, probe: Optional[Callable] = None
) -> str:
    """Register a cache under ``name`` (deduplicated with a ``#n`` suffix).

    ``owner`` is weakly referenced; ``probe(owner)`` must return a
    :class:`CacheProbe`.  Without a probe the owner must expose ``info()``
    (the :class:`~repro.network.cache.LRUCache` protocol).  Returns the
    final registered name.
    """
    unique = name
    while unique in _caches and _caches[unique][0]() is not None:
        unique = f"{name}#{next(_serial)}"
    _caches[unique] = (weakref.ref(owner), probe or _default_probe)
    return unique


def unregister_cache(name: str) -> None:
    _caches.pop(name, None)


def clear_cache_registry() -> None:
    """Drop every registration (test isolation)."""
    _caches.clear()


# A forked engine worker inherits the parent's registrations; its cache
# reports would then cover parent-owned planners/networks it never uses.
# Clear at the fork boundary so workers only report what their own rebuilt
# runtime registers (mirrors the registry reset in telemetry.state).
if hasattr(os, "register_at_fork"):  # pragma: no branch - always true on posix
    os.register_at_fork(after_in_child=clear_cache_registry)


def all_cache_info() -> Dict[str, CacheProbe]:
    """Snapshot of every live registered cache; prunes dead owners."""
    snapshot: Dict[str, CacheProbe] = {}
    for name in list(_caches):
        ref, probe = _caches[name]
        owner = ref()
        if owner is None:
            del _caches[name]
            continue
        snapshot[name] = probe(owner)
    return snapshot


def cache_report() -> str:
    """Human-readable table of all registered caches and their hit rates."""
    rows = all_cache_info()
    if not rows:
        return "no registered caches"
    headers = ("cache", "size", "capacity", "hits", "misses", "hit rate")
    table = [headers]
    for name in sorted(rows):
        probe = rows[name]
        rate = probe.hit_rate
        table.append((
            name,
            str(probe.size),
            "-" if probe.capacity is None else str(probe.capacity),
            "-" if probe.hits is None else str(probe.hits),
            "-" if probe.misses is None else str(probe.misses),
            "-" if rate is None else f"{rate:.1%}",
        ))
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    ]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
