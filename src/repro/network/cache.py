"""Bounded LRU caches for the routing layer.

Route stitching (Algorithm 1, lines 10-13) re-plans the same segment pairs
over and over: consecutive trajectories share popular OD pairs, and the
outlier-dropping pass of :meth:`MapMatcher.stitch` probes each pair up to
three times.  An unbounded dict would grow with the square of the segment
count on large networks, so the planner memoises through this
fixed-capacity LRU instead.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of a cache's effectiveness counters."""

    hits: int
    misses: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """A fixed-capacity mapping evicting the least-recently-used entry.

    ``get`` refreshes recency; ``put`` inserts (or refreshes) and evicts the
    oldest entry once ``capacity`` is exceeded.  Hit/miss counters feed the
    efficiency reports (Figs. 5/9 route-cache hit rates).
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._store: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    def get(self, key: Hashable, default: Optional[Any] = None) -> Optional[Any]:
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            return default
        self._store.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        store = self._store
        if key in store:
            store.move_to_end(key)
        store[key] = value
        if len(store) > self.capacity:
            store.popitem(last=False)

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def info(self) -> CacheInfo:
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            size=len(self._store),
            capacity=self.capacity,
        )
