"""Uniform grid spatial index.

A simple alternative to the R-tree used by several baselines (DeepMM
tokenises GPS points into grid cells; DHTR/TERI originate in free-space grid
models).  Also handy as a cross-check oracle in tests: grid k-NN results must
match R-tree k-NN results.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

BBox = Tuple[float, float, float, float]
DistanceFn = Callable[[int, float, float], float]


class UniformGrid:
    """Buckets item bounding boxes into square cells of ``cell_size`` metres."""

    def __init__(self, bboxes: Sequence[BBox], cell_size: float = 250.0) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = cell_size
        self.size = len(bboxes)
        self._bboxes = list(bboxes)
        self._box_array: Optional[np.ndarray] = None  # lazy, for bulk k-NN
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        for item_id, box in enumerate(bboxes):
            for cell in self._cells_of_bbox(box):
                self._cells.setdefault(cell, []).append(item_id)

    def _cell_of_point(self, x: float, y: float) -> Tuple[int, int]:
        return (int(math.floor(x / self.cell_size)), int(math.floor(y / self.cell_size)))

    def _cells_of_bbox(self, box: BBox) -> List[Tuple[int, int]]:
        cx0, cy0 = self._cell_of_point(box[0], box[1])
        cx1, cy1 = self._cell_of_point(box[2], box[3])
        return [(cx, cy) for cx in range(cx0, cx1 + 1) for cy in range(cy0, cy1 + 1)]

    def cell_id(self, x: float, y: float) -> Tuple[int, int]:
        """Grid cell containing point (x, y) — the DeepMM token."""
        return self._cell_of_point(x, y)

    def nearest(
        self,
        x: float,
        y: float,
        k: int = 1,
        distance_fn: Optional[DistanceFn] = None,
        max_distance: float = math.inf,
    ) -> List[Tuple[int, float]]:
        """Exact k-NN by expanding rings of cells around the query point.

        A ring at radius ``ring`` only contains items at distance at least
        ``(ring - 1) * cell_size`` from the query, so expansion can stop once
        k candidates closer than the next ring's lower bound are known.
        """
        if self.size == 0 or k <= 0:
            return []
        from ..spatial.rtree import bbox_mindist

        qx, qy = self._cell_of_point(x, y)
        found: Dict[int, float] = {}
        ring = 0
        max_ring = self._max_ring(qx, qy)
        while ring <= max_ring:
            for cell in self._ring_cells(qx, qy, ring):
                for item_id in self._cells.get(cell, []):
                    if item_id in found:
                        continue
                    if distance_fn is None:
                        dist = bbox_mindist(self._bboxes[item_id], x, y)
                    else:
                        dist = distance_fn(item_id, x, y)
                    found[item_id] = dist
            lower_bound_next = ring * self.cell_size
            good = sorted(
                ((d, i) for i, d in found.items() if d <= max_distance)
            )[:k]
            if len(good) == k and good[-1][0] <= lower_bound_next:
                return [(i, d) for d, i in good]
            ring += 1
        good = sorted(((d, i) for i, d in found.items() if d <= max_distance))[:k]
        return [(i, d) for d, i in good]

    def nearest_batch(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        k: int = 1,
        distance_fn: Optional[DistanceFn] = None,
        batch_distance_fn=None,
        max_distance: float = math.inf,
    ) -> List[List[Tuple[int, float]]]:
        """Bulk k-NN: N queries answered in one vectorised pass over the
        indexed boxes instead of N per-query ring expansions.

        Results match per-query :meth:`nearest` calls (ties broken by item
        id); ``batch_distance_fn(ids, x, y)`` vectorises the exact-distance
        refinement when an item distance callback is in play.
        """
        from .rtree import knn_over_boxes

        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if self.size == 0 or k <= 0:
            return [[] for _ in range(len(xs))]
        if self._box_array is None:
            self._box_array = np.asarray(self._bboxes, dtype=np.float64)
        return knn_over_boxes(
            self._box_array, xs, ys, k,
            distance_fn=distance_fn,
            batch_distance_fn=batch_distance_fn,
            max_distance=max_distance,
        )

    def _max_ring(self, qx: int, qy: int) -> int:
        """Farthest ring that can contain any item, seen from the query cell."""
        if not self._cells:
            return 0
        return (
            max(max(abs(cx - qx), abs(cy - qy)) for cx, cy in self._cells) + 1
        )

    def _ring_cells(self, cx: int, cy: int, ring: int) -> List[Tuple[int, int]]:
        if ring == 0:
            return [(cx, cy)]
        cells = []
        for dx in range(-ring, ring + 1):
            cells.append((cx + dx, cy - ring))
            cells.append((cx + dx, cy + ring))
        for dy in range(-ring + 1, ring):
            cells.append((cx - ring, cy + dy))
            cells.append((cx + ring, cy + dy))
        return cells
