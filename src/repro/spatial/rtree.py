"""STR-packed R-tree for candidate segment retrieval.

The paper retrieves each GPS point's top-``k_c`` nearest road segments via a
k-NN query over an R-tree of segments (Section IV-A, citing STR packing
[Leutenegger et al., ICDE 1997]).  This module implements that index from
scratch:

* bulk loading with the Sort-Tile-Recursive (STR) algorithm,
* exact k-nearest-neighbour search with a best-first priority queue, using
  the rectangle *mindist* as an admissible lower bound and an optional exact
  item-distance callback (point-to-segment distance) at the leaf level,
* axis-aligned range queries.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

BBox = Tuple[float, float, float, float]  # (xmin, ymin, xmax, ymax)
DistanceFn = Callable[[int, float, float], float]
#: Vectorised refinement callback: (item_ids, x, y) -> exact distances.
BatchDistanceFn = Callable[[np.ndarray, float, float], np.ndarray]


def bbox_union(boxes: Sequence[BBox]) -> BBox:
    xmin = min(b[0] for b in boxes)
    ymin = min(b[1] for b in boxes)
    xmax = max(b[2] for b in boxes)
    ymax = max(b[3] for b in boxes)
    return (xmin, ymin, xmax, ymax)


def bbox_mindist(box: BBox, x: float, y: float) -> float:
    """Minimum distance from point (x, y) to rectangle ``box`` (0 inside).

    Uses ``np.hypot`` (not ``math.hypot`` — the two differ in the last ulp
    on ~0.6% of inputs) so scalar queries agree *bitwise* with the
    vectorised :func:`bbox_mindist_matrix` of the bulk k-NN path.
    """
    dx = max(box[0] - x, 0.0, x - box[2])
    dy = max(box[1] - y, 0.0, y - box[3])
    return float(np.hypot(dx, dy))


def bbox_intersects(a: BBox, b: BBox) -> bool:
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


def bbox_mindist_matrix(
    boxes: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Mindist from each of N query points to each of M boxes, shape (N, M).

    The vectorised counterpart of :func:`bbox_mindist`: one NumPy pass over
    all boxes answers every query of a batch at once, which is how the bulk
    k-NN below amortises index traversal across queries.
    """
    dx = np.maximum(boxes[None, :, 0] - xs[:, None], xs[:, None] - boxes[None, :, 2])
    dy = np.maximum(boxes[None, :, 1] - ys[:, None], ys[:, None] - boxes[None, :, 3])
    return np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))


def knn_over_boxes(
    boxes: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    k: int,
    distance_fn: Optional[DistanceFn] = None,
    batch_distance_fn: Optional[BatchDistanceFn] = None,
    max_distance: float = math.inf,
    chunk_size: int = 256,
) -> List[List[Tuple[int, float]]]:
    """Exact k-NN of N query points over M item bounding boxes.

    One vectorised mindist pass per query chunk replaces per-query tree/ring
    traversal; when an exact item distance is available it refines candidates
    in ascending-mindist order and stops as soon as the k-th best exact
    distance undercuts the next candidate's lower bound (the same admissible
    bound the best-first heap of :meth:`STRtree.nearest` uses).  Ties are
    broken by item id.
    """
    n_queries = len(xs)
    m = len(boxes)
    if m == 0 or k <= 0:
        return [[] for _ in range(n_queries)]
    results: List[List[Tuple[int, float]]] = []
    kk = min(k, m)
    for start in range(0, n_queries, chunk_size):
        qx = xs[start : start + chunk_size]
        qy = ys[start : start + chunk_size]
        mindists = bbox_mindist_matrix(boxes, qx, qy)
        for row_i in range(len(qx)):
            row = mindists[row_i]
            if distance_fn is None and batch_distance_fn is None:
                results.append(_select_topk(row, kk, max_distance))
            else:
                results.append(
                    _select_topk_refined(
                        row, kk, float(qx[row_i]), float(qy[row_i]),
                        distance_fn, batch_distance_fn, max_distance,
                    )
                )
    return results


def _select_topk(row: np.ndarray, k: int, max_distance: float) -> List[Tuple[int, float]]:
    """Top-k of one distance row, ties broken by item id."""
    part = np.argpartition(row, k - 1)[:k]
    threshold = row[part].max()
    candidates = np.flatnonzero(row <= threshold)
    # Stable sort of an ascending-id candidate list => (distance, id) order.
    candidates = candidates[np.argsort(row[candidates], kind="stable")]
    out: List[Tuple[int, float]] = []
    for item in candidates:
        if len(out) == k or row[item] > max_distance:
            break
        out.append((int(item), float(row[item])))
    return out


def _select_topk_refined(
    row: np.ndarray,
    k: int,
    x: float,
    y: float,
    distance_fn: Optional[DistanceFn],
    batch_distance_fn: Optional[BatchDistanceFn],
    max_distance: float,
) -> List[Tuple[int, float]]:
    """Exact top-k when item distances refine the bbox lower bounds."""
    order = np.argsort(row, kind="stable")
    m = len(order)
    exact_ids: List[int] = []
    exact_ds: List[float] = []
    pos = 0
    block = max(4 * k, 16)
    while pos < m:
        if len(exact_ds) >= k:
            kth = np.partition(np.asarray(exact_ds), k - 1)[k - 1]
            if kth <= row[order[pos]]:
                break
        if row[order[pos]] > max_distance:
            break
        ids = order[pos : pos + block]
        if batch_distance_fn is not None:
            ds = np.asarray(batch_distance_fn(ids, x, y), dtype=np.float64)
        else:
            ds = np.asarray([distance_fn(int(i), x, y) for i in ids])
        exact_ids.extend(int(i) for i in ids)
        exact_ds.extend(float(d) for d in ds)
        pos += block
    if not exact_ids:
        return []
    ids_arr = np.asarray(exact_ids)
    ds_arr = np.asarray(exact_ds)
    keep = ds_arr <= max_distance
    ids_arr, ds_arr = ids_arr[keep], ds_arr[keep]
    ranked = np.lexsort((ids_arr, ds_arr))[:k]
    return [(int(ids_arr[i]), float(ds_arr[i])) for i in ranked]


@dataclass
class _Node:
    bbox: BBox
    children: Optional[List["_Node"]]  # None for leaves
    items: Optional[List[Tuple[BBox, int]]]  # None for internal nodes

    @property
    def is_leaf(self) -> bool:
        return self.items is not None


class STRtree:
    """Static R-tree bulk-loaded with Sort-Tile-Recursive packing.

    Parameters
    ----------
    bboxes:
        One bounding box per indexed item; the item id is its position in
        this sequence.
    node_capacity:
        Maximum entries per node (leaf and internal), default 16.
    """

    def __init__(self, bboxes: Sequence[BBox], node_capacity: int = 16) -> None:
        if node_capacity < 2:
            raise ValueError("node_capacity must be >= 2")
        self.node_capacity = node_capacity
        self.size = len(bboxes)
        self._root = self._bulk_load(list(bboxes)) if bboxes else None
        self._box_array: Optional[np.ndarray] = None  # lazy, for bulk k-NN

    # ------------------------------------------------------------------ build

    def _bulk_load(self, bboxes: List[BBox]) -> _Node:
        entries = [(box, idx) for idx, box in enumerate(bboxes)]
        leaves = self._pack_level(
            entries,
            key_x=lambda e: (e[0][0] + e[0][2]) / 2.0,
            key_y=lambda e: (e[0][1] + e[0][3]) / 2.0,
            make_node=lambda group: _Node(
                bbox=bbox_union([g[0] for g in group]), children=None, items=group
            ),
        )
        level: List[_Node] = leaves
        while len(level) > 1:
            level = self._pack_level(
                level,
                key_x=lambda n: (n.bbox[0] + n.bbox[2]) / 2.0,
                key_y=lambda n: (n.bbox[1] + n.bbox[3]) / 2.0,
                make_node=lambda group: _Node(
                    bbox=bbox_union([g.bbox for g in group]),
                    children=list(group),
                    items=None,
                ),
            )
        return level[0]

    def _pack_level(self, entries, key_x, key_y, make_node):
        """One STR packing pass: sort by x, slice, sort slices by y, chunk."""
        cap = self.node_capacity
        n = len(entries)
        n_nodes = math.ceil(n / cap)
        # ceil(sqrt(n_nodes)) in pure integer math: float sqrt is banned in
        # vectorised modules (RL001) and isqrt cannot drift by an ulp.
        n_slices = math.isqrt(n_nodes - 1) + 1 if n_nodes else 0
        slice_size = n_slices * cap
        by_x = sorted(entries, key=key_x)
        nodes = []
        for s in range(0, n, slice_size):
            tile = sorted(by_x[s : s + slice_size], key=key_y)
            for c in range(0, len(tile), cap):
                nodes.append(make_node(tile[c : c + cap]))
        return nodes

    # ---------------------------------------------------------------- queries

    def nearest(
        self,
        x: float,
        y: float,
        k: int = 1,
        distance_fn: Optional[DistanceFn] = None,
        max_distance: float = math.inf,
    ) -> List[Tuple[int, float]]:
        """Exact k nearest items to (x, y), as ``[(item_id, distance), ...]``.

        ``distance_fn(item_id, x, y)`` refines the item's bbox mindist to an
        exact distance (e.g. perpendicular point-to-segment distance); when
        omitted the bbox mindist itself is the item distance.  Best-first
        search with admissible bounds guarantees exactness.  Ties in distance
        are broken deterministically by item id.
        """
        if self._root is None or k <= 0:
            return []
        counter = itertools.count()
        heap: List[Tuple[float, int, int, object]] = []
        # Heap entries: (lower_bound_distance, kind, tiebreak, payload)
        # kind 0 = resolved item (exact distance), 1 = node/raw item.
        heapq.heappush(heap, (0.0, 1, next(counter), self._root))
        results: List[Tuple[int, float]] = []
        while heap and len(results) < k:
            dist, kind, _, payload = heapq.heappop(heap)
            if dist > max_distance:
                break
            if kind == 0:
                results.append((payload, dist))  # type: ignore[arg-type]
                continue
            node = payload
            if isinstance(node, _Node):
                if node.is_leaf:
                    assert node.items is not None
                    for box, item_id in node.items:
                        lower = bbox_mindist(box, x, y)
                        if distance_fn is None:
                            heapq.heappush(heap, (lower, 0, item_id, item_id))
                        else:
                            exact = distance_fn(item_id, x, y)
                            heapq.heappush(heap, (exact, 0, item_id, item_id))
                else:
                    assert node.children is not None
                    for child in node.children:
                        lower = bbox_mindist(child.bbox, x, y)
                        heapq.heappush(heap, (lower, 1, next(counter), child))
        return results

    def _item_boxes(self) -> np.ndarray:
        """Id-ordered ``(size, 4)`` array of the indexed boxes (lazy)."""
        if self._box_array is None:
            boxes = np.empty((self.size, 4), dtype=np.float64)
            stack = [self._root] if self._root is not None else []
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    assert node.items is not None
                    for box, item_id in node.items:
                        boxes[item_id] = box
                else:
                    assert node.children is not None
                    stack.extend(node.children)
            self._box_array = boxes
        return self._box_array

    def nearest_batch(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        k: int = 1,
        distance_fn: Optional[DistanceFn] = None,
        batch_distance_fn: Optional[BatchDistanceFn] = None,
        max_distance: float = math.inf,
    ) -> List[List[Tuple[int, float]]]:
        """k-NN for N query points at once (the bulk form of :meth:`nearest`).

        All queries share one vectorised NumPy pass over the leaf boxes
        instead of N best-first traversals; ``batch_distance_fn(ids, x, y)``
        vectorises the exact-distance refinement the scalar ``distance_fn``
        would otherwise do one item at a time.  Results match per-query
        :meth:`nearest` calls (ties broken by item id).
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if self._root is None or k <= 0:
            return [[] for _ in range(len(xs))]
        return knn_over_boxes(
            self._item_boxes(), xs, ys, k,
            distance_fn=distance_fn,
            batch_distance_fn=batch_distance_fn,
            max_distance=max_distance,
        )

    def query_range(self, box: BBox) -> List[int]:
        """Item ids whose bounding boxes intersect ``box``."""
        if self._root is None:
            return []
        hits: List[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not bbox_intersects(node.bbox, box):
                continue
            if node.is_leaf:
                assert node.items is not None
                hits.extend(
                    item_id for ibox, item_id in node.items if bbox_intersects(ibox, box)
                )
            else:
                assert node.children is not None
                stack.extend(node.children)
        return sorted(hits)

    # ------------------------------------------------------------- inspection

    def height(self) -> int:
        """Tree height (0 for an empty tree, 1 for a single leaf)."""
        if self._root is None:
            return 0
        h, node = 1, self._root
        while not node.is_leaf:
            assert node.children is not None
            node = node.children[0]
            h += 1
        return h
