"""The road network model (Definition 1).

A road network is a directed graph ``G = (V, E)``: nodes are intersections or
road ends with planar coordinates (metres, in a local projection), and each
directed edge is a *road segment* from an entrance node to an exit node.
Segments are straight lines between their endpoint nodes.

:class:`RoadNetwork` packages the graph with the derived structures every
method in the library needs:

* per-segment :class:`~repro.geometry.segments.SegmentGeometry` and lengths,
* adjacency (outgoing/incoming edges per node, segment successor lists),
* one vectorised point-to-segment distance kernel
  (:meth:`RoadNetwork.segment_distances`) and the exact top-``k_c``
  candidate query built on it (Definition 8),
* the local lat/lng projection so GPS coordinates can be mapped into the
  planar frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.points import LocalProjection
from ..geometry.segments import SegmentGeometry, project_ratio
from ..telemetry import span


@dataclass(frozen=True)
class Segment:
    """A directed road segment ``e = (u, v)`` with id ``edge_id``."""

    edge_id: int
    u: int
    v: int
    length: float


class RoadNetwork:
    """Directed road-network graph with exact nearest-segment queries.

    Parameters
    ----------
    node_xy:
        ``(m, 2)`` planar coordinates of the intersections, in metres.
    edges:
        Sequence of ``(u, v)`` node-id pairs; the segment id of each edge is
        its position in this sequence.
    projection:
        Optional lat/lng <-> xy projection; defaults to an equirectangular
        frame anchored at (0, 0) so purely synthetic networks still support
        the GPS-facing API.
    """

    def __init__(
        self,
        node_xy: np.ndarray,
        edges: Sequence[Tuple[int, int]],
        projection: Optional[LocalProjection] = None,
    ) -> None:
        self.node_xy = np.asarray(node_xy, dtype=np.float64)
        if self.node_xy.ndim != 2 or self.node_xy.shape[1] != 2:
            raise ValueError("node_xy must have shape (m, 2)")
        m = self.node_xy.shape[0]
        self.projection = projection or LocalProjection(0.0, 0.0)

        self.segments: List[Segment] = []
        self._geometry: List[SegmentGeometry] = []
        self.out_edges: List[List[int]] = [[] for _ in range(m)]
        self.in_edges: List[List[int]] = [[] for _ in range(m)]
        for edge_id, (u, v) in enumerate(edges):
            if not (0 <= u < m and 0 <= v < m):
                raise ValueError(f"edge ({u}, {v}) references unknown node")
            if u == v:
                raise ValueError(f"self-loop edge at node {u} is not a road segment")
            geom = SegmentGeometry(*self.node_xy[u], *self.node_xy[v])
            self.segments.append(Segment(edge_id, u, v, geom.length))
            self._geometry.append(geom)
            self.out_edges[u].append(edge_id)
            self.in_edges[v].append(edge_id)

        self._edge_index: Dict[Tuple[int, int], int] = {
            (s.u, s.v): s.edge_id for s in self.segments
        }
        # Segment-to-successors fan-out table: one shared list per segment,
        # precomputed so the routing hot loops avoid per-call indirection.
        self.successor_table: List[List[int]] = [
            self.out_edges[s.v] for s in self.segments
        ]
        # Vectorised segment geometry for the distance kernel.
        if edges:
            a = np.array([[g.ax, g.ay] for g in self._geometry])
            b = np.array([[g.bx, g.by] for g in self._geometry])
            self._seg_a = a
            self._seg_b = b
            self._seg_d = b - a
            self._seg_len2 = np.maximum((self._seg_d**2).sum(axis=1), 1e-18)
        else:
            self._seg_a = np.zeros((0, 2))
            self._seg_b = np.zeros((0, 2))
            self._seg_d = np.zeros((0, 2))
            self._seg_len2 = np.zeros(0)
        #: Optional per-node traffic-signal flags (OSM ``highway=
        #: traffic_signals``); set by dataset construction when available.
        self.signalized_nodes: Optional[np.ndarray] = None
        #: Optional per-segment free-flow speed factors (road class / speed
        #: limit, e.g. OSM ``maxspeed``), relative to the city mean.
        self.speed_factors: Optional[np.ndarray] = None

    # ------------------------------------------------------------- basic API

    @property
    def n_nodes(self) -> int:
        return self.node_xy.shape[0]

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def geometry(self, edge_id: int) -> SegmentGeometry:
        return self._geometry[edge_id]

    def segment_length(self, edge_id: int) -> float:
        return self.segments[edge_id].length

    def edge_between(self, u: int, v: int) -> Optional[int]:
        """Segment id of edge (u, v), or None if absent."""
        return self._edge_index.get((u, v))

    def successors(self, edge_id: int) -> List[int]:
        """Segments whose entrance is this segment's exit node."""
        return self.successor_table[edge_id]

    def predecessors(self, edge_id: int) -> List[int]:
        """Segments whose exit is this segment's entrance node."""
        return self.in_edges[self.segments[edge_id].u]

    def reverse_of(self, edge_id: int) -> Optional[int]:
        """The opposite-direction twin segment (v, u), if the road is two-way."""
        seg = self.segments[edge_id]
        return self._edge_index.get((seg.v, seg.u))

    def max_out_degree(self) -> int:
        return max((len(e) for e in self.out_edges), default=0)

    def exit_signalized(self, edge_id: int) -> bool:
        """Whether the segment's exit node carries a traffic signal."""
        if self.signalized_nodes is None:
            return False
        return bool(self.signalized_nodes[self.segments[edge_id].v])

    def speed_factor(self, edge_id: int) -> float:
        """Free-flow speed factor of the segment (1.0 when unknown)."""
        if self.speed_factors is None:
            return 1.0
        return float(self.speed_factors[edge_id])

    # ----------------------------------------------------------- spatial API

    def segment_distances(
        self, xy: np.ndarray, ids: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Perpendicular distances from N planar points to segments.

        Returns an ``(N, len(ids))`` array, or ``(N, n_segments)`` when
        ``ids`` is None.  This is the one vectorised form of
        :func:`~repro.geometry.segments.point_segment_distance`; every op is
        elementwise per (point, segment) pair, so a column depends only on
        its own point and segment, whatever else is in the batch.
        """
        xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
        a, d, len2 = self._seg_a, self._seg_d, self._seg_len2
        if ids is not None:
            rows = np.asarray(ids, dtype=np.int64)
            a, d, len2 = a[rows], d[rows], len2[rows]
        t = ((xy[:, None, :] - a[None]) * d[None]).sum(axis=2) / len2[None]
        t = np.clip(t, 0.0, 1.0)
        closest = a[None] + t[:, :, None] * d[None]
        return np.sqrt(((closest - xy[:, None, :]) ** 2).sum(axis=2))

    def nearest_segments(
        self, x: float, y: float, k: int = 1
    ) -> List[Tuple[int, float]]:
        """Top-``k`` nearest segments to planar (x, y), with exact distances.

        This is the candidate-set query of Definition 8 (``k = k_c``), as a
        batch of one of :meth:`nearest_segments_batch` (without its span).
        """
        return self._nearest_segments_batch(np.array([[x, y]]), k)[0]

    #: Query-chunk size bounding the (chunk, M) distance-matrix memory of the
    #: k-NN scan.  Larger blocks buy no speed: the top-k selection runs per
    #: row either way.
    KNN_CHUNK = 64

    def nearest_segments_batch(
        self, xy: np.ndarray, k: int = 1
    ) -> List[List[Tuple[int, float]]]:
        """Top-``k`` nearest segments (id, distance) for N planar points.

        An exact ``O(N * |E|)`` scan: :meth:`segment_distances` over blocks of
        :attr:`KNN_CHUNK` queries, then a top-``k`` selection per row.  Hits
        are the first ``min(k, n_segments)`` segments in ``(distance, id)``
        order, so equidistant twins of a two-way road that straddle the
        ``k``-th place resolve to the lower id.  None on an edgeless network.

        Telemetry: each call is recorded as a ``candidates`` span, nesting
        under ``features`` when invoked from the batched feature encoder.
        """
        with span("candidates"):
            return self._nearest_segments_batch(xy, k)

    def _nearest_segments_batch(
        self, xy: np.ndarray, k: int
    ) -> List[List[Tuple[int, float]]]:
        xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
        n = xy.shape[0]
        kk = min(k, self.n_segments)
        if kk < 1 or n == 0:
            return [[] for _ in range(n)]
        sets: List[List[Tuple[int, float]]] = []
        for start in range(0, n, self.KNN_CHUNK):
            block = self.segment_distances(xy[start : start + self.KNN_CHUNK])
            # Every segment at or below the k-th distance contends; ids come
            # out ascending, so a stable sort by distance gives (distance, id)
            # order whatever order the partition left ties in.
            kth = np.partition(block, kk - 1, axis=1)[:, kk - 1 : kk]
            for row, contends in zip(block, block <= kth):
                ids = np.flatnonzero(contends)
                ids = ids[np.argsort(row[ids], kind="stable")[:kk]]
                sets.append(list(zip(ids.tolist(), row[ids].tolist())))
        return sets

    def segment_endpoints(
        self, edge_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(entrance, exit) coordinate arrays for an array of segment ids.

        Gathers from the precomputed per-segment coordinate tables, so the
        outputs carry exactly the node coordinates (no recomputation) —
        vectorised feature encoding relies on this for bitwise parity with
        the scalar :class:`~repro.geometry.segments.SegmentGeometry` path.
        """
        ids = np.asarray(edge_ids, dtype=np.int64)
        return self._seg_a[ids], self._seg_b[ids]

    def project_onto(self, edge_id: int, x: float, y: float) -> float:
        """Position ratio of the orthogonal projection of (x, y) onto ``edge_id``."""
        return project_ratio(self._geometry[edge_id], x, y)

    def point_on_segment(self, edge_id: int, ratio: float) -> Tuple[float, float]:
        """Planar coordinates at position ratio ``ratio`` of segment ``edge_id``."""
        return self._geometry[edge_id].point_at(ratio)

    # --------------------------------------------------------- GPS-facing API

    def latlng_to_xy(self, lat: float, lng: float) -> Tuple[float, float]:
        return self.projection.to_xy(lat, lng)

    def xy_to_latlng(self, x: float, y: float) -> Tuple[float, float]:
        return self.projection.to_latlng(x, y)

    # ------------------------------------------------------------- utilities

    def route_is_path(self, route: Sequence[int]) -> bool:
        """True iff consecutive segments are connected head-to-tail."""
        return all(
            self.segments[a].v == self.segments[b].u
            for a, b in zip(route, route[1:])
        )

    def route_length(self, route: Iterable[int]) -> float:
        return sum(self.segments[e].length for e in route)

    def bounding_box(self) -> Tuple[float, float, float, float]:
        xmin, ymin = self.node_xy.min(axis=0)
        xmax, ymax = self.node_xy.max(axis=0)
        return (float(xmin), float(ymin), float(xmax), float(ymax))

    def __repr__(self) -> str:
        return f"RoadNetwork(nodes={self.n_nodes}, segments={self.n_segments})"
