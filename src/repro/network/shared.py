"""Zero-copy sharing of road networks (and model weights) across processes.

The parallel engine (:mod:`repro.engine`) runs inference workers in separate
processes.  A city-scale :class:`~repro.network.road_network.RoadNetwork`
carries tens of megabytes of float arrays — segment endpoints, R-tree boxes,
adjacency — and the trained models add the Node2Vec segment-embedding table
on top.  Pickling all of that per worker (or letting copy-on-write pages
drift apart) defeats the point of parallelism, so this module places every
heavy array in one :class:`multiprocessing.shared_memory.SharedMemory`
block and rebuilds only the lightweight Python shell around read-only views
in each worker.

Two layers:

* :class:`SharedArrayBundle` — generic "many named ndarrays in one shm
  block" container with a picklable manifest.  Also used to broadcast model
  ``state_dict`` weights read-only.
* :func:`share_network` / :func:`attach_network` — RoadNetwork-specific
  packing on top of a bundle.  Attached networks answer every query
  bitwise-identically to the original: coordinate tables, R-tree boxes and
  derived segment arrays are *the same bytes*, and the rebuilt Python
  structures (segment geometry, adjacency lists, STR packing) are
  deterministic functions of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..geometry.points import LocalProjection
from ..geometry.segments import SegmentGeometry
from ..spatial.rtree import STRtree
from ..telemetry import register_cache, size_probe
from .road_network import RoadNetwork, Segment

#: Per-array alignment inside the block (cache-line sized).
_ALIGN = 64


@dataclass(frozen=True)
class ArraySpec:
    """Location of one ndarray inside a shared block."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class BundleManifest:
    """Everything needed to attach a :class:`SharedArrayBundle` (picklable)."""

    shm_name: str
    arrays: Dict[str, ArraySpec]


class SharedArrayBundle:
    """Named ndarrays packed into a single shared-memory block.

    Create in the parent with :meth:`create`, ship :attr:`manifest` to the
    workers (it pickles small), attach with :meth:`attach`.  Attached views
    are read-only; the creator's views are writable but treated as frozen
    once workers exist.  The creator must eventually call :meth:`unlink`.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: BundleManifest,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.manifest = manifest
        self._owner = owner
        self._views: Dict[str, np.ndarray] = {}
        for name, spec in manifest.arrays.items():
            view = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=shm.buf,
                offset=spec.offset,
            )
            if not owner:
                view.flags.writeable = False
            self._views[name] = view

    @classmethod
    def create(cls, arrays: Dict[str, np.ndarray]) -> "SharedArrayBundle":
        specs: Dict[str, ArraySpec] = {}
        offset = 0
        prepared: Dict[str, np.ndarray] = {}
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            prepared[name] = array
            specs[name] = ArraySpec(offset, array.shape, array.dtype.str)
            offset += -(-array.nbytes // _ALIGN) * _ALIGN
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        bundle: Optional["SharedArrayBundle"] = None
        try:
            manifest = BundleManifest(shm_name=shm.name, arrays=specs)
            bundle = cls(shm, manifest, owner=True)
            for name, array in prepared.items():
                bundle._views[name][...] = array
        except BaseException:
            # Without this, a failure between create and handing ownership
            # to the bundle leaks the /dev/shm segment until reboot.
            if bundle is not None:
                bundle.close()
            else:
                shm.close()
            try:
                shm.unlink()
            except OSError:
                pass
            raise
        return bundle

    @classmethod
    def attach(cls, manifest: BundleManifest) -> "SharedArrayBundle":
        # Python < 3.13 registers even a plain attach with the resource
        # tracker.  Engine workers are always children of the creator and
        # share its tracker process (the fd is inherited by fork and POSIX
        # spawn alike), so the extra register is an idempotent set-add and
        # the creator's unlink() clears the single entry — do not
        # unregister here, that would desynchronise the shared tracker.
        shm = shared_memory.SharedMemory(name=manifest.shm_name)
        return cls(shm, manifest, owner=False)

    def arrays(self) -> Dict[str, np.ndarray]:
        return dict(self._views)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def close(self) -> None:
        """Release this process's mapping (views become invalid)."""
        self._views.clear()
        try:
            self._shm.close()
        except OSError:
            pass

    def unlink(self) -> None:
        """Destroy the block (creator only; call after close in all users)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


# --------------------------------------------------------------- road network


@dataclass(frozen=True)
class NetworkManifest:
    """Picklable recipe for rebuilding a RoadNetwork over shared arrays."""

    bundle: BundleManifest
    origin_lat: float
    origin_lng: float
    optional: Tuple[str, ...] = field(default_factory=tuple)


def _csr_pack(lists: List[List[int]]) -> Tuple[np.ndarray, np.ndarray]:
    offsets = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum([len(l) for l in lists], out=offsets[1:])
    values = np.fromiter(
        (v for l in lists for v in l), dtype=np.int64, count=int(offsets[-1])
    )
    return offsets, values


def _csr_unpack(offsets: np.ndarray, values: np.ndarray) -> List[List[int]]:
    return [
        values[offsets[i] : offsets[i + 1]].tolist()
        for i in range(len(offsets) - 1)
    ]


def share_network(network: RoadNetwork) -> Tuple["SharedArrayBundle", NetworkManifest]:
    """Pack a network's heavy arrays into shared memory.

    Returns the owning bundle (keep it alive while workers run, then
    ``close()`` + ``unlink()``) and the manifest to ship to workers.
    """
    out_offsets, out_values = _csr_pack(network.out_edges)
    in_offsets, in_values = _csr_pack(network.in_edges)
    arrays: Dict[str, np.ndarray] = {
        "node_xy": network.node_xy,
        "edges": np.array(
            [(s.u, s.v) for s in network.segments], dtype=np.int64
        ).reshape(-1, 2),
        "seg_a": network._seg_a,
        "seg_b": network._seg_b,
        "seg_d": network._seg_d,
        "seg_len2": network._seg_len2,
        "out_offsets": out_offsets,
        "out_values": out_values,
        "in_offsets": in_offsets,
        "in_values": in_values,
    }
    if network._rtree is not None:
        arrays["rtree_boxes"] = network._rtree._item_boxes()
    optional = []
    if network.signalized_nodes is not None:
        arrays["signalized_nodes"] = np.asarray(network.signalized_nodes)
        optional.append("signalized_nodes")
    if network.speed_factors is not None:
        arrays["speed_factors"] = np.asarray(network.speed_factors)
        optional.append("speed_factors")
    bundle = SharedArrayBundle.create(arrays)
    manifest = NetworkManifest(
        bundle=bundle.manifest,
        origin_lat=network.projection.origin_lat,
        origin_lng=network.projection.origin_lng,
        optional=tuple(optional),
    )
    return bundle, manifest


def attach_network(manifest: NetworkManifest) -> RoadNetwork:
    """Rebuild a RoadNetwork whose array state views the shared block.

    The constructor is bypassed: array fields become read-only views, and
    the Python-object fields (segments, geometry, adjacency, R-tree nodes)
    are rebuilt deterministically from those views — so every spatial and
    topological query is bitwise identical to the source network's.  The
    returned network holds the attachment open for its lifetime
    (``network._shared_bundle``).
    """
    bundle = SharedArrayBundle.attach(manifest.bundle)
    node_xy = bundle["node_xy"]
    edges = bundle["edges"]
    m_segments = edges.shape[0]

    network = RoadNetwork.__new__(RoadNetwork)
    network.node_xy = node_xy
    network.projection = LocalProjection(manifest.origin_lat, manifest.origin_lng)

    segments: List[Segment] = []
    geometry: List[SegmentGeometry] = []
    for edge_id in range(m_segments):
        u, v = int(edges[edge_id, 0]), int(edges[edge_id, 1])
        geom = SegmentGeometry(*node_xy[u], *node_xy[v])
        segments.append(Segment(edge_id, u, v, geom.length))
        geometry.append(geom)
    network.segments = segments
    network._geometry = geometry
    network.out_edges = _csr_unpack(bundle["out_offsets"], bundle["out_values"])
    network.in_edges = _csr_unpack(bundle["in_offsets"], bundle["in_values"])
    network._edge_index = {(s.u, s.v): s.edge_id for s in segments}
    network.successor_table = [network.out_edges[s.v] for s in segments]
    register_cache(
        "network.successor_table", network, size_probe("successor_table")
    )
    network._rtree = (
        STRtree.from_boxes(bundle["rtree_boxes"])
        if "rtree_boxes" in bundle
        else None
    )
    network._seg_a = bundle["seg_a"]
    network._seg_b = bundle["seg_b"]
    network._seg_d = bundle["seg_d"]
    network._seg_len2 = bundle["seg_len2"]
    network.signalized_nodes = (
        bundle["signalized_nodes"]
        if "signalized_nodes" in manifest.optional
        else None
    )
    network.speed_factors = (
        bundle["speed_factors"] if "speed_factors" in manifest.optional else None
    )
    network._shared_bundle = bundle  # keeps the mapping alive
    return network


# ------------------------------------------------------------- model weights


def share_state_dict(
    state: Dict[str, np.ndarray]
) -> Tuple["SharedArrayBundle", BundleManifest]:
    """Broadcast a model ``state_dict`` read-only via shared memory."""
    bundle = SharedArrayBundle.create(state)
    return bundle, bundle.manifest


def attach_state_dict(
    manifest: BundleManifest,
) -> Tuple[Dict[str, np.ndarray], "SharedArrayBundle"]:
    """Worker-side view of a broadcast ``state_dict``.

    The views are read-only; ``Module.load_state_dict`` copies into the
    model's own parameter buffers, so models stay independently mutable
    while the broadcast itself is never duplicated.  Keep the returned
    bundle alive until the copy has happened.
    """
    bundle = SharedArrayBundle.attach(manifest)
    return bundle.arrays(), bundle
