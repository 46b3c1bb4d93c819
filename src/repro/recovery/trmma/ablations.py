"""Factories for TRMMA and its Table IV ablation variants.

| Variant        | Change                                                      |
|----------------|-------------------------------------------------------------|
| TRMMA          | full method (MMA matcher + DualFormer + decoder)            |
| TRMMA-HMM      | MMA replaced by the HMM matcher of [28] (FMM)               |
| TRMMA-Near     | MMA replaced by nearest-segment matching                    |
| MMA+linear     | MMA route + linear interpolation (no learned decoder)       |
| Nearest+linear | nearest matching + linear interpolation                     |
| TRMMA-DF       | DualFormer fusion removed (H = R)                           |
| TRMMA-C        | MMA without candidate context in the point embedding        |
| TRMMA-DI       | MMA without the directional cosine features                 |
"""

from __future__ import annotations

from typing import Optional

from ...config import MMAConfig, TRMMAConfig
from ...matching import (
    FMMMatcher,
    MapMatcher,
    MMAMatcher,
    NearestMatcher,
    attach_planner_statistics,
)
from ...network.node2vec import Node2VecConfig
from ...network.road_network import RoadNetwork
from ...network.routing import TransitionStatistics
from ...utils.rng import SeedLike
from ..linear_interp import LinearInterpolationRecoverer
from .recoverer import TRMMARecoverer

#: Cheap Node2Vec settings used across experiment-scale model builds.
FAST_NODE2VEC = Node2VecConfig(
    dimensions=32, walk_length=12, walks_per_node=2, window=3, negatives=3, epochs=1
)

ABLATION_VARIANTS = (
    "TRMMA",
    "TRMMA-HMM",
    "TRMMA-Near",
    "MMA+linear",
    "Nearest+linear",
    "TRMMA-DF",
    "TRMMA-C",
    "TRMMA-DI",
)


def make_trmma(
    network: RoadNetwork,
    statistics: Optional[TransitionStatistics] = None,
    variant: str = "TRMMA",
    d_h: int = 32,
    n_layers: int = 2,
    ffn_hidden: int = 128,
    seed: SeedLike = 7,
):
    """Build TRMMA or one of its ablations by variant name."""
    if variant not in ABLATION_VARIANTS:
        raise KeyError(f"unknown TRMMA variant {variant!r}")
    matcher: MapMatcher
    if variant == "TRMMA-HMM":
        matcher = FMMMatcher(network)
    elif variant in ("TRMMA-Near", "Nearest+linear"):
        matcher = NearestMatcher(network)
    else:
        config = MMAConfig(
            d0=32,
            d2=32,
            node2vec=FAST_NODE2VEC,
            use_context=variant != "TRMMA-C",
            use_directional=variant != "TRMMA-DI",
        )
        matcher = MMAMatcher(network, config, seed=seed)
    if statistics is not None:
        attach_planner_statistics(matcher, statistics)
    if variant.endswith("+linear"):
        return LinearInterpolationRecoverer(network, matcher, name=variant)
    trmma_config = TRMMAConfig(
        d_h=d_h,
        n_layers=n_layers,
        ffn_hidden=ffn_hidden,
        use_fusion=variant != "TRMMA-DF",
    )
    return TRMMARecoverer(network, matcher, trmma_config, seed=seed, name=variant)
