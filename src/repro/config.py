"""Typed, validated configuration for the paper's methods and the engine.

PR 1/2 grew the public entry points organically, so the knobs of MMA, TRMMA
and the execution machinery were scattered across constructor kwargs at
every call site.  This module consolidates them into three dataclasses —
:class:`MMAConfig`, :class:`TRMMAConfig`, :class:`EngineConfig` — plus the
:class:`PipelineConfig` aggregate consumed by :class:`repro.api.Pipeline`.

All configs are frozen, validate on construction, and round-trip through
``from_dict`` / ``to_dict`` (rejecting unknown keys), so experiment
registries, the CLI and serialized run manifests share one source of truth.
Being plain picklable values, they are also what the parallel engine ships
to its workers to rebuild models process-side.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Type, TypeVar

from .network.node2vec import Node2VecConfig

C = TypeVar("C", bound="_Config")

#: Environment variable giving :class:`EngineConfig` its default worker
#: count, so a CI matrix entry (``REPRO_WORKERS=2``) routes every
#: config-built pipeline through the parallel engine without code changes.
WORKERS_ENV = "REPRO_WORKERS"


def default_workers() -> int:
    """Worker-count default: ``$REPRO_WORKERS`` or 0 (serial in-process)."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 0
    try:
        return max(int(raw), 0)
    except ValueError:
        raise ValueError(
            f"{WORKERS_ENV} must be a non-negative integer, got {raw!r}"
        ) from None


class _Config:
    """from_dict/to_dict machinery shared by all config dataclasses."""

    @classmethod
    def from_dict(cls: Type[C], data: Dict) -> C:
        if not isinstance(data, dict):
            raise TypeError(f"{cls.__name__}.from_dict needs a dict, got {type(data).__name__}")
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} keys {sorted(unknown)}; "
                f"valid keys: {sorted(names)}"
            )
        kwargs = dict(data)
        for name, nested in getattr(cls, "_NESTED", {}).items():
            if isinstance(kwargs.get(name), dict):
                kwargs[name] = nested(**kwargs[name])
        return cls(**kwargs)

    def to_dict(self) -> Dict:
        """Plain-value dict that :meth:`from_dict` accepts back unchanged."""
        return dataclasses.asdict(self)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class MMAConfig(_Config):
    """Hyperparameters of the MMA map matcher (Section IV / Fig. 3)."""

    k_c: int = 10  # candidate-set size (Definition 8)
    d0: int = 64  # segment-embedding width (Eq. 1)
    d2: int = 64  # candidate/point embedding width (Eq. 2-3)
    ffn_hidden: int = 512  # transformer FFN width
    lr: float = 1e-3
    use_node2vec: bool = True
    use_context: bool = True  # Table IV: TRMMA-C ablation switch
    use_directional: bool = True  # Table IV: TRMMA-DI ablation switch
    use_distance_feature: bool = True
    node2vec: Optional[Node2VecConfig] = None

    _NESTED = {"node2vec": Node2VecConfig}

    def __post_init__(self) -> None:
        _require(self.k_c >= 1, f"k_c must be >= 1, got {self.k_c}")
        _require(self.d0 >= 1 and self.d2 >= 1, "embedding widths must be >= 1")
        _require(self.ffn_hidden >= 1, "ffn_hidden must be >= 1")
        _require(self.lr > 0, f"lr must be positive, got {self.lr}")


@dataclass(frozen=True)
class TRMMAConfig(_Config):
    """Hyperparameters of the TRMMA recovery model (Section V)."""

    d_h: int = 64
    n_layers: int = 2
    n_heads: int = 4
    ffn_hidden: int = 512
    ratio_weight: float = 5.0  # Eq. 21 loss mix
    use_fusion: bool = True  # Table IV: TRMMA-F ablation switch
    lr: float = 1e-3

    def __post_init__(self) -> None:
        _require(self.d_h >= 1, f"d_h must be >= 1, got {self.d_h}")
        _require(self.n_layers >= 1, "n_layers must be >= 1")
        _require(self.n_heads >= 1, "n_heads must be >= 1")
        _require(self.d_h % self.n_heads == 0,
                 f"d_h ({self.d_h}) must be divisible by n_heads ({self.n_heads})")
        _require(self.ratio_weight >= 0, "ratio_weight must be >= 0")
        _require(self.lr > 0, f"lr must be positive, got {self.lr}")


#: Valid :attr:`EngineConfig.engine` selections.
ENGINE_MODES = ("auto", "serial", "parallel")


@dataclass(frozen=True)
class EngineConfig(_Config):
    """Execution knobs of the inference engine (:mod:`repro.engine`).

    ``engine`` selects the implementation: ``"serial"`` always runs in
    process, ``"parallel"`` always shards across workers, and ``"auto"``
    (default) picks parallel iff ``workers > 0``.  ``workers`` defaults to
    ``$REPRO_WORKERS`` so CI can exercise the pool without code changes.

    The parallel engine splits a request of ``n`` trajectories into at most
    one contiguous share per live worker, of ``max(chunk_size, ceil(n / W))``
    trajectories each: ``chunk_size`` is the smallest unit worth sending to
    a worker, not a fixed share size.

    ``batch_size`` caps the trajectories per MMA forward.  At 24 or more
    it is inert: every sparse trajectory has at least 2 points
    (``sparsify_trip`` keeps both ends), so the cap of
    :data:`~repro.matching.mma.matcher.MAX_POINTS_PER_FORWARD` = 48 points
    per forward already limits a call to 24 trajectories.  Every caller
    passes 32; the field stays only because ``perfbench`` passes it.
    """

    engine: str = "auto"
    workers: int = field(default_factory=default_workers)
    chunk_size: int = 16  # smallest share of a request sent to a worker
    batch_size: int = 32  # trajectories per MMA forward; inert at >= 24
    max_retries: int = 2  # per-share retries after worker crash/timeout
    task_timeout_s: float = 300.0  # per-share wall-clock limit
    start_method: Optional[str] = None  # "fork" | "spawn" | None = auto

    def __post_init__(self) -> None:
        _require(self.engine in ENGINE_MODES,
                 f"engine must be one of {ENGINE_MODES}, got {self.engine!r}")
        _require(self.workers >= 0, f"workers must be >= 0, got {self.workers}")
        _require(self.chunk_size >= 1, "chunk_size must be >= 1")
        _require(self.batch_size >= 1, "batch_size must be >= 1")
        _require(self.max_retries >= 0, "max_retries must be >= 0")
        _require(self.task_timeout_s > 0, "task_timeout_s must be positive")
        _require(self.start_method in (None, "fork", "spawn", "forkserver"),
                 f"unsupported start_method {self.start_method!r}")

    def resolve_workers(self) -> int:
        """Worker count after applying the ``engine`` selection (0 = serial)."""
        if self.engine == "serial":
            return 0
        if self.engine == "parallel":
            return self.workers if self.workers > 0 else (os.cpu_count() or 1)
        return self.workers


@dataclass(frozen=True)
class PipelineConfig(_Config):
    """Everything :class:`repro.api.Pipeline` needs to build itself."""

    mma: MMAConfig = field(default_factory=MMAConfig)
    trmma: Optional[TRMMAConfig] = field(default_factory=TRMMAConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    seed: int = 0

    _NESTED = {"mma": MMAConfig, "trmma": TRMMAConfig, "engine": EngineConfig}

    @classmethod
    def from_dict(cls, data: Dict) -> "PipelineConfig":
        data = dict(data)
        for name, nested in cls._NESTED.items():
            if isinstance(data.get(name), dict):
                data[name] = nested.from_dict(data[name])
        return super().from_dict(data)
