"""Public facade of the reproduction: one object, one config, any engine.

:class:`Pipeline` is the supported way to build and run the TRMMA/MMA
stack.
"""

from ..config import (
    EngineConfig,
    MMAConfig,
    PipelineConfig,
    TRMMAConfig,
)
from .pipeline import Pipeline

__all__ = [
    "EngineConfig",
    "MMAConfig",
    "Pipeline",
    "PipelineConfig",
    "TRMMAConfig",
]
