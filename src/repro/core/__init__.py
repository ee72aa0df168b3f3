"""SpecCC pipeline: the paper's primary contribution, end to end."""

from .pipeline import ConsistencyReport, SpecCC, SpecCCConfig

__all__ = [
    "ConsistencyReport",
    "SpecCC",
    "SpecCCConfig",
]
