"""Trace-driven simulator substrate (the ChampSim substitute)."""

from .cache import Cache, CacheStats
from .core import Core
from .dram import Dram, DramPort, DramStats
from .engine import simulate
from .hierarchy import Hierarchy, SharedLLC
from .invariants import InvariantAuditor, InvariantViolation, audit_requested
from .multicore import multicore_speedup, simulate_multicore
from .params import CacheParams, CoreParams, DramParams, SystemConfig
from .stats import LevelStats, SimResult, geomean

__all__ = [
    "Cache",
    "CacheParams",
    "CacheStats",
    "Core",
    "CoreParams",
    "Dram",
    "DramParams",
    "DramPort",
    "DramStats",
    "Hierarchy",
    "InvariantAuditor",
    "InvariantViolation",
    "LevelStats",
    "SharedLLC",
    "SimResult",
    "SystemConfig",
    "audit_requested",
    "geomean",
    "multicore_speedup",
    "simulate",
    "simulate_multicore",
]
