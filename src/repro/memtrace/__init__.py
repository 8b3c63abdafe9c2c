"""Trace substrate: access records, trace containers, synthetic workloads."""

from .access import (
    CACHELINE_BYTES,
    DEFAULT_REGION_BYTES,
    MemoryAccess,
    hash_pc,
    line_address,
    lines_per_region,
    offset_of,
    region_of,
)
from .store import TraceStore
from .trace import Trace, rebase
from .workloads import (
    WorkloadSpec,
    build_suite,
    classify_suite,
    full_suite,
    quick_suite,
)

__all__ = [
    "CACHELINE_BYTES",
    "DEFAULT_REGION_BYTES",
    "MemoryAccess",
    "Trace",
    "TraceStore",
    "WorkloadSpec",
    "build_suite",
    "classify_suite",
    "full_suite",
    "hash_pc",
    "line_address",
    "lines_per_region",
    "offset_of",
    "quick_suite",
    "rebase",
    "region_of",
]
