"""Reproduction of "Merging Similar Patterns for Hardware Prefetching"
(Jiang, Yang & Ci, MICRO 2022).

Quick tour:

>>> from repro import quick_suite, simulate, PMP
>>> trace = quick_suite()[0].build(20_000)
>>> result = simulate(trace, PMP())
>>> result.ipc > 0
True

Packages:

* :mod:`repro.memtrace` — access records, traces, the 125-trace synthetic suite
* :mod:`repro.sim` — the ChampSim-substitute trace-driven simulator
* :mod:`repro.prefetchers` — PMP plus DSPatch / Bingo / SPP+PPF / Pythia et al.
* :mod:`repro.analysis` — motivation analytics (census, PCR/PDR, ICDD, heat maps)
* :mod:`repro.storage` — Tables III/V bit accounting
* :mod:`repro.experiments` — one runner per paper table/figure
"""

from .memtrace import MemoryAccess, Trace, WorkloadSpec, full_suite, quick_suite
from .prefetchers import (
    COMPETITORS,
    PMP,
    Bingo,
    DesignB,
    DSPatch,
    FillLevel,
    Gaze,
    HybridPrefetcher,
    NoPrefetcher,
    Pangloss,
    PMPConfig,
    Prefetcher,
    PrefetchRequest,
    Pythia,
    SetDuelingArbiter,
    SPPWithPPF,
    Triangel,
    make_pmp,
    make_pmp_limit,
    register_competitor,
)
from .sim import SimResult, SystemConfig, geomean, simulate, simulate_multicore
from .storage import pmp_budget, table_v

__version__ = "1.0.0"

__all__ = [
    "COMPETITORS",
    "Bingo",
    "DSPatch",
    "DesignB",
    "FillLevel",
    "Gaze",
    "HybridPrefetcher",
    "MemoryAccess",
    "NoPrefetcher",
    "PMP",
    "PMPConfig",
    "Pangloss",
    "Prefetcher",
    "PrefetchRequest",
    "Pythia",
    "SPPWithPPF",
    "SetDuelingArbiter",
    "SimResult",
    "SystemConfig",
    "Trace",
    "Triangel",
    "WorkloadSpec",
    "full_suite",
    "geomean",
    "make_pmp",
    "make_pmp_limit",
    "register_competitor",
    "pmp_budget",
    "quick_suite",
    "simulate",
    "simulate_multicore",
    "table_v",
]
