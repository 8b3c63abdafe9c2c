"""Multi-core simulation: private L1D/L2C per core, shared LLC and DRAM.

Cores run their own traces and prefetchers, each as one
:class:`~repro.sim.engine.Run`; the core whose clock is furthest behind
always advances next, by one access, so shared-resource contention (LLC
capacity, inclusive back-invalidations, DRAM channel queueing) emerges
from interleaved timing rather than being modelled statistically.  This is
the substrate for Fig 13 (homogeneous 125-trace runs and the Table VII
heterogeneous MPKI mixes).

Stats boundaries are two-level.  Each lane clears its *private* counters
(L1D/L2C, prefetch accounting) when it crosses its own warmup boundary;
the *shared* counters (LLC storage block, DRAM hardware totals) plus every
lane's attribution views (LLC mirror, DRAM port) are cleared exactly once,
when the last lane crosses.  An earlier version called the full
``reset_stats()`` per lane, which wiped the shared LLC/DRAM counters
mid-measurement for every core that had already started measuring — and
each lane then reported the *shared* DRAM totals as its own traffic.  Now
per-core results report the lane's attributed deltas, which sum to the
shared hardware totals over the common measurement window.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

from ..memtrace.trace import Trace
from ..prefetchers.base import NoPrefetcher, Prefetcher
from .cache import Cache
from .dram import Dram
from .engine import WARMUP_FRACTION, Run, warmup_boundary
from .hierarchy import Hierarchy, SharedLLC
from .invariants import audit_requested
from .params import SystemConfig
from .stats import SimResult, geomean

PrefetcherFactory = Callable[[], Prefetcher]


def _warmup_ends(traces: Sequence[Trace],
                 warmup_fraction: float | Sequence[float]) -> list[int]:
    """Per-lane warmup boundaries from a shared or per-lane fraction."""
    if isinstance(warmup_fraction, (int, float)):
        fractions = [float(warmup_fraction)] * len(traces)
    else:
        fractions = [float(f) for f in warmup_fraction]
        if len(fractions) != len(traces):
            raise ValueError(
                f"{len(fractions)} warmup fractions for {len(traces)} traces")
    return [warmup_boundary(len(trace), fraction)
            for trace, fraction in zip(traces, fractions)]


def _lanes(traces: Sequence[Trace], prefetcher_factory: PrefetcherFactory,
           config: SystemConfig, shared: SharedLLC, dram: Dram,
           check_invariants: bool | None) -> list[Run]:
    """One :class:`Run` per core on the shared LLC and DRAM.

    Every lane's hierarchy is built before any auditor: an auditor
    decides whether the LLC is shared by counting the private caches
    registered with it so far.  Auditors are cross-wired, so
    back-invalidations published on another core's bus still update the
    owning core's shadows.  Lanes never take the fast path: a block runs
    one lane ahead of other lanes' accesses inside its cycle window, and
    a back-invalidation from one of those would land after hits it
    should have turned into misses.
    """
    hierarchies = [Hierarchy(config, prefetcher_factory(), shared, dram,
                             core_id) for core_id in range(len(traces))]
    audit = audit_requested(check_invariants)
    runs = [Run(trace, hierarchy, check_invariants=audit, fastpath=False)
            for trace, hierarchy in zip(traces, hierarchies)]
    if audit:
        for run in runs:
            for other in runs:
                if other is not run:
                    run.auditor.watch_remote_bus(other.hierarchy.bus)
    return runs


def _open_measurement(runs: Sequence[Run], shared: SharedLLC,
                      dram: Dram) -> None:
    """The global measurement boundary: clear the shared hardware
    counters and every lane's attribution views together, so per-core
    deltas sum to the shared totals from here on."""
    shared.cache.stats.reset()
    dram.stats.reset()
    for run in runs:
        run.hierarchy.reset_shared_attribution()
        if run.auditor is not None:
            run.auditor.on_reset_shared_attribution()


def _run_lanes(runs: Sequence[Run], warmup_ends: Sequence[int],
               shared: SharedLLC, dram: Dram) -> list[SimResult]:
    """Step every lane to the end of its trace, furthest-behind first,
    then finish and snapshot each lane in core order.

    Advancing the core whose clock is furthest behind makes
    shared-resource interleaving approximate concurrent execution; ties
    break by core id.  Each lane clears its private counters at its own
    warmup boundary; the global measurement window opens once the last
    lane crosses.  The end-of-run flushes strip the shared LLC's
    prefetched bits in core order, so finishing order sets attribution.
    """
    lengths = [len(run.trace) for run in runs]
    positions = [0] * len(runs)
    # Lanes that still have to cross their warmup boundary before the
    # global measurement window opens.  Every boundary lies inside its
    # non-empty trace (a zero-length warmup crosses on the lane's first
    # step); an empty trace never steps at all.
    pending_warmup = {core_id for core_id, length in enumerate(lengths)
                      if length}
    if not pending_warmup:
        _open_measurement(runs, shared, dram)

    heap = [(run.core.cycle, core_id) for core_id, run in enumerate(runs)
            if lengths[core_id]]
    heapq.heapify(heap)
    while heap:
        _, core_id = heapq.heappop(heap)
        run = runs[core_id]
        index = positions[core_id]
        crossed = index == warmup_ends[core_id]
        if crossed:
            run.reset_private()
        run.advance(index, index + 1)
        positions[core_id] = index = index + 1
        if crossed:
            pending_warmup.discard(core_id)
            if not pending_warmup:
                _open_measurement(runs, shared, dram)
        if index < lengths[core_id]:
            heapq.heappush(heap, (run.core.cycle, core_id))

    results = []
    for run in runs:
        run.finish()
        results.append(run.snapshot())
    return results


def simulate_multicore(traces: Sequence[Trace],
                       prefetcher_factory: PrefetcherFactory | None = None,
                       config: SystemConfig | None = None,
                       warmup_fraction: float | Sequence[float] = WARMUP_FRACTION,
                       check_invariants: bool | None = None) -> list[SimResult]:
    """Run N traces on N cores sharing an LLC and DRAM channels.

    Returns one :class:`SimResult` per core (trace order preserved),
    reporting each core's *attributed* share of the shared LLC and DRAM
    traffic.  ``warmup_fraction`` may be one fraction for every lane or
    a per-lane sequence (heterogeneous mixes warm up at different
    rates); each must lie in [0, 1).  ``check_invariants`` attaches one
    :class:`~repro.sim.invariants.InvariantAuditor` per core, cross-wired
    so back-invalidations from other cores' accesses are tracked too;
    ``None`` defers to ``REPRO_CHECK_INVARIANTS``.
    """
    if config is None:
        config = SystemConfig.default().for_multicore(len(traces))
    if prefetcher_factory is None:
        prefetcher_factory = NoPrefetcher

    warmup_ends = _warmup_ends(traces, warmup_fraction)
    shared = SharedLLC(Cache(config.llc, name="LLC"))
    dram = Dram(config.dram)
    runs = _lanes(traces, prefetcher_factory, config, shared, dram,
                  check_invariants)
    return _run_lanes(runs, warmup_ends, shared, dram)


def multicore_speedup(results: Sequence[SimResult],
                      baselines: Sequence[SimResult]) -> float:
    """Geomean of per-core NIPC — the Fig 13 aggregate."""
    return geomean([r.nipc(b) for r, b in zip(results, baselines)])
