"""Multi-core simulation: private L1D/L2C per core, shared LLC and DRAM.

Cores run their own traces and prefetchers; the driver always advances the
core whose clock is furthest behind, so shared-resource contention (LLC
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
from .core import Core
from .dram import Dram
from .hierarchy import Hierarchy, SharedLLC
from .invariants import InvariantAuditor, audit_requested
from .params import SystemConfig
from .stats import SimResult, geomean, snapshot_level

PrefetcherFactory = Callable[[], Prefetcher]


class _CoreLane:
    """One core's trace cursor, core model, prefetcher and hierarchy."""

    def __init__(self, core_id: int, trace: Trace, prefetcher: Prefetcher,
                 config: SystemConfig, shared_llc: SharedLLC, dram: Dram,
                 warmup_end: int) -> None:
        self.core_id = core_id
        self.trace = trace
        self.prefetcher = prefetcher
        self.hierarchy = Hierarchy(config, prefetcher, shared_llc, dram, core_id)
        self.core = Core(config.core)
        self.auditor: InvariantAuditor | None = None
        self.index = 0
        self.warmup_end = warmup_end
        self.measured_start_instr = 0
        self.measured_start_cycle = 0.0

    @property
    def done(self) -> bool:
        """True when this core has consumed its whole trace."""
        return self.index >= len(self.trace)

    def step(self) -> bool:
        """Process this core's next access; True when this step crossed
        the lane's warmup boundary."""
        crossed = False
        if self.index == self.warmup_end:
            # Only this lane's private counters: the shared LLC/DRAM
            # blocks belong to the global measurement boundary.
            self.hierarchy.reset_private_stats()
            if self.auditor is not None:
                self.auditor.on_reset_private()
            self.measured_start_instr = self.core.instructions
            self.measured_start_cycle = self.core.cycle
            crossed = True
        access = self.trace.accesses[self.index]
        self.index += 1
        if access.gap:
            self.core.advance(access.gap)
        issue_cycle = self.core.begin_load()
        self.hierarchy.set_view_cycle(issue_cycle)
        latency, l1_hit = self.hierarchy.demand_access(access.address,
                                                       issue_cycle,
                                                       access.is_write)
        self.core.finish_load(latency)
        requests = self.prefetcher.on_access(access.pc, access.address,
                                             issue_cycle, l1_hit, self.hierarchy)
        for request in requests:
            self.hierarchy.issue_prefetch(request, issue_cycle)
        if self.auditor is not None:
            self.auditor.checkpoint(issue_cycle)
        return crossed

    def result(self) -> SimResult:
        """Drain the core and snapshot its SimResult.

        Shared-resource numbers are this lane's *attributed* views — the
        LLC mirror its own accesses incremented and the DRAM port its
        hierarchy issued through — not the shared hardware totals.
        """
        self.core.drain()
        final_cycle = self.core.cycle
        self.hierarchy.flush_accounting(final_cycle)
        if self.auditor is not None:
            self.auditor.finalize(final_cycle)
        port_stats = self.hierarchy.dram_port.stats
        return SimResult(
            trace_name=self.trace.name,
            prefetcher_name=self.prefetcher.name,
            instructions=self.core.instructions - self.measured_start_instr,
            cycles=self.core.cycle - self.measured_start_cycle,
            levels={
                "l1d": snapshot_level(self.hierarchy.l1d.stats),
                "l2c": snapshot_level(self.hierarchy.l2c.stats),
                "llc": snapshot_level(self.hierarchy.llc_stats),
            },
            dram_demand_requests=port_stats.demand_requests,
            dram_prefetch_requests=port_stats.prefetch_requests,
            dram_writeback_requests=port_stats.writeback_requests,
            issued_prefetches=dict(self.hierarchy.issued_prefetches),
            dropped_prefetches=self.hierarchy.dropped_prefetches,
        )


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
    return [int(len(trace) * fraction)
            for trace, fraction in zip(traces, fractions)]


def _open_measurement(lanes: Sequence[_CoreLane], shared: SharedLLC,
                      dram: Dram) -> None:
    """The global measurement boundary: clear the shared hardware
    counters and every lane's attribution views together, so per-core
    deltas sum to the shared totals from here on."""
    shared.cache.stats.reset()
    dram.stats.reset()
    for lane in lanes:
        lane.hierarchy.reset_shared_attribution()
        if lane.auditor is not None:
            lane.auditor.on_reset_shared_attribution()


def _attach_auditors(lanes: Sequence[_CoreLane]) -> None:
    """One auditor per lane, cross-wired so back-invalidations published
    on another core's bus still update the owning core's shadows."""
    for lane in lanes:
        lane.auditor = InvariantAuditor(lane.hierarchy)
    for lane in lanes:
        for other in lanes:
            if other is not lane:
                lane.auditor.watch_remote_bus(other.hierarchy.bus)


def _run_lanes(lanes: Sequence[_CoreLane], shared: SharedLLC,
               dram: Dram) -> None:
    """Step every lane to the end of its trace, furthest-behind first.

    Advancing the core whose clock is furthest behind makes
    shared-resource interleaving approximate concurrent execution; ties
    break by core id.  Opens the global measurement window once the last
    lane crosses its warmup boundary.
    """
    # Lanes that still have to cross their warmup boundary before the
    # global measurement window opens.  A zero-length warmup crosses on
    # the lane's first step; an empty trace never steps at all.
    pending_warmup = {lane.core_id for lane in lanes if not lane.done}
    if not pending_warmup:
        _open_measurement(lanes, shared, dram)

    heap = [(lane.core.cycle, lane.core_id) for lane in lanes]
    heapq.heapify(heap)
    while heap:
        _, core_id = heapq.heappop(heap)
        lane = lanes[core_id]
        if lane.done:
            continue
        crossed = lane.step()
        if core_id in pending_warmup and (crossed or lane.done):
            # A lane whose trace ends at or before its boundary stops
            # gating the window when it finishes.
            pending_warmup.discard(core_id)
            if not pending_warmup:
                _open_measurement(lanes, shared, dram)
        if not lane.done:
            heapq.heappush(heap, (lane.core.cycle, core_id))


def simulate_multicore(traces: Sequence[Trace],
                       prefetcher_factory: PrefetcherFactory | None = None,
                       config: SystemConfig | None = None,
                       warmup_fraction: float | Sequence[float] = 0.2,
                       check_invariants: bool | None = None) -> list[SimResult]:
    """Run N traces on N cores sharing an LLC and DRAM channels.

    Returns one :class:`SimResult` per core (trace order preserved),
    reporting each core's *attributed* share of the shared LLC and DRAM
    traffic.  ``warmup_fraction`` may be one fraction for every lane or
    a per-lane sequence (heterogeneous mixes warm up at different
    rates).  ``check_invariants`` attaches one
    :class:`~repro.sim.invariants.InvariantAuditor` per core, cross-wired
    so back-invalidations from other cores' accesses are tracked too;
    ``None`` defers to ``REPRO_CHECK_INVARIANTS``.
    """
    if config is None:
        config = SystemConfig.default().for_multicore(len(traces))
    if prefetcher_factory is None:
        prefetcher_factory = NoPrefetcher

    shared = SharedLLC(Cache(config.llc, name="LLC"))
    dram = Dram(config.dram)
    warmup_ends = _warmup_ends(traces, warmup_fraction)
    lanes = [
        _CoreLane(i, trace, prefetcher_factory(), config, shared, dram,
                  warmup_end=warmup_ends[i])
        for i, trace in enumerate(traces)
    ]
    if audit_requested(check_invariants):
        _attach_auditors(lanes)
    _run_lanes(lanes, shared, dram)
    return [lane.result() for lane in lanes]


def multicore_speedup(results: Sequence[SimResult],
                      baselines: Sequence[SimResult]) -> float:
    """Geomean of per-core NIPC — the Fig 13 aggregate."""
    return geomean([r.nipc(b) for r, b in zip(results, baselines)])
