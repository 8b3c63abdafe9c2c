"""Simulation: one :class:`Run` per core, stepped by every set-up.

Mirrors the paper's methodology at reduced scale: the first
``warmup_fraction`` of the trace warms caches and prefetcher state with
stats discarded, the remainder is measured.  On every L1D load the run
(1) serves the demand through the hierarchy, (2) hands the access to the
prefetcher, and (3) issues whatever prefetches the prefetcher returned,
subject to PQ/MSHR admission in the hierarchy.

:func:`simulate` drives one :class:`Run` across its single warmup
boundary, and multicore lanes (:mod:`repro.sim.multicore`) step one per
core, an access at a time.
"""

from __future__ import annotations

from ..memtrace.trace import Trace
from ..prefetchers.base import NoPrefetcher, Prefetcher
from .core import Core
from .fastpath import MIN_RUN, FastPath
from .hierarchy import Hierarchy
from .invariants import InvariantAuditor, audit_requested
from .observers import EventTrace
from .params import SystemConfig
from .stats import SimResult, snapshot_level


def warmup_boundary(total: int, fraction: float) -> int:
    """Index of the first measured access of a ``total``-access trace.

    Raises ``ValueError`` for a fraction outside [0, 1): such a boundary
    would lie past the trace end (or before its start), so the run would
    quietly measure its cold start instead of failing.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"warmup fraction must be in [0, 1), got {fraction!r}")
    return int(total * fraction)


class Run:
    """One core's trace, core model, hierarchy, prefetcher and observers.

    Built in a fixed order — event tracer, invariant auditor, fast-path
    scanner — and stepped by :meth:`advance`, the simulator's only
    per-access loop.  :meth:`snapshot` is the only place a
    :class:`SimResult` is built from live counters; it reads the
    hierarchy's *attributed* LLC and DRAM views, which equal the hardware
    totals when the hierarchy owns its LLC and DRAM.
    """

    def __init__(self, trace: Trace, hierarchy: Hierarchy, *,
                 trace_events: bool = False,
                 check_invariants: bool | None = None,
                 fastpath: bool = True) -> None:
        self.trace = trace
        self.hierarchy = hierarchy
        prefetcher = hierarchy.prefetcher
        self.core = core = Core(hierarchy.config.core)
        self.tracer = EventTrace(hierarchy.bus) if trace_events else None
        self.auditor = (InvariantAuditor(hierarchy)
                        if audit_requested(check_invariants) else None)
        self.scanner = (FastPath(trace, hierarchy, core, prefetcher)
                        if fastpath and prefetcher.supports_hit_runs
                        and len(trace) >= MIN_RUN else None)
        self._start_instructions = 0
        self._start_cycle = 0.0
        # Everything the access loop calls, bound once: multicore lanes
        # call advance() once per access, so its set-up is one unpack.
        self._loop = (
            trace.pcs, trace.addresses, trace.writes, trace.gaps,
            core.advance, core.begin_load, core.finish_load,
            hierarchy.set_view_cycle, hierarchy.demand_access,
            hierarchy.issue_prefetch, prefetcher.on_access,
            self.scanner.try_run if self.scanner is not None else None,
            self.auditor.checkpoint if self.auditor is not None else None)

    def advance(self, start: int, stop: int) -> None:
        """Simulate ``trace[start:stop)``.

        A fast-path block never runs past ``stop``, so counters reset at
        ``stop`` see every access of a block land on one side of it.
        """
        (pcs, addresses, writes, gaps, retire, begin_load, finish_load,
         set_view_cycle, demand_access, issue_prefetch, on_access, try_run,
         checkpoint) = self._loop
        hierarchy = self.hierarchy
        index = start
        while index < stop:
            if try_run is not None:
                retired = try_run(index, stop)
                if retired:
                    index += retired
                    continue

            gap = gaps[index]
            if gap:
                retire(gap)
            address = addresses[index]
            issue_cycle = begin_load()
            set_view_cycle(issue_cycle)
            latency, l1_hit = demand_access(address, issue_cycle,
                                            writes[index])
            finish_load(latency)

            requests = on_access(pcs[index], address,
                                 issue_cycle, l1_hit, hierarchy)
            index += 1
            for request in requests:
                issue_prefetch(request, issue_cycle)
            if checkpoint is not None:
                checkpoint(issue_cycle)

    def _mark_start(self) -> None:
        self._start_instructions = self.core.instructions
        self._start_cycle = self.core.cycle

    def reset_measurement(self) -> None:
        """Open the measured window: clear every counter this run reports
        (shared LLC/DRAM totals included) and the tracer's log."""
        self.hierarchy.reset_stats()
        if self.tracer is not None:
            self.tracer.reset()
        if self.auditor is not None:
            self.auditor.on_reset()
        self._mark_start()

    def reset_private(self) -> None:
        """A multicore lane's own warmup boundary: clear only its private
        counters, since other lanes may already be measuring the shared
        LLC and DRAM."""
        self.hierarchy.reset_private_stats()
        if self.auditor is not None:
            self.auditor.on_reset_private()
        self._mark_start()

    def finish(self) -> None:
        """End of run: drain the core, resolve still-resident prefetches
        as useless, and run the auditor's final checks."""
        self.core.drain()
        cycle = self.core.cycle
        self.hierarchy.flush_accounting(cycle)
        if self.auditor is not None:
            self.auditor.finalize(cycle)

    def snapshot(self) -> SimResult:
        """The measured window so far, as a :class:`SimResult`."""
        hierarchy = self.hierarchy
        port = hierarchy.dram_port.stats
        return SimResult(
            trace_name=self.trace.name,
            prefetcher_name=hierarchy.prefetcher.name,
            instructions=self.core.instructions - self._start_instructions,
            cycles=self.core.cycle - self._start_cycle,
            levels={
                "l1d": snapshot_level(hierarchy.l1d.stats),
                "l2c": snapshot_level(hierarchy.l2c.stats),
                "llc": snapshot_level(hierarchy.llc_stats),
            },
            dram_demand_requests=port.demand_requests,
            dram_prefetch_requests=port.prefetch_requests,
            dram_writeback_requests=port.writeback_requests,
            issued_prefetches=dict(hierarchy.issued_prefetches),
            dropped_prefetches=hierarchy.dropped_prefetches,
            event_counters=(self.tracer.counter_snapshot()
                            if self.tracer is not None else None),
        )


def simulate(trace: Trace, prefetcher: Prefetcher | None = None,
             config: SystemConfig | None = None,
             warmup_fraction: float = 0.2,
             trace_events: bool = False,
             check_invariants: bool | None = None,
             fastpath: bool = True) -> SimResult:
    """Run one trace through one prefetcher; returns the measured stats.

    ``warmup_fraction`` must lie in [0, 1) (``ValueError`` otherwise).

    ``trace_events=True`` attaches the opt-in :class:`EventTrace`
    observer to the hierarchy's bus; its per-component counter snapshot
    lands in ``SimResult.event_counters`` (and, via the experiment
    engine, in run manifests).  When off, the observer is never
    subscribed and the bus costs one dict probe per event type.

    ``check_invariants=True`` attaches an
    :class:`~repro.sim.invariants.InvariantAuditor` that enforces the
    kernel's conservation laws as the run progresses, raising
    :class:`~repro.sim.invariants.InvariantViolation` on the first
    breach.  ``None`` (the default) defers to the
    ``REPRO_CHECK_INVARIANTS`` environment variable, so CI can audit
    every simulation without touching call sites.  Auditing is pure
    observation: results are identical with it on or off.

    ``fastpath`` (default on) lets the run batch stretches of *ordinary*
    accesses — L1 hits with no structural events — through the NumPy
    fast path (:mod:`repro.sim.fastpath`), falling back to the
    event-driven kernel at every interesting boundary.  Results are
    bit-identical either way (the differential suite pins this);
    ``fastpath=False`` (``--no-fastpath`` on the CLI) is the escape
    hatch that forces every access through the event kernel.
    """
    boundary = warmup_boundary(len(trace), warmup_fraction)
    if prefetcher is None:
        prefetcher = NoPrefetcher()
    if config is None:
        config = SystemConfig.default()
    run = Run(trace, Hierarchy.build(config, prefetcher),
              trace_events=trace_events, check_invariants=check_invariants,
              fastpath=fastpath)
    run.advance(0, boundary)
    run.reset_measurement()
    run.advance(boundary, len(trace))
    run.finish()
    return run.snapshot()
