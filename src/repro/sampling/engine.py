"""Sampled execution: simulate representatives, extrapolate the rest.

:func:`simulate_sampled` is the sampled counterpart of
:func:`repro.sim.engine.simulate` (which dispatches here when handed a
``sampling`` config).  The representative windows are *stitched* into
one continuous simulation in trace order: a single hierarchy, core and
prefetcher persist across segments, so the prefetcher keeps the
training it accumulated on earlier representatives exactly as it would
in a full run — the dominant fidelity term for a learning prefetcher.
Each segment replays its configured warmup-prefix windows first (stats
discarded, re-warming cache recency after the skip) and then measures
its representative window via a stats reset/snapshot pair, the same
boundary discipline the full engine uses at its warmup boundary.

Measured counters are then scaled by ``cluster weight / representative
length`` and summed into one estimated
:class:`~repro.sim.stats.SimResult`, whose ``sampling`` attachment
records the plan shape, the executed-access fraction, and per-metric
error bars derived from the cluster dispersions.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields

from ..memtrace.trace import Trace
from ..prefetchers.base import NoPrefetcher, Prefetcher
from ..sim.engine import Run, simulate
from ..sim.hierarchy import Hierarchy
from ..sim.params import SystemConfig
from ..sim.stats import LevelStats, SimResult
from .config import SamplingConfig
from .plan import RepresentativeWindow, SamplingPlan, build_plan

_LEVEL_FIELDS = tuple(f.name for f in dataclass_fields(LevelStats))


def simulate_sampled(trace: Trace, prefetcher: Prefetcher | None = None,
                     config: SystemConfig | None = None,
                     warmup_fraction: float = 0.2,
                     sampling: SamplingConfig | None = None,
                     trace_events: bool = False,
                     check_invariants: bool | None = None,
                     fastpath: bool = True) -> SimResult:
    """Run one trace sampled; returns the extrapolated estimate.

    Traces too short to window fall back to a full simulation whose
    result carries ``sampling["fallback"]`` explaining why — callers
    never need to special-case tiny inputs.
    """
    if prefetcher is None:
        prefetcher = NoPrefetcher()
    if config is None:
        config = SystemConfig.default()
    sampling = sampling or SamplingConfig()

    plan = build_plan(trace, warmup_fraction, sampling)
    if plan.fallback is not None:
        result = simulate(trace, prefetcher, config, warmup_fraction,
                          trace_events=trace_events,
                          check_invariants=check_invariants,
                          fastpath=fastpath)
        result.sampling = {"config": sampling.to_dict(),
                           "fallback": plan.fallback}
        return result

    measurements = _simulate_stitched(trace, prefetcher, config, plan,
                                      trace_events=trace_events,
                                      check_invariants=check_invariants,
                                      fastpath=fastpath)
    return extrapolate(trace, prefetcher, plan, measurements, sampling)


def _simulate_stitched(
        trace: Trace, prefetcher: Prefetcher, config: SystemConfig,
        plan: SamplingPlan, *, trace_events: bool,
        check_invariants: bool | None, fastpath: bool,
) -> list[tuple[RepresentativeWindow, SimResult]]:
    """One continuous :class:`~repro.sim.engine.Run` over the plan's
    segments, in trace order.

    Each segment advances through its discarded prefix, resets the
    measurement at its window start and advances through the window,
    then jumps to the next segment's prefix start instead of walking
    the whole trace.  Interior segment boundaries snapshot without
    draining — in-flight accounting resolves during the next segment's
    discarded prefix; only the final segment calls ``finish()``, the
    end-of-run drain and prefetch-accounting flush of a full run.
    """
    run = Run(trace, Hierarchy.build(config, prefetcher),
              trace_events=trace_events, check_invariants=check_invariants,
              fastpath=fastpath)
    ordered = sorted(plan.representatives, key=lambda rep: rep.start)
    measurements = []
    for rep in ordered:
        run.advance(rep.prefix_start, rep.start)
        run.reset_measurement()
        run.advance(rep.start, rep.end)
        if rep is ordered[-1]:
            run.finish()
        measurements.append(
            (rep, run.snapshot(f"{trace.name}[{rep.start}:{rep.end})")))
    return measurements


def _merge_scaled_counters(totals: dict, counters: dict,
                           factor: float) -> None:
    """Accumulate one segment's event counters, scaled, into ``totals``."""
    for kind, per_component in counters.items():
        bucket = totals.setdefault(kind, {})
        for component, count in per_component.items():
            bucket[component] = bucket.get(component, 0.0) + count * factor


def extrapolate(trace: Trace, prefetcher: Prefetcher, plan: SamplingPlan,
                measurements: list[tuple[RepresentativeWindow, SimResult]],
                sampling: SamplingConfig) -> SimResult:
    """Scale each representative's measured counters by its cluster
    weight and sum into one full-run estimate."""
    if len(measurements) != len(plan.representatives):
        raise ValueError("one measurement per representative required")

    instructions = 0.0
    cycles = 0.0
    levels = {name: dict.fromkeys(_LEVEL_FIELDS, 0.0)
              for name in ("l1d", "l2c", "llc")}
    dram = dict.fromkeys(
        ("demand_requests", "prefetch_requests", "writeback_requests"), 0.0)
    issued: dict = {}
    dropped = 0.0
    event_totals: dict = {}

    for rep, result in measurements:
        factor = rep.weight / rep.accesses
        instructions += result.instructions * factor
        cycles += result.cycles * factor
        for name, stats in result.levels.items():
            bucket = levels[name]
            for field in _LEVEL_FIELDS:
                bucket[field] += getattr(stats, field) * factor
        dram["demand_requests"] += result.dram_demand_requests * factor
        dram["prefetch_requests"] += result.dram_prefetch_requests * factor
        dram["writeback_requests"] += result.dram_writeback_requests * factor
        for level, count in result.issued_prefetches.items():
            issued[level] = issued.get(level, 0.0) + count * factor
        dropped += result.dropped_prefetches * factor
        if result.event_counters:
            _merge_scaled_counters(event_totals, result.event_counters,
                                   factor)

    dispersion = plan.weighted_dispersion
    estimate = SimResult(
        trace_name=trace.name,
        prefetcher_name=prefetcher.name,
        instructions=int(round(instructions)),
        cycles=cycles,
        levels={name: LevelStats(**{field: int(round(value))
                                    for field, value in bucket.items()})
                for name, bucket in levels.items()},
        dram_demand_requests=int(round(dram["demand_requests"])),
        dram_prefetch_requests=int(round(dram["prefetch_requests"])),
        dram_writeback_requests=int(round(dram["writeback_requests"])),
        issued_prefetches={level: int(round(count))
                           for level, count in issued.items()},
        dropped_prefetches=int(round(dropped)),
        event_counters={kind: {component: int(round(count))
                               for component, count in per.items()}
                        for kind, per in event_totals.items()}
        if event_totals else None,
    )
    estimate.sampling = {
        "config": sampling.to_dict(),
        "windows": len(plan.bounds),
        "window_accesses": plan.window_accesses,
        "clusters": plan.clustering.clusters,
        "total_accesses": plan.total,
        "measured_accesses": plan.measured,
        "simulated_accesses": plan.simulated_accesses,
        "fraction_simulated": round(plan.fraction_simulated, 6),
        "weighted_dispersion": round(dispersion, 6),
        # Heuristic ± bars: the weighted signature dispersion is the
        # relative uncertainty proxy (a cluster whose members sit on its
        # representative contributes none); `sample validate` calibrates
        # the proxy against measured NIPC error on the golden traces.
        "error_bars": {
            "relative": round(dispersion, 6),
            "ipc": round(estimate.ipc * dispersion, 6),
            "dram_requests": round(estimate.dram_requests * dispersion, 3),
            "l1d_demand_misses": round(
                estimate.levels["l1d"].demand_misses * dispersion, 3),
        },
    }
    return estimate
