"""Bus subscribers: stats collection, prefetcher feedback, event tracing.

Three always-on subscribers replace the hard-wired calls the old
``Hierarchy`` made from inside its timing code:

* :class:`LevelStatsObserver` — the only writer of the per-level
  :class:`~repro.sim.cache.CacheStats` counter blocks.
* :class:`PrefetcherBridge` — translates events into the
  :class:`~repro.prefetchers.base.Prefetcher` feedback hooks.
* :class:`PrefetchAccounting` — issued/dropped prefetch counters with
  per-reason drop attribution (``dropped_prefetches`` always equals
  ``sum(drop_reasons.values())`` by construction).

:class:`EventTrace` is the opt-in observer: it records a bounded event
log plus per-component counters for run manifests, reports
(:func:`repro.experiments.report` helpers) and heat maps
(:func:`repro.analysis.heatmap.event_heatmap`).  When it is not
attached, its events cost the publishers one dict probe each.
"""

from __future__ import annotations

from typing import Sequence

from ..prefetchers.base import FillLevel, Prefetcher
from ..memtrace.access import CACHELINE_BITS
from .cache import CacheStats
from .events import (
    EVENT_TYPES,
    BackInvalidation,
    CacheAccess,
    EventBus,
    Eviction,
    HitRunRetired,
    PrefetchDropped,
    PrefetchFill,
    PrefetchIssued,
    PrefetchUseful,
    PrefetchUseless,
)


class LevelStatsObserver:
    """Routes events to the right level's :class:`CacheStats` block.

    Counter semantics are unchanged from the pre-bus hierarchy: demand
    hit/miss per lookup, useful on consuming a prefetched bit (late or
    resident), useless on eviction/back-invalidation/flush of a
    still-set bit, fills and evictions as they happen.

    ``llc_mirror`` is an optional second block that LLC-level events
    additionally increment.  In a shared-LLC multicore run the routed
    block is the shared storage's (hardware totals), while the mirror is
    the publishing core's private view — the per-core attribution that
    ``SimResult`` reports.  The mirror costs one identity check per
    event and nothing when unset.
    """

    def __init__(self, bus: EventBus,
                 stats_by_level: dict[FillLevel, CacheStats],
                 llc_mirror: CacheStats | None = None) -> None:
        # Routing table: level -> (stats, mirror-or-None).  Only LLC
        # events carry a mirror; resolving that per subscription instead
        # of per event keeps each handler to one dict probe.
        self._routes: dict[FillLevel, tuple[CacheStats, CacheStats | None]] = {
            level: (stats, llc_mirror if level is FillLevel.LLC else None)
            for level, stats in stats_by_level.items()}
        bus.subscribe(CacheAccess, self._on_access)
        bus.subscribe(HitRunRetired, self._on_hit_run)
        bus.subscribe(PrefetchFill, self._on_fill)
        bus.subscribe(PrefetchUseful, self._on_useful)
        bus.subscribe(PrefetchUseless, self._on_useless)
        bus.subscribe(Eviction, self._on_eviction)
        bus.subscribe(BackInvalidation, self._on_back_invalidation)

    def _on_access(self, event: CacheAccess) -> None:
        stats, mirror = self._routes[event.level]
        stats.demand_accesses += 1
        if event.hit:
            stats.demand_hits += 1
        else:
            stats.demand_misses += 1
        if mirror is not None:
            mirror.demand_accesses += 1
            if event.hit:
                mirror.demand_hits += 1
            else:
                mirror.demand_misses += 1

    def _on_hit_run(self, event: HitRunRetired) -> None:
        # A retired hit run is `count` demand hits at one level; the
        # batched increments are exactly what `count` CacheAccess events
        # with hit=True would have produced.
        stats, mirror = self._routes[event.level]
        stats.demand_accesses += event.count
        stats.demand_hits += event.count
        if mirror is not None:
            mirror.demand_accesses += event.count
            mirror.demand_hits += event.count

    def _on_fill(self, event: PrefetchFill) -> None:
        stats, mirror = self._routes[event.level]
        stats.prefetch_fills += 1
        if mirror is not None:
            mirror.prefetch_fills += 1

    def _on_useful(self, event: PrefetchUseful) -> None:
        stats, mirror = self._routes[event.level]
        stats.useful_prefetches += 1
        if event.late:
            stats.late_prefetch_hits += 1
        if mirror is not None:
            mirror.useful_prefetches += 1
            if event.late:
                mirror.late_prefetch_hits += 1

    def _on_useless(self, event: PrefetchUseless) -> None:
        stats, mirror = self._routes[event.level]
        stats.useless_prefetches += 1
        if mirror is not None:
            mirror.useless_prefetches += 1

    def _on_eviction(self, event: Eviction) -> None:
        stats, mirror = self._routes[event.level]
        stats.evictions += 1
        if mirror is not None:
            mirror.evictions += 1

    def _on_back_invalidation(self, event: BackInvalidation) -> None:
        # The invalidated cache may belong to another core's hierarchy
        # (shared inclusive LLC), so the event carries its counter block.
        if event.prefetched:
            event.stats.useless_prefetches += 1


class PrefetcherBridge:
    """Feeds the prefetcher's feedback hooks from bus events.

    Matches the old hard-wired call set exactly: ``on_evict`` fires for
    L1D victims only, back-invalidations and end-of-run flushes do *not*
    reach the prefetcher, and a late merge counts useful at merge time.
    """

    def __init__(self, bus: EventBus, prefetcher: Prefetcher) -> None:
        self._prefetcher = prefetcher
        bus.subscribe(Eviction, self._on_eviction)
        bus.subscribe(PrefetchUseful, self._on_useful)
        bus.subscribe(PrefetchUseless, self._on_useless)
        bus.subscribe(PrefetchIssued, self._on_issued)

    def _on_eviction(self, event: Eviction) -> None:
        if event.level == FillLevel.L1D:
            self._prefetcher.on_evict(event.line << CACHELINE_BITS)

    def _on_useful(self, event: PrefetchUseful) -> None:
        self._prefetcher.on_prefetch_useful(event.address, event.level)

    def _on_useless(self, event: PrefetchUseless) -> None:
        if event.reason != "flushed":
            self._prefetcher.on_prefetch_useless(event.line << CACHELINE_BITS,
                                                 event.level)

    def _on_issued(self, event: PrefetchIssued) -> None:
        self._prefetcher.on_prefetch_fill(event.address, event.level)


class PrefetchAccounting:
    """Issued/dropped prefetch counters (per level, per drop reason)."""

    DROP_REASONS = ("resident", "pq_full", "mshr_full")

    def __init__(self, bus: EventBus) -> None:
        self.issued_prefetches: dict[FillLevel, int] = {}
        self.dropped_prefetches = 0
        self.drop_reasons: dict[str, int] = {}
        self.reset()
        bus.subscribe(PrefetchIssued, self._on_issued)
        bus.subscribe(PrefetchDropped, self._on_dropped)

    def reset(self) -> None:
        """Zero every counter (warmup/measurement boundary)."""
        self.issued_prefetches = {level: 0 for level in FillLevel}
        self.dropped_prefetches = 0
        self.drop_reasons = {reason: 0 for reason in self.DROP_REASONS}

    def _on_issued(self, event: PrefetchIssued) -> None:
        self.issued_prefetches[event.level] += 1

    def _on_dropped(self, event: PrefetchDropped) -> None:
        # Every rejection counts as dropped, whatever the reason — the
        # old hierarchy forgot ``resident`` drops in the total, so the
        # sum of the reasons disagreed with the headline counter.
        self.dropped_prefetches += 1
        self.drop_reasons[event.reason] += 1


class EventTrace:
    """Opt-in event log + per-component counters.

    Keeps a bounded log of ``(cycle, event, component, line)`` rows and a
    nested ``{event: {component: count}}`` counter table.  The counters
    are cheap enough to keep for a whole run; the log stops growing at
    ``max_events`` (``dropped_log_rows`` says how much was cut) so a
    long simulation cannot hold the whole event stream in memory.
    """

    def __init__(self, bus: EventBus | None = None,
                 max_events: int = 100_000) -> None:
        self.max_events = max_events
        self.log: list[tuple[float, str, str, int]] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.dropped_log_rows = 0
        self._detach: list = []
        if bus is not None:
            self.attach(bus)

    def attach(self, bus: EventBus) -> None:
        """Subscribe to every event type on ``bus``."""
        for event_type in EVENT_TYPES:
            self._detach.append(bus.subscribe(event_type, self._record))
        # HitRunRetired is not in EVENT_TYPES (it is a reconciliation
        # summary, not a kernel event); it expands into the per-access
        # CacheAccess rows the slow path would have recorded.
        self._detach.append(bus.subscribe(HitRunRetired, self._on_hit_run))

    def detach(self) -> None:
        """Unsubscribe from everything previously attached."""
        for unsubscribe in self._detach:
            unsubscribe()
        self._detach.clear()

    def reset(self) -> None:
        """Clear the log and counters (warmup/measurement boundary)."""
        self.log.clear()
        self.counts.clear()
        self.dropped_log_rows = 0

    def _component_of(self, event) -> str:
        level = getattr(event, "level", None)
        if level is not None:
            return level.name
        return getattr(event, "cache_name", "system")

    def _record(self, event) -> None:
        kind = type(event).__name__
        component = self._component_of(event)
        per_component = self.counts.setdefault(kind, {})
        per_component[component] = per_component.get(component, 0) + 1
        if len(self.log) < self.max_events:
            self.log.append((event.cycle, kind, component,
                             getattr(event, "line", 0)))
        else:
            self.dropped_log_rows += 1

    def _on_hit_run(self, event: HitRunRetired) -> None:
        """Expand a retired hit run into its per-access CacheAccess rows.

        The snapshot contract is bit-identity with the event-driven path:
        ``count`` is added to the CacheAccess/level counter, and the log
        gains one ``(issue_cycle, "CacheAccess", level, line)`` row per
        access, honouring ``max_events`` exactly as ``_record`` does.
        """
        component = event.level.name
        per_component = self.counts.setdefault("CacheAccess", {})
        per_component[component] = per_component.get(component, 0) + event.count
        room = self.max_events - len(self.log)
        if room <= 0:
            self.dropped_log_rows += event.count
            return
        take = min(room, event.count)
        kind = "CacheAccess"
        self.log.extend(
            (cycle, kind, component, line)
            for cycle, line in zip(event.cycles[:take].tolist(),
                                   event.lines[:take].tolist()))
        self.dropped_log_rows += event.count - take

    def counter_snapshot(self) -> dict[str, dict[str, int]]:
        """Copy of the ``{event: {component: count}}`` table (JSON-safe)."""
        return {kind: dict(per_component)
                for kind, per_component in sorted(self.counts.items())}

    def total(self, kind: str) -> int:
        """Total count of one event type across components."""
        return sum(self.counts.get(kind, {}).values())

    def summary_rows(self) -> list[tuple[str, str, int]]:
        """Flat ``(event, component, count)`` rows for table rendering."""
        return [(kind, component, count)
                for kind, per_component in sorted(self.counts.items())
                for component, count in sorted(per_component.items())]


def merge_counter_snapshots(totals: dict[str, dict[str, int]],
                            snapshot: dict[str, dict[str, int]] | None) -> None:
    """Accumulate one run's counter snapshot into ``totals`` in place."""
    if not snapshot:
        return
    for kind, per_component in snapshot.items():
        bucket = totals.setdefault(kind, {})
        for component, count in per_component.items():
            bucket[component] = bucket.get(component, 0) + count


def snapshot_levels(levels: Sequence) -> dict[FillLevel, CacheStats]:
    """Build the stats routing table for a chain of CacheLevels."""
    return {level.level: level.storage.stats for level in levels}
