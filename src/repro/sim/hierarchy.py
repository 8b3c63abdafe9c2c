"""Event-driven memory-system kernel: ported cache levels, one descent loop.

The hierarchy is a chain of :class:`~repro.sim.level.CacheLevel`
components (L1D → L2C → LLC, each owning its storage, MSHRs, PQ and fill
queue) ending at the DRAM port.  A demand is carried by a
:class:`~repro.sim.level.MemTransaction` that descends the chain in a
single loop — the per-level lookup/merge/fill logic lives once, in the
components, instead of three copy-pasted blocks.

Misses and prefetches schedule their fills for the cycle the data
arrives; the kernel *syncs* each level (applies arrived fills, evicting
victims at the honest time) before serving an access.  Demands that touch
a line whose fill is still in flight merge with it through the MSHR —
with their wait capped at a demand-priority refetch, because real memory
controllers promote a demand that matches an in-flight prefetch.

The LLC is inclusive (Table IV): evicting an LLC line back-invalidates it
from every registered private L1D/L2C, which is also how useless shared
prefetches propagate in the 4-core runs.

All side-channel notifications — prefetch useful/useless/fill, evictions,
back-invalidations, writebacks, admission drops — are typed events on the
kernel's :class:`~repro.sim.events.EventBus`; stats counters, prefetcher
feedback and the opt-in trace observer are subscribers
(:mod:`repro.sim.observers`), not hard-wired calls.
"""

from __future__ import annotations

from ..memtrace.access import CACHELINE_BITS
from ..prefetchers.base import FillLevel, PrefetchRequest, Prefetcher
from .cache import Cache, CacheStats
from .dram import Dram, DramPort
from .events import EventBus, PrefetchDropped, PrefetchIssued
from .level import CacheLevel, MemTransaction
from .observers import (
    LevelStatsObserver,
    PrefetchAccounting,
    PrefetcherBridge,
    snapshot_levels,
)
from .params import SystemConfig


class SharedLLC:
    """An LLC plus the registry of private caches it must keep inclusive."""

    def __init__(self, cache: Cache) -> None:
        self.cache = cache
        self._private: list[Cache] = []

    def register(self, *caches: Cache) -> None:
        """Track private caches for inclusive back-invalidation."""
        self._private.extend(caches)

    def back_invalidate(self, line: int) -> list[tuple[Cache, int]]:
        """Remove an evicted LLC line from every private cache.

        Fills of the line still in flight to a private cache are
        canceled too: one sync pass can apply an LLC fill whose victim
        is a line a private level is *about* to install (the LLC drains
        first, precisely so back-invalidations precede private fills),
        and letting that fill land would break inclusion.

        Returns the ``(cache, line flags)`` pairs of the copies removed,
        so the evicting level can publish one
        :class:`~repro.sim.events.BackInvalidation` per copy.
        """
        removed: list[tuple[Cache, int]] = []
        for cache in self._private:
            flags = cache.invalidate(line)
            if flags is not None:
                removed.append((cache, flags))
            cache.cancel_fills(line)
        return removed


class Hierarchy:
    """One core's view of the memory system (L1D/L2C private, LLC/DRAM shared).

    For single-core runs construct with :meth:`build`; multi-core runs
    share one :class:`SharedLLC` and one :class:`Dram` across hierarchies
    (each core keeps its own bus, observers and private levels — LLC
    events are published on the bus of the core whose access caused them,
    which is also whose prefetcher hears the feedback).
    """

    def __init__(self, config: SystemConfig, prefetcher: Prefetcher,
                 shared_llc: SharedLLC, dram: Dram, core_id: int = 0) -> None:
        self.config = config
        self.prefetcher = prefetcher
        self.core_id = core_id
        self.shared_llc = shared_llc
        self.dram = dram
        # All of this hierarchy's memory traffic goes through its own
        # port, so a shared Dram can attribute requests per core.
        self.dram_port = DramPort(dram)
        self.bus = EventBus()
        self._view_cycle = 0.0

        llc_level = CacheLevel(FillLevel.LLC, shared_llc.cache, self.bus,
                               self.dram_port, below=None, shared=shared_llc)
        l2c_level = CacheLevel(FillLevel.L2C,
                               Cache(config.l2c, name=f"L2C{core_id}"),
                               self.bus, self.dram_port, below=llc_level)
        l1d_level = CacheLevel(FillLevel.L1D,
                               Cache(config.l1d, name=f"L1D{core_id}"),
                               self.bus, self.dram_port, below=l2c_level)
        # Descent order: closest to the core first.
        self.levels: tuple[CacheLevel, ...] = (l1d_level, l2c_level, llc_level)
        # Fill-sync order: LLC first, so inclusive back-invalidations
        # precede private-level fills (prebuilt — `_sync` runs per access).
        self._sync_order: tuple[CacheLevel, ...] = (llc_level, l2c_level,
                                                    l1d_level)
        # (level, fill-heap) pairs for the per-access sync peek — the
        # FillQueue never reassigns its heap list, so the pairs are
        # stable for the hierarchy's lifetime.
        self._sync_pairs: tuple[tuple[CacheLevel, list], ...] = tuple(
            (level, level.storage.fills._heap) for level in self._sync_order)
        self.l1d = l1d_level.storage
        self.l2c = l2c_level.storage
        self.llc = llc_level.storage
        # Descent-order storages for the DRAM-miss tail of demand_access.
        self._storages: tuple[Cache, Cache, Cache] = (self.l1d, self.l2c,
                                                      self.llc)
        shared_llc.register(self.l1d, self.l2c)
        # A demand that matches an in-flight prefetch is promoted by the
        # memory controller: it never waits longer than issuing its own
        # prioritised request would take.
        self._promote_cap = dram.latency + 2 * dram.service_cycles

        # Pooled transient transaction and prefetch events (fields
        # rewritten per use — same contract as the CacheLevel event pool;
        # nothing downstream retains them past its own return).
        self._demand_txn = MemTransaction(address=0, line=0)
        self._ev_issued = PrefetchIssued(FillLevel.L1D, 0, 0, 0.0)
        self._ev_dropped = PrefetchDropped(FillLevel.L1D, 0, "", 0.0)
        self._issued_handlers = self.bus.handlers(PrefetchIssued)
        self._dropped_handlers = self.bus.handlers(PrefetchDropped)

        # This core's view of the shared LLC counters: LLC events from
        # *this* hierarchy's accesses increment both the shared storage
        # block (hardware totals) and this per-core mirror.
        self.llc_stats = CacheStats()

        # Always-on subscribers: counters and prefetcher feedback.
        self.stats_observer = LevelStatsObserver(self.bus,
                                                 snapshot_levels(self.levels),
                                                 llc_mirror=self.llc_stats)
        self.prefetch_accounting = PrefetchAccounting(self.bus)
        self.prefetcher_bridge = PrefetcherBridge(self.bus, prefetcher)

    @classmethod
    def build(cls, config: SystemConfig, prefetcher: Prefetcher) -> "Hierarchy":
        """Construct a single-core hierarchy with its own LLC and DRAM."""
        shared = SharedLLC(Cache(config.llc, name="LLC"))
        return cls(config, prefetcher, shared, Dram(config.dram))

    def level_for(self, level: FillLevel) -> CacheLevel:
        """The component serving one :class:`FillLevel`."""
        return self.levels[level - FillLevel.L1D]

    # -------------------------------------------------- prefetch accounting

    @property
    def issued_prefetches(self) -> dict[FillLevel, int]:
        """Accepted prefetches per target level."""
        return self.prefetch_accounting.issued_prefetches

    @property
    def dropped_prefetches(self) -> int:
        """Total rejected prefetches (all reasons)."""
        return self.prefetch_accounting.dropped_prefetches

    @property
    def drop_reasons(self) -> dict[str, int]:
        """Rejected prefetches by admission-check reason."""
        return self.prefetch_accounting.drop_reasons

    # ------------------------------------------------------------------ sync

    def _sync(self, cycle: float) -> None:
        """Apply every fill whose data has arrived by `cycle` (LLC first,
        so inclusive back-invalidations precede private-level fills).

        Peeks each level's fill heap directly: this runs per demand
        access and almost always finds nothing ready, so the common case
        must not cost a method call per level.
        """
        for level, heap in self._sync_pairs:
            if heap and heap[0][0] <= cycle:
                level.sync(cycle)

    # ----------------------------------------------------------- demand path

    def _backfill(self, txn: MemTransaction, depth: int, ready: float,
                  cycle: float) -> None:
        """Fill every level above `depth` with the line found there.

        Runs bottom-up (L2C before L1D on an LLC hit); only the L1D copy
        carries the demand's write intent.
        """
        levels = self.levels
        line = txn.line
        is_write = txn.is_write
        for i in range(depth - 1, -1, -1):
            levels[i].fill(line, ready, cycle, False, is_write and i == 0)

    def demand_access(self, address: int, cycle: float,
                      is_write: bool = False) -> tuple[float, bool]:
        """Serve one demand access. Returns (total latency, L1D hit)."""
        for level, heap in self._sync_pairs:  # inline _sync (hot path)
            if heap and heap[0][0] <= cycle:
                level.sync(cycle)
        line = address >> CACHELINE_BITS
        txn = self._demand_txn
        txn.address = address
        txn.line = line
        txn.is_write = is_write

        latency = 0.0
        for depth, level in enumerate(self.levels):
            if level.lookup(txn, cycle + latency):
                latency += level.hit_latency
                self._backfill(txn, depth, cycle + latency, cycle)
                return latency, depth == 0
            latency += level.hit_latency
            pending = level.merge_pending(txn, cycle)
            if pending is not None:
                merge = min(max(0.0, pending - cycle), self._promote_cap)
                if depth == 0 and is_write:
                    # No level above to backfill: the store's data rides
                    # the line's in-flight L1 fill.
                    level.storage.fills.mark_write(line)
                self._backfill(txn, depth, cycle + latency + merge, cycle)
                return latency + merge, False
            if depth == 0:
                # The core blocks only on L1 MSHR availability; the lower
                # levels admit the descending miss with the L1 slot held.
                latency += self._mshr_stall(level.storage, cycle)

        completion = self.dram_port.request(line, cycle + latency)
        l1d, l2c, llc = storages = self._storages
        for storage in storages:
            storage.mshr_allocate(line, completion, cycle)
        llc.schedule_fill(line, completion)
        l2c.schedule_fill(line, completion)
        l1d.schedule_fill(line, completion, False, is_write)
        return completion - cycle, False

    def _mshr_stall(self, cache: Cache, cycle: float) -> float:
        """Cycles a demand waits until a level's MSHRs admit a new miss."""
        waited = 0.0
        while cache.mshr_free(cycle + waited) <= 0:
            earliest = cache.mshr_earliest()
            if earliest <= cycle + waited:
                cache.mshr_prune(earliest)
                continue
            waited = earliest - cycle
        return waited

    # --------------------------------------------------------- prefetch path

    def issue_prefetch(self, request: PrefetchRequest, cycle: float) -> bool:
        """Try to issue one prefetch; returns True if it was accepted.

        Rejections (already resident or in flight close enough, PQ full,
        no spare MSHR) mirror the hardware conditions the paper describes;
        each publishes a :class:`PrefetchDropped` with its reason.
        """
        for level, heap in self._sync_pairs:  # inline _sync (hot path)
            if heap and heap[0][0] <= cycle:
                level.sync(cycle)
        address = request.address
        line = address >> CACHELINE_BITS
        level_id = request.level
        levels = self.levels
        depth = level_id - FillLevel.L1D
        target = levels[depth]

        reason = self._admission_reject(line, target, depth, cycle)
        if reason is not None:
            ev = self._ev_dropped
            ev.level = level_id
            ev.line = line
            ev.reason = reason
            ev.cycle = cycle
            for handler in self._dropped_handlers:
                handler(ev)
            return False

        llc = levels[-1]
        llc_storage = llc.storage
        # Fills below never change LLC residency, so one probe serves
        # both the latency decision and the fill loop.
        llc_resident = llc_storage.contains(line)
        if llc_resident and target is not llc:
            # On-chip move: promote from the LLC without DRAM traffic.
            ready = cycle + llc.hit_latency
        else:
            llc_pending = llc_storage.mshr_pending(line)
            if llc_pending is not None:
                # Piggy-back on the fetch already in flight.
                ready = llc_pending
            else:
                arrival = cycle + llc.hit_latency
                ready = self.dram_port.request(line, arrival, True)
            target.storage.mshr_allocate(line, ready, cycle, True)

        # The target level gets the prefetched bit; every level below it
        # is filled too (inclusive path), the LLC only when absent.
        for i in range(depth, len(levels)):
            level = levels[i]
            if level is llc and level is not target:
                if not llc_resident:
                    level.fill(line, ready, cycle)
            else:
                level.fill(line, ready, cycle, level is target)

        # A PQ entry holds the request only until it is handed to the
        # memory system (ChampSim semantics), not until the fill lands.
        target.storage.pq_push(cycle + target.hit_latency)
        ev = self._ev_issued
        ev.level = level_id
        ev.line = line
        ev.address = address
        ev.cycle = cycle
        for handler in self._issued_handlers:
            handler(ev)
        return True

    def _admission_reject(self, line: int, target: CacheLevel,
                          depth: int, cycle: float) -> str | None:
        """First failing admission check for a prefetch, if any."""
        levels = self.levels
        for i in range(depth + 1):
            if levels[i].storage.resident_or_pending(line):
                return "resident"
        if target.storage.pq_free(cycle) <= 0:
            return "pq_full"
        if not target.storage.mshr_has_room_for_prefetch(cycle):
            return "mshr_full"
        return None

    # ----------------------------------------------------------- SystemView

    def free_pq_entries(self, level: FillLevel) -> int:
        """Free prefetch-queue slots at a level (SystemView)."""
        return self.level_for(level).storage.pq_free(self._view_cycle)

    def prefetch_headroom(self, level: FillLevel) -> int:
        """What a level can actually take now: min of PQ room and MSHR room
        (one MSHR is always reserved for demands)."""
        storage = self.level_for(level).storage
        mshr_room = max(0, storage.mshr_free(self._view_cycle) - 1)
        return min(storage.pq_free(self._view_cycle), mshr_room)

    def dram_utilization(self) -> float:
        """Coarse DRAM busy fraction (SystemView)."""
        return self.dram.utilization_hint(self._view_cycle)

    def set_view_cycle(self, cycle: float) -> None:
        """Engine sets the cycle SystemView queries are answered at."""
        self._view_cycle = cycle

    # ------------------------------------------------------------- lifecycle

    def flush_accounting(self, cycle: float = 0.0) -> None:
        """Resolve still-resident prefetched lines as useless (end of run).

        ``cycle`` is the final simulated cycle, stamped on the flush
        events so event timelines do not place them at time zero.
        """
        self._sync(float("inf"))
        for level in self.levels:
            level.flush_prefetch_accounting(cycle)

    def reset_private_stats(self) -> None:
        """Clear this core's private counters (its own warmup boundary).

        Touches nothing shared: a multicore lane crossing its warmup
        boundary must not wipe the LLC storage or DRAM counters other
        cores are still measuring.
        """
        self.l1d.stats.reset()
        self.l2c.stats.reset()
        self.prefetch_accounting.reset()

    def reset_shared_attribution(self) -> None:
        """Clear this core's view of the shared resources (LLC mirror and
        DRAM port), used at the *global* measurement boundary so per-core
        deltas sum to the shared hardware totals."""
        self.llc_stats.reset()
        self.dram_port.stats.reset()

    def reset_stats(self) -> None:
        """Clear all counters (single-core warmup/measurement boundary)."""
        self.reset_private_stats()
        self.reset_shared_attribution()
        self.llc.stats.reset()
        self.dram.stats.reset()
