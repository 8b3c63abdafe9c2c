"""Per-level cache components and the transaction that descends them.

A :class:`CacheLevel` bundles one level's storage (:class:`~repro.sim.cache.Cache`
— set arrays, MSHRs, PQ, fill queue) with the *behaviour* the old
``Hierarchy`` god-object hard-coded three times: demand lookup, in-flight
merge, fill application with victim handling, and dirty-victim drain.
Levels are connected by explicit ports: ``below`` points one level further
from the core (L1D → L2C → LLC → ``None``), ``dram`` is every level's
memory port for writebacks, and the LLC level additionally carries the
:class:`~repro.sim.hierarchy.SharedLLC` registry that enforces inclusion.

A demand is carried by a pooled :class:`MemTransaction` as it descends;
the hierarchy kernel walks the level chain with one loop instead of
per-level copy-pasted blocks.

The per-fill calls (:meth:`CacheLevel.fill`, :meth:`CacheLevel.apply_fill`
and the storage calls beneath them) take their flags positionally: they
run several times per miss, and keyword passing costs measurably more
per call in CPython.

Every side effect that is *not* timing — prefetch accounting, evictions,
back-invalidations, writebacks — is published as a typed event on the
shared bus (:mod:`repro.sim.events`); this module never touches a stats
counter or a prefetcher hook directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop
from typing import TYPE_CHECKING

from ..prefetchers.base import FillLevel
from .cache import DIRTY, PREFETCHED, Cache
from .events import (
    BackInvalidation,
    CacheAccess,
    EventBus,
    Eviction,
    PrefetchFill,
    PrefetchUseful,
    PrefetchUseless,
    Writeback,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dram import Dram, DramPort
    from .hierarchy import SharedLLC


@dataclass(slots=True)
class MemTransaction:
    """One demand descending the hierarchy: byte address, cacheline and
    write intent, threaded through every level it visits."""

    address: int
    line: int
    is_write: bool = False


class CacheLevel:
    """One cache level: storage plus ported, event-publishing behaviour.

    Publishes through *pooled* event instances (one per type, ``level``
    pre-set) dispatched over the bus's live handler lists — see the
    transient-events contract in :mod:`repro.sim.events`.  This keeps the
    per-access observer cost to field writes plus handler calls, with no
    allocation and no ``publish()`` indirection on the hot path.
    """

    __slots__ = ("level", "storage", "bus", "dram", "below", "shared",
                 "hit_latency",
                 "_ev_access", "_ev_useful", "_ev_pfill", "_ev_evict",
                 "_ev_useless", "_ev_wb",
                 "_access_handlers", "_useful_handlers", "_pfill_handlers",
                 "_evict_handlers", "_useless_handlers", "_wb_handlers",
                 "_binv_handlers")

    def __init__(self, level: FillLevel, storage: Cache, bus: EventBus,
                 dram: "Dram | DramPort", below: "CacheLevel | None" = None,
                 shared: "SharedLLC | None" = None) -> None:
        self.level = level
        self.storage = storage
        self.bus = bus
        self.dram = dram
        self.below = below
        self.shared = shared
        # Cached off the params: read on every descent step.
        self.hit_latency: int = storage.params.hit_latency
        # Pooled transient events (fields rewritten per publication) and
        # the bus's live handler lists (subscribe/unsubscribe mutate them
        # in place, so these references never go stale).
        self._ev_access = CacheAccess(level, 0, False, False, 0.0)
        self._ev_useful = PrefetchUseful(level, 0, 0, False, 0.0)
        self._ev_pfill = PrefetchFill(level, 0, 0.0)
        self._ev_evict = Eviction(level, 0, False, False, 0.0)
        self._ev_useless = PrefetchUseless(level, 0, "", 0.0)
        self._ev_wb = Writeback(level, 0, False, 0.0)
        self._access_handlers = bus.handlers(CacheAccess)
        self._useful_handlers = bus.handlers(PrefetchUseful)
        self._pfill_handlers = bus.handlers(PrefetchFill)
        self._evict_handlers = bus.handlers(Eviction)
        self._useless_handlers = bus.handlers(PrefetchUseless)
        self._wb_handlers = bus.handlers(Writeback)
        self._binv_handlers = bus.handlers(BackInvalidation)

    @property
    def name(self) -> str:
        """The storage's display name (e.g. ``L1D0``)."""
        return self.storage.name

    # ----------------------------------------------------------- demand side

    def lookup(self, txn: MemTransaction, cycle: float) -> bool:
        """Demand lookup for a descending transaction; returns hit.

        Publishes the per-level :class:`CacheAccess` and, when the hit
        consumed a prefetched bit, :class:`PrefetchUseful`.
        """
        hit, used_prefetch = self.storage.access(txn.line, cycle, txn.is_write)
        ev = self._ev_access
        ev.line = txn.line
        ev.hit = hit
        ev.is_write = txn.is_write
        ev.cycle = cycle
        for handler in self._access_handlers:
            handler(ev)
        if used_prefetch:
            self._publish_useful(txn.line, txn.address, False, cycle)
        return hit

    def _publish_useful(self, line: int, address: int, late: bool,
                        cycle: float) -> None:
        ev = self._ev_useful
        ev.line = line
        ev.address = address
        ev.late = late
        ev.cycle = cycle
        for handler in self._useful_handlers:
            handler(ev)

    def merge_pending(self, txn: MemTransaction, cycle: float) -> float | None:
        """Completion cycle of an in-flight miss on this line, if any.

        A demand that catches its own prefetch still in flight resolves
        it useful-but-late; the MSHR entry and the pending fill are
        demoted to demand so the arriving fill is not counted again.
        """
        entry = self.storage._mshr.get(txn.line)
        if entry is None:
            return None
        pending, is_prefetch = entry
        if is_prefetch:
            self._publish_useful(txn.line, txn.address, True, cycle)
            self.storage.mshr_allocate(txn.line, pending)
            self.storage.fills.strip_prefetch_flag(txn.line)
        return pending

    # ------------------------------------------------------------- fill side

    def sync(self, cycle: float) -> None:
        """Apply every pending fill whose data has arrived by ``cycle``.

        Drains the fill queue in place (heap + per-line index — the same
        structures :meth:`FillQueue.pop_ready` maintains) and drops each
        fill's MSHR entry inline (the body of :meth:`Cache.mshr_release`),
        with no ready-list and no release call per fill: this runs once
        per demand access per level, and in miss-heavy runs nearly always
        has work to do.
        """
        storage = self.storage
        fills = storage.fills
        heap = fills._heap
        if not heap or heap[0][0] > cycle:
            return
        by_line = fills._by_line
        mshr = storage._mshr
        apply_fill = self.apply_fill
        while heap and heap[0][0] <= cycle:
            fill = heappop(heap)
            ready, _, line, prefetched, is_write, canceled = fill
            if canceled:
                continue
            bucket = by_line[line]
            if len(bucket) == 1:
                del by_line[line]
            else:
                bucket.remove(fill)
            mshr.pop(line, None)
            if not mshr:
                storage._mshr_heap.clear()
                storage._mshr_min = float("inf")
            apply_fill(line, ready, prefetched, is_write)

    def fill(self, line: int, ready: float, cycle: float,
             prefetched: bool = False, is_write: bool = False) -> None:
        """Apply now if the data is already here, otherwise defer."""
        if ready <= cycle:
            self.apply_fill(line, cycle, prefetched, is_write)
        else:
            self.storage.schedule_fill(line, ready, prefetched, is_write)

    def apply_fill(self, line: int, cycle: float, prefetched: bool = False,
                   is_write: bool = False) -> None:
        """Install a line whose data is here, resolving its victim.

        Victim policy is the one place level behaviour genuinely differs,
        expressed through the ports: a level with a ``shared`` registry
        (the inclusive LLC) back-invalidates every registered private
        cache; dirty victims drain through ``below`` — absorbed when the
        next level holds the line, written back to DRAM otherwise.
        """
        inserted, victim, victim_flags = self.storage.fill_now(
            line, cycle, prefetched, is_write)
        if not inserted:
            return
        if prefetched:
            ev = self._ev_pfill
            ev.line = line
            ev.cycle = cycle
            for handler in self._pfill_handlers:
                handler(ev)
        if victim is None:
            return
        ev = self._ev_evict
        ev.line = victim
        ev.prefetched = (victim_flags & PREFETCHED) != 0
        ev.dirty = (victim_flags & DIRTY) != 0
        ev.cycle = cycle
        for handler in self._evict_handlers:
            handler(ev)
        dirty_private = False
        if self.shared is not None:
            for cache, flags in self.shared.back_invalidate(victim):
                dirty = (flags & DIRTY) != 0
                dirty_private |= dirty
                binv = BackInvalidation(cache.name, victim,
                                        (flags & PREFETCHED) != 0, dirty,
                                        cycle, cache.stats)
                for handler in self._binv_handlers:
                    handler(binv)
        if victim_flags & PREFETCHED:
            self._publish_useless(victim, "evicted", cycle)
        # A dirty back-invalidated private copy holds data newer than the
        # LLC line it shadowed; with that line gone, the only place left
        # for it is memory — one writeback covers the freshest copy even
        # when the LLC victim itself was also dirty.
        if victim_flags & DIRTY or dirty_private:
            self._drain_dirty(victim, cycle)

    def _publish_useless(self, line: int, reason: str, cycle: float) -> None:
        ev = self._ev_useless
        ev.line = line
        ev.reason = reason
        ev.cycle = cycle
        for handler in self._useless_handlers:
            handler(ev)

    def _drain_dirty(self, victim: int, cycle: float) -> None:
        """Dirty victims drain towards memory through the ``below`` chain.

        The first level that still holds the line absorbs the data
        (its copy turns dirty); only when no level between here and
        memory has it does the victim go to DRAM.  Probing just the
        immediate level would let an L1 victim absent from L2 but
        resident in the inclusive LLC bypass the LLC straight to DRAM,
        leaving the LLC copy clean and stale.
        """
        below = self.below
        absorbed = False
        while below is not None:
            if below.storage.mark_dirty(victim):
                absorbed = True
                break
            below = below.below
        if not absorbed:
            self.dram.writeback(victim, cycle)
        ev = self._ev_wb
        ev.line = victim
        ev.absorbed = absorbed
        ev.cycle = cycle
        for handler in self._wb_handlers:
            handler(ev)

    def flush_prefetch_accounting(self, cycle: float = 0.0) -> None:
        """End-of-run: resident never-used prefetched lines are useless.

        ``cycle`` is the final simulated cycle so the flush events land
        at the end of ``--trace-events`` timelines, not at time zero.
        """
        for line in self.storage.strip_prefetched():
            self._publish_useless(line, "flushed", cycle)
