"""Functional reference model for the event kernel's demand path.

A deliberately boring re-implementation of the memory hierarchy's
*semantics* — dict-based LRU sets, a flat pending-fill list, an MSHR
dict, arithmetic DRAM channels — with none of the kernel's machinery:
no event bus, no pooled events, no observers, no heaps, no per-level
components.  ``tests/test_differential.py`` drives this model and the
real :class:`~repro.sim.hierarchy.Hierarchy` with identical demand
streams and asserts that per-access latencies, hit levels, final
counters and final cache contents all agree, so a bug in the kernel's
clever parts (fill-queue heaps, transient events, sync ordering) cannot
hide behind plausible-looking aggregate numbers.

Scope: demand traffic only (the paper's baseline configuration); the
prefetch path is covered by the invariant auditor and the golden-trace
fixtures instead.
"""

from __future__ import annotations

from ..memtrace.access import CACHELINE_BITS
from .params import SystemConfig


class _RefLevel:
    """One level: insertion-ordered dicts per set, plus flat queues."""

    def __init__(self, params) -> None:
        self.num_sets = params.num_sets
        self.ways = params.ways
        self.hit_latency = params.hit_latency
        self.mshr_capacity = params.mshr_entries
        # line -> dirty flag; dict insertion order is LRU order.
        self.sets: list[dict[int, bool]] = [dict()
                                            for _ in range(self.num_sets)]
        self.mshr: dict[int, float] = {}        # line -> completion cycle
        # Pending fills as plain (ready, seq, line, is_write) rows.
        self.pending: list[list] = []
        self._seq = 0
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def set_for(self, line: int) -> dict[int, bool]:
        return self.sets[line % self.num_sets]

    def touch(self, line: int) -> None:
        """Refresh LRU recency (re-insert at the back)."""
        cache_set = self.set_for(line)
        cache_set[line] = cache_set.pop(line)

    def schedule(self, line: int, ready: float, is_write: bool) -> None:
        self.pending.append([ready, self._seq, line, is_write])
        self._seq += 1

    def cancel(self, line: int) -> None:
        """Back-invalidation: in-flight fills of the line never land."""
        before = len(self.pending)
        self.pending = [row for row in self.pending if row[2] != line]
        if len(self.pending) != before:
            self.mshr.pop(line, None)

    def prune_mshr(self, cycle: float) -> None:
        done = [line for line, when in self.mshr.items() if when <= cycle]
        for line in done:
            del self.mshr[line]


class RefModel:
    """Reference semantics of :meth:`Hierarchy.demand_access`."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        if config is None:
            config = SystemConfig.default()
        self.levels = [_RefLevel(config.l1d), _RefLevel(config.l2c),
                       _RefLevel(config.llc)]
        dram = config.dram
        self.dram_latency = dram.base_latency_cycles
        self.service = dram.service_cycles
        self.channels = [[0.0, 0.0] for _ in range(dram.channels)]
        self.dram_demands = 0
        self.dram_writebacks = 0

    # ------------------------------------------------------------------ DRAM

    def _dram_demand(self, line: int, cycle: float) -> float:
        channel = self.channels[line % len(self.channels)]
        next_free, demand_next_free = channel
        in_flight_wait = min(next_free, cycle + self.service)
        start = max(cycle, demand_next_free, in_flight_wait)
        channel[1] = start + self.service
        channel[0] = max(next_free, start) + self.service
        self.dram_demands += 1
        return start + self.service + self.dram_latency

    def _dram_writeback(self, line: int, cycle: float) -> None:
        channel = self.channels[line % len(self.channels)]
        channel[0] = max(cycle, channel[0]) + self.service
        self.dram_writebacks += 1

    # ----------------------------------------------------------------- fills

    def _sync(self, cycle: float) -> None:
        # LLC drains first so back-invalidations precede private fills,
        # each level in (ready, schedule-order) — the kernel's heap order.
        for level in (self.levels[2], self.levels[1], self.levels[0]):
            ready_rows = sorted(row for row in level.pending
                                if row[0] <= cycle)
            if not ready_rows:
                continue
            level.pending = [row for row in level.pending if row[0] > cycle]
            for ready, _, line, is_write in ready_rows:
                level.mshr.pop(line, None)
                self._apply_fill(level, line, ready, is_write)

    def _apply_fill(self, level: _RefLevel, line: int, ready: float,
                    is_write: bool) -> None:
        cache_set = level.set_for(line)
        if line in cache_set:
            level.touch(line)
            return
        victim_dirty = None
        victim = None
        if len(cache_set) >= level.ways:
            victim = next(iter(cache_set))
            victim_dirty = cache_set.pop(victim)
            level.evictions += 1
        cache_set[line] = is_write
        if victim is None:
            return
        dirty_private = False
        if level is self.levels[2]:
            for private in (self.levels[0], self.levels[1]):
                removed = private.set_for(victim).pop(victim, None)
                if removed:
                    dirty_private = True
                private.cancel(victim)
        if victim_dirty or dirty_private:
            self._drain_dirty(level, victim, ready)

    def _drain_dirty(self, level: _RefLevel, victim: int,
                     cycle: float) -> None:
        depth = self.levels.index(level)
        for below in self.levels[depth + 1:]:
            cache_set = below.set_for(victim)
            if victim in cache_set:
                cache_set[victim] = True
                return
        self._dram_writeback(victim, cycle)

    # ---------------------------------------------------------------- demand

    def _mshr_stall(self, level: _RefLevel, cycle: float) -> float:
        waited = 0.0
        while True:
            level.prune_mshr(cycle + waited)
            if len(level.mshr) < level.mshr_capacity:
                return waited
            earliest = min(level.mshr.values())
            if earliest <= cycle + waited:
                level.prune_mshr(earliest)
            else:
                waited = earliest - cycle

    def access(self, address: int, cycle: float,
               is_write: bool = False) -> tuple[float, bool]:
        """One demand access; returns (latency, l1_hit) like the kernel."""
        self._sync(cycle)
        line = address >> CACHELINE_BITS
        latency = 0.0
        for depth, level in enumerate(self.levels):
            level.accesses += 1
            cache_set = level.set_for(line)
            if line in cache_set:
                level.hits += 1
                level.touch(line)
                if is_write:
                    cache_set[line] = True
                latency += level.hit_latency
                self._backfill(line, depth, cycle + latency, is_write)
                return latency, depth == 0
            level.misses += 1
            latency += level.hit_latency
            pending = level.mshr.get(line)
            if pending is not None:
                cap = self.dram_latency + 2 * self.service
                merge = min(max(0.0, pending - cycle), cap)
                if depth == 0 and is_write:
                    # A store merging at L1 dirties the line's pending fill.
                    for row in level.pending:
                        if row[2] == line:
                            row[3] = True
                self._backfill(line, depth, cycle + latency + merge, is_write)
                return latency + merge, False
            if depth == 0:
                latency += self._mshr_stall(level, cycle)

        completion = self._dram_demand(line, cycle + latency)
        for level in self.levels:
            level.prune_mshr(cycle)
            level.mshr[line] = completion
        for index in (2, 1, 0):
            self.levels[index].schedule(line, completion,
                                        is_write and index == 0)
        return completion - cycle, False

    def _backfill(self, line: int, depth: int, ready: float,
                  is_write: bool) -> None:
        for index in range(depth - 1, -1, -1):
            self.levels[index].schedule(line, ready,
                                        is_write and index == 0)

    # ------------------------------------------------------------- snapshots

    def drain(self) -> None:
        """Apply every outstanding fill (end of run)."""
        self._sync(float("inf"))

    def level_counters(self, index: int) -> tuple[int, int, int, int]:
        level = self.levels[index]
        return level.accesses, level.hits, level.misses, level.evictions

    def contents(self, index: int) -> dict[int, bool]:
        """Resident ``line -> dirty`` map of one level."""
        merged: dict[int, bool] = {}
        for cache_set in self.levels[index].sets:
            merged.update(cache_set)
        return merged


class RefCounterVector:
    """Naive reference for :class:`~repro.prefetchers.pmp.CounterVector`.

    Same semantics, none of the optimisations: ``merge`` scans every
    counter position (instead of iterating only the set bits of the
    incoming vector) and ``decay`` rebuilds the list (the shape of the
    original implementation, before the in-place fix).
    ``tests/test_perf_equivalence.py`` drives both implementations with
    identical merge sequences and asserts the counters stay
    bit-identical, so a bug in the set-bit walk or the in-place halving
    cannot hide behind plausible-looking saturating counters.
    """

    def __init__(self, length: int, counter_bits: int) -> None:
        if counter_bits < 1:
            raise ValueError("counter_bits must be >= 1")
        self.counters = [0] * length
        self.max_value = (1 << counter_bits) - 1

    def merge(self, anchored_bits: int) -> None:
        """Merge one anchored bit vector, position by position."""
        for i in range(len(self.counters)):
            if anchored_bits >> i & 1 and self.counters[i] < self.max_value:
                self.counters[i] += 1
        if self.counters[0] >= self.max_value:
            self.decay()

    def decay(self) -> None:
        """Halve every counter (list rebuild, the pre-fix shape)."""
        self.counters = [c >> 1 for c in self.counters]

    def frequencies(self) -> list[float]:
        time = self.counters[0]
        if time == 0:
            return [0.0] * len(self.counters)
        return [c / time for c in self.counters]
