"""Dirty-victim writebacks and inclusive back-invalidation chains.

Covers the port-wired victim paths of :class:`repro.sim.level.CacheLevel`:
L1 dirty victims drain into L2 when present (absorbed) or to DRAM when
absent; LLC victims back-invalidate every private copy (inclusion) and
dirty ones write back to DRAM.
"""

import numpy as np

from repro.memtrace.access import MemoryAccess
from repro.memtrace.trace import Trace
from repro.sim.cache import DIRTY
from repro.sim.engine import simulate
from repro.sim.events import BackInvalidation, Writeback
from repro.sim.hierarchy import Hierarchy
from repro.sim.params import SystemConfig


def build():
    from repro.prefetchers.base import NoPrefetcher
    return Hierarchy.build(SystemConfig.default(), NoPrefetcher())


def evict_from(level, line, start_cycle):
    """Fill conflicting lines until ``line`` is no longer resident."""
    i = 1
    while level.storage.contains(line):
        level.apply_fill(line + i * level.storage.num_sets,
                         start_cycle + i)
        i += 1


class TestWritebackPropagation:
    def test_clean_evictions_produce_no_writebacks(self):
        h = build()
        cycle = 0.0
        for i in range(h.l1d.ways + 4):
            addr = 0x100000 + i * h.l1d.num_sets * 64
            latency, _ = h.demand_access(addr, cycle)
            cycle += latency + 1
        h._sync(cycle + 1e6)
        assert h.dram.stats.writeback_requests == 0

    def test_dirty_l1_victim_absorbed_by_l2(self):
        h = build()
        addr = 0x200000
        latency, _ = h.demand_access(addr, 0.0, is_write=True)
        h._sync(latency + 1)
        line = addr >> 6
        assert h.l1d.probe(line) & DIRTY
        assert not h.l2c.probe(line) & DIRTY
        # A younger line in the same L2 set: absorbing the victim turns
        # the L2 copy dirty without moving it in the LRU order.
        h.l2c.fill_now(line + h.l2c.num_sets, latency + 1)
        l2_set = h.l2c._sets[line % h.l2c.num_sets]
        order = list(l2_set)
        # Writeback events are transient (pooled) — copy fields out.
        seen = []
        h.bus.subscribe(Writeback, lambda e: seen.append((e.line, e.absorbed)))
        evict_from(h.levels[0], line, latency + 1)
        # L2 holds the line (inclusion), so the writeback is absorbed
        # there instead of reaching DRAM.
        assert h.l2c.probe(line) & DIRTY
        assert list(l2_set) == order
        assert h.dram.stats.writeback_requests == 0
        assert [ab for ln, ab in seen if ln == line] == [True]

    def test_dirty_l1_victim_without_l2_copy_goes_to_dram(self):
        h = build()
        line = 0x200000 >> 6
        # Dirty line in L1 only — L2/LLC never saw it.
        h.l1d.fill_now(line, 0.0, is_write=True)
        seen = []
        h.bus.subscribe(Writeback, lambda e: seen.append((e.line, e.absorbed)))
        evict_from(h.levels[0], line, 1.0)
        assert h.dram.stats.writeback_requests == 1
        assert [ab for ln, ab in seen if ln == line] == [False]

    def test_llc_dirty_eviction_writes_to_dram(self):
        h = build()
        line = 0x300000 >> 6
        h.llc.fill_now(line, 0.0, is_write=True)
        evict_from(h.levels[2], line, 1.0)
        assert h.dram.stats.writeback_requests == 1

    def test_write_heavy_trace_generates_wb_traffic(self):
        rng = np.random.default_rng(0)
        trace = Trace("writes")
        # A working set larger than the LLC, all stores.
        for i in range(20_000):
            line = int(rng.integers(0, 1 << 16))
            trace.append(MemoryAccess(pc=0x400, address=line * 64,
                                      is_write=True, gap=30))
        result = simulate(trace)
        assert result.dram_writeback_requests > 0
        assert result.dram_requests > result.dram_demand_requests

    def test_read_only_trace_generates_none(self):
        rng = np.random.default_rng(0)
        trace = Trace("reads")
        for i in range(5_000):
            line = int(rng.integers(0, 1 << 16))
            trace.append(MemoryAccess(pc=0x400, address=line * 64, gap=30))
        result = simulate(trace)
        assert result.dram_writeback_requests == 0


class TestInclusiveBackInvalidation:
    def test_llc_eviction_invalidates_private_copies(self):
        h = build()
        addr = 0x400000
        latency, _ = h.demand_access(addr, 0.0)
        h._sync(latency + 1)
        line = addr >> 6
        assert h.l1d.contains(line) and h.l2c.contains(line)
        events = []
        h.bus.subscribe(BackInvalidation, events.append)
        evict_from(h.levels[2], line, latency + 1)
        assert not h.l1d.contains(line)
        assert not h.l2c.contains(line)
        assert sorted(e.cache_name for e in events if e.line == line) == \
            sorted([h.l1d.name, h.l2c.name])

    def test_back_invalidated_prefetched_line_counts_useless(self):
        h = build()
        line = 0x500000 >> 6
        # Prefetched line resident in L1 + LLC, never demanded.
        h.levels[0].apply_fill(line, 0.0, prefetched=True)
        h.levels[2].apply_fill(line, 0.0)
        before = h.l1d.stats.useless_prefetches
        evict_from(h.levels[2], line, 1.0)
        assert not h.l1d.contains(line)
        assert h.l1d.stats.useless_prefetches == before + 1

    def test_dirty_private_copy_back_invalidated_then_llc_writes_back(self):
        h = build()
        addr = 0x600000
        latency, _ = h.demand_access(addr, 0.0, is_write=True)
        h._sync(latency + 1)
        line = addr >> 6
        assert h.l1d.probe(line) & DIRTY
        seen = []
        h.bus.subscribe(Writeback, lambda e: seen.append((e.line, e.absorbed)))
        evict_from(h.levels[2], line, latency + 1)
        # The LLC victim was clean but the back-invalidated L1 copy was
        # dirty: inclusion is restored...
        assert not h.l1d.contains(line) and not h.l2c.contains(line)
        # ...and the dirty private data is not silently lost — with the
        # LLC copy gone the only place left for it is memory.
        assert h.dram.stats.writeback_requests == 1
        assert [ab for ln, ab in seen if ln == line] == [False]
        # The LLC line itself, once dirtied via an L1 drain, also writes
        # back on its own eviction.
        h2 = build()
        h2.llc.fill_now(line, 0.0, is_write=True)
        evict_from(h2.levels[2], line, 1.0)
        assert h2.dram.stats.writeback_requests == 1
