"""The event kernel: bus semantics, observers, and prefetch accounting.

These tests pin the observer-bus contract the hierarchy now relies on:
counters are written only by :class:`LevelStatsObserver`, prefetcher
feedback flows only through :class:`PrefetcherBridge`, and the
issued/dropped bookkeeping (:class:`PrefetchAccounting`) keeps
``dropped_prefetches == sum(drop_reasons.values())`` by construction —
the invariant the old hierarchy violated for ``resident`` drops.
"""

from hypothesis import given, strategies as st

from repro.prefetchers.base import (
    FillLevel,
    NoPrefetcher,
    PrefetchRequest,
    Prefetcher,
)
from repro.sim.cache import Cache
from repro.sim.dram import Dram
from repro.sim.events import (
    CacheAccess,
    EventBus,
    Eviction,
    PrefetchDropped,
    PrefetchUseful,
    PrefetchUseless,
)
from repro.sim.hierarchy import Hierarchy
from repro.sim.level import CacheLevel, MemTransaction
from repro.sim.observers import (
    EventTrace,
    LevelStatsObserver,
    merge_counter_snapshots,
)
from repro.sim.params import CacheParams, SystemConfig


def build():
    return Hierarchy.build(SystemConfig.default(), NoPrefetcher())


class TestEventBus:
    def test_publish_without_subscribers_is_noop(self):
        EventBus().publish(CacheAccess(FillLevel.L1D, 1, True, False, 0.0))

    def test_handlers_run_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(CacheAccess, lambda e: order.append("first"))
        bus.subscribe(CacheAccess, lambda e: order.append("second"))
        bus.publish(CacheAccess(FillLevel.L1D, 1, True, False, 0.0))
        assert order == ["first", "second"]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(CacheAccess, seen.append)
        bus.publish(CacheAccess(FillLevel.L1D, 1, True, False, 0.0))
        unsubscribe()
        bus.publish(CacheAccess(FillLevel.L1D, 2, True, False, 1.0))
        assert len(seen) == 1
        unsubscribe()                    # double-unsubscribe is harmless

    def test_delivery_is_typed(self):
        bus = EventBus()
        seen = []
        bus.subscribe(Eviction, seen.append)
        bus.publish(CacheAccess(FillLevel.L1D, 1, True, False, 0.0))
        assert seen == []


class TestDropAccounting:
    """Satellite: resident rejections must count as drops too."""

    def test_resident_drop_counts(self):
        h = build()
        addr = 0x1000
        latency, _ = h.demand_access(addr, 0.0)
        cycle = latency + 1
        h._sync(cycle)
        assert h.l1d.contains(addr >> 6)
        accepted = h.issue_prefetch(PrefetchRequest(addr, FillLevel.L1D), cycle)
        assert not accepted
        assert h.drop_reasons["resident"] == 1
        assert h.dropped_prefetches == 1

    def test_dropped_equals_sum_of_reasons(self):
        h = build()
        cycle = 0.0
        for i in range(200):
            addr = (i % 40) * 64          # repeats force resident drops
            latency, _ = h.demand_access(addr, cycle)
            h.issue_prefetch(PrefetchRequest(addr + 64, FillLevel.L2C), cycle)
            h.issue_prefetch(PrefetchRequest(addr + 64, FillLevel.L2C), cycle)
            cycle += latency + 1
        assert h.dropped_prefetches > 0
        assert h.dropped_prefetches == sum(h.drop_reasons.values())

    def test_reset_clears_drop_counters(self):
        h = build()
        h.demand_access(0x1000, 0.0)
        h.issue_prefetch(PrefetchRequest(0x1000, FillLevel.L1D), 1.0)
        h.reset_stats()
        assert h.dropped_prefetches == 0
        assert sum(h.drop_reasons.values()) == 0
        assert sum(h.issued_prefetches.values()) == 0

    def test_drop_event_carries_reason(self):
        h = build()
        drops = []
        h.bus.subscribe(PrefetchDropped, drops.append)
        h.demand_access(0x1000, 0.0)
        h.issue_prefetch(PrefetchRequest(0x1000, FillLevel.L1D), 1.0)
        assert [d.reason for d in drops] == ["resident"]


class TestViewCycle:
    """Satellite: ``_view_cycle`` is per-instance state, not class state."""

    def test_instances_do_not_share_view_cycle(self):
        h1, h2 = build(), build()
        h1.set_view_cycle(123.0)
        assert h2._view_cycle == 0.0

    def test_not_a_class_attribute(self):
        assert "_view_cycle" not in vars(Hierarchy)


class TestEventTrace:
    def test_counts_by_event_and_component(self):
        h = build()
        tracer = EventTrace(h.bus)
        latency, _ = h.demand_access(0x1000, 0.0)
        h.demand_access(0x1000, latency + 1)
        snapshot = tracer.counter_snapshot()
        assert snapshot["CacheAccess"]["L1D"] == 2
        assert tracer.total("CacheAccess") == 4   # miss walked all 3 levels

    def test_log_is_bounded(self):
        bus = EventBus()
        tracer = EventTrace(bus, max_events=3)
        for i in range(5):
            bus.publish(CacheAccess(FillLevel.L1D, i, True, False, float(i)))
        assert len(tracer.log) == 3
        assert tracer.dropped_log_rows == 2
        assert tracer.total("CacheAccess") == 5   # counters keep counting

    def test_detach_stops_recording(self):
        bus = EventBus()
        tracer = EventTrace(bus)
        bus.publish(CacheAccess(FillLevel.L1D, 1, True, False, 0.0))
        tracer.detach()
        bus.publish(CacheAccess(FillLevel.L1D, 2, True, False, 1.0))
        assert tracer.total("CacheAccess") == 1

    def test_reset_clears_everything(self):
        bus = EventBus()
        tracer = EventTrace(bus, max_events=1)
        bus.publish(CacheAccess(FillLevel.L1D, 1, True, False, 0.0))
        bus.publish(CacheAccess(FillLevel.L1D, 2, True, False, 1.0))
        tracer.reset()
        assert tracer.log == [] and tracer.counts == {}
        assert tracer.dropped_log_rows == 0

    def test_merge_counter_snapshots(self):
        totals = {}
        merge_counter_snapshots(totals, {"CacheAccess": {"L1D": 2}})
        merge_counter_snapshots(totals, {"CacheAccess": {"L1D": 3, "L2C": 1}})
        merge_counter_snapshots(totals, None)
        assert totals == {"CacheAccess": {"L1D": 5, "L2C": 1}}


class RecordingPrefetcher(Prefetcher):
    """Captures every feedback hook the bridge forwards."""

    name = "recording"

    def __init__(self):
        self.calls = []

    def on_access(self, pc, address, cycle, l1_hit, view):
        return []

    def on_evict(self, address):
        self.calls.append(("evict", address))

    def on_prefetch_useful(self, address, level):
        self.calls.append(("useful", address, level))

    def on_prefetch_useless(self, address, level):
        self.calls.append(("useless", address, level))

    def on_prefetch_fill(self, address, level):
        self.calls.append(("fill", address, level))


class TestPrefetcherBridge:
    def build(self):
        pf = RecordingPrefetcher()
        return Hierarchy.build(SystemConfig.default(), pf), pf

    def test_on_evict_fires_for_l1d_victims_only(self):
        h, pf = self.build()
        h.bus.publish(Eviction(FillLevel.L2C, 5, False, False, 0.0))
        h.bus.publish(Eviction(FillLevel.LLC, 6, False, False, 0.0))
        assert pf.calls == []
        h.bus.publish(Eviction(FillLevel.L1D, 7, False, False, 0.0))
        assert pf.calls == [("evict", 7 << 6)]

    def test_flush_useless_not_forwarded(self):
        h, pf = self.build()
        h.bus.publish(PrefetchUseless(FillLevel.L1D, 5, "flushed", 0.0))
        assert pf.calls == []
        h.bus.publish(PrefetchUseless(FillLevel.L1D, 5, "evicted", 0.0))
        assert pf.calls == [("useless", 5 << 6, FillLevel.L1D)]

    def test_useful_forwarded_with_address(self):
        h, pf = self.build()
        h.bus.publish(PrefetchUseful(FillLevel.L2C, 5, 0x1234, False, 0.0))
        assert pf.calls == [("useful", 0x1234, FillLevel.L2C)]


def level_rig(ways=2, sets=2):
    """A lone L1D-style CacheLevel wired to a bus with a stats observer."""
    bus = EventBus()
    params = CacheParams(size_bytes=64 * ways * sets, ways=ways,
                         hit_latency=1, mshr_entries=4, pq_entries=4)
    level = CacheLevel(FillLevel.L1D, Cache(params), bus,
                       Dram(SystemConfig.default().dram))
    stats = level.storage.stats
    LevelStatsObserver(bus, {FillLevel.L1D: stats})
    return level, stats


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                          st.integers(min_value=0, max_value=30)),
                min_size=1, max_size=200))
def test_accounting_identity(ops):
    """Every prefetch fill resolves exactly once: useful or useless."""
    level, stats = level_rig()
    for i, (op, line) in enumerate(ops):
        cycle = float(i)
        if op == 0:
            level.apply_fill(line, cycle, prefetched=True)
        elif op == 1:
            level.apply_fill(line, cycle)
        else:
            level.lookup(MemTransaction(address=line << 6, line=line), cycle)
    level.flush_prefetch_accounting()
    assert stats.prefetch_fills == (stats.useful_prefetches +
                                    stats.useless_prefetches)
    assert stats.demand_hits + stats.demand_misses == stats.demand_accesses
