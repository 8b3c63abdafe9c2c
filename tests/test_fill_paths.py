"""Remaining hierarchy/cache edge cases: write hits, probe semantics,
merge double-count protection, view cycle handling."""

from repro.prefetchers.base import FillLevel, NoPrefetcher, PrefetchRequest
from repro.sim.cache import DIRTY, PREFETCHED
from repro.sim.hierarchy import Hierarchy
from repro.sim.params import SystemConfig

ADDR = 0xB000_0000


def build():
    return Hierarchy.build(SystemConfig.default(), NoPrefetcher())


class TestWritePath:
    def test_write_miss_fills_dirty(self):
        h = build()
        latency, _ = h.demand_access(ADDR, 0.0, is_write=True)
        h._sync(latency + 1)
        assert h.l1d.probe(ADDR >> 6) & DIRTY

    def test_write_hit_marks_dirty(self):
        line = ADDR >> 6
        for prefetched in (False, True):
            h = build()
            if prefetched:
                h.issue_prefetch(PrefetchRequest(ADDR, FillLevel.L1D), 0.0)
            else:
                h.demand_access(ADDR, 0.0)
            h._sync(1e6)
            assert h.l1d.probe(line) == (PREFETCHED if prefetched else 0)
            # A younger line in the same set, so the hit has recency to move.
            h.l1d.fill_now(line + h.l1d.num_sets, 1e6)
            h.demand_access(ADDR, 1e6 + 1, is_write=True)
            # Dirty, MRU, and a prefetched bit is consumed exactly once.
            assert h.l1d.probe(line) == DIRTY
            assert list(h.l1d._sets[line % h.l1d.num_sets])[-1] == line
            assert h.l1d.stats.useful_prefetches == int(prefetched)

    def test_store_merging_with_inflight_l1_miss_fills_dirty(self):
        h = build()
        latency, _ = h.demand_access(ADDR, 0.0)
        h.demand_access(ADDR, 5.0, is_write=True)   # merges at L1
        h._sync(latency + 1)
        assert h.l1d.probe(ADDR >> 6) == DIRTY

    def test_store_merging_with_inflight_l1_prefetch_fills_dirty(self):
        h = build()
        h.issue_prefetch(PrefetchRequest(ADDR, FillLevel.L1D), 0.0)
        h.demand_access(ADDR, 5.0, is_write=True)   # late useful, merges
        h._sync(1e6)
        # Demoted to a demand fill, and the store's dirty bit survives.
        assert h.l1d.probe(ADDR >> 6) == DIRTY
        assert h.l1d.stats.useful_prefetches == 1


class TestProbeSemantics:
    def test_probe_does_not_touch_lru_or_stats(self):
        h = build()
        latency, _ = h.demand_access(ADDR, 0.0)
        h._sync(latency + 1)
        accesses_before = h.l1d.stats.demand_accesses
        h.l1d.probe(ADDR >> 6)
        assert h.l1d.stats.demand_accesses == accesses_before


class TestMergeAccounting:
    def test_two_demands_on_one_inflight_prefetch_count_one_useful(self):
        h = build()
        h.issue_prefetch(PrefetchRequest(ADDR, FillLevel.L1D), 0.0)
        h.demand_access(ADDR, 5.0)    # merge 1: useful + late
        h.demand_access(ADDR, 10.0)   # merge 2: plain merge
        h.flush_accounting()
        assert h.l1d.stats.useful_prefetches == 1

    def test_prefetch_into_llc_then_demand_counts_llc_useful(self):
        h = build()
        h.issue_prefetch(PrefetchRequest(ADDR, FillLevel.LLC), 0.0)
        h._sync(1e6)
        h.demand_access(ADDR, 1e6 + 1)
        assert h.llc.stats.useful_prefetches == 1
        assert h.l1d.stats.useful_prefetches == 0


class TestViewCycle:
    def test_headroom_reflects_inflight_prefetches(self):
        h = build()
        h.set_view_cycle(0.0)
        before = h.prefetch_headroom(FillLevel.L2C)
        h.issue_prefetch(PrefetchRequest(ADDR, FillLevel.L2C), 0.0)
        after = h.prefetch_headroom(FillLevel.L2C)
        assert after == before - 1

    def test_headroom_recovers_after_pq_drain(self):
        h = build()
        h.set_view_cycle(0.0)
        h.issue_prefetch(PrefetchRequest(ADDR, FillLevel.L2C), 0.0)
        h.set_view_cycle(1e6)
        h._sync(1e6)
        assert h.prefetch_headroom(FillLevel.L2C) >= \
            h.config.l2c.pq_entries - 1


class TestDramSweepKnobs:
    def test_with_dram_rate_scales_service(self):
        fast = SystemConfig.default().with_dram_rate(3200)
        slow = SystemConfig.default().with_dram_rate(800)
        assert slow.dram.service_cycles == 4 * fast.dram.service_cycles

    def test_with_llc_size_grows_sets(self):
        small = SystemConfig.default()
        big = small.with_llc_size(8 * 1024 * 1024)
        assert big.llc.num_sets == 4 * small.llc.num_sets
        assert big.llc.ways == small.llc.ways
