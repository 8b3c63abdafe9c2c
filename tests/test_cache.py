"""Cache storage: LRU, deferred fills, the indexed fill queue, MSHRs, PQs.

Storage is pure mechanics — accounting is applied by bus observers and is
covered in ``test_event_kernel.py``; here we check what the storage
*reports* (hits, consumed prefetch bits, victims) and its queue state.
"""

from hypothesis import given, strategies as st

from repro.sim.cache import DIRTY, PREFETCHED, Cache
from repro.sim.params import CacheParams


def small_cache(ways=2, sets=2, mshr=4, pq=4):
    return Cache(CacheParams(size_bytes=64 * ways * sets, ways=ways,
                             hit_latency=1, mshr_entries=mshr, pq_entries=pq))


class TestLookupAndFill:
    def test_miss_then_hit(self):
        cache = small_cache()
        hit, _ = cache.access(10, 0.0)
        assert not hit
        inserted, _, _ = cache.fill_now(10, 0.0)
        assert inserted
        hit, used_prefetch = cache.access(10, 1.0)
        assert hit and not used_prefetch

    def test_lru_eviction_order(self):
        cache = small_cache(ways=2, sets=1)
        cache.fill_now(0, 0.0)
        cache.fill_now(1, 0.0)
        cache.access(0, 1.0)            # 0 becomes MRU
        _, victim, _ = cache.fill_now(2, 2.0)
        assert victim == 1

    def test_refill_does_not_evict(self):
        cache = small_cache(ways=2, sets=1)
        cache.fill_now(0, 0.0)
        cache.fill_now(1, 0.0)
        inserted, victim, _ = cache.fill_now(0, 1.0)
        assert not inserted and victim is None
        assert cache.resident_lines() == 2

    def test_refill_never_marks_demand_line_as_prefetch(self):
        cache = small_cache()
        cache.fill_now(5, 0.0)
        cache.fill_now(5, 1.0, prefetched=True)
        _, used_prefetch = cache.access(5, 2.0)
        assert not used_prefetch

    def test_write_sets_dirty(self):
        cache = small_cache()
        cache.fill_now(5, 0.0)
        cache.access(5, 1.0, is_write=True)
        assert cache.probe(5) == DIRTY

    def test_prefetch_bit_consumed_once(self):
        cache = small_cache()
        cache.fill_now(3, 0.0, prefetched=True)
        assert cache.access(3, 1.0) == (True, True)
        assert cache.access(3, 2.0) == (True, False)

    def test_victim_entry_reports_state(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill_now(0, 0.0, prefetched=True, is_write=True)
        _, victim, victim_flags = cache.fill_now(1, 1.0)
        assert victim == 0
        assert victim_flags == PREFETCHED | DIRTY

    def test_invalidate_returns_entry(self):
        cache = small_cache()
        cache.fill_now(0, 0.0, prefetched=True)
        assert cache.invalidate(0) == PREFETCHED
        assert cache.invalidate(0) is None
        cache.fill_now(1, 0.0)
        # A clean demand line's flags are 0: present, but falsy.
        assert cache.invalidate(1) == 0

    def test_strip_prefetched_reports_lines(self):
        cache = small_cache(ways=4, sets=1)
        cache.fill_now(0, 0.0, prefetched=True)
        cache.fill_now(1, 0.0, prefetched=True, is_write=True)
        cache.fill_now(2, 0.0)
        cache.access(0, 1.0)            # consumes line 0's bit
        assert cache.strip_prefetched() == [1]
        assert cache.strip_prefetched() == []
        # Clearing a bit keeps the line's flags otherwise and its LRU slot.
        assert list(cache._sets[0].items()) == [(1, DIRTY), (2, 0), (0, 0)]


class TestDeferredFills:
    def test_scheduled_fill_not_resident_until_ready(self):
        cache = small_cache()
        cache.schedule_fill(7, ready=100.0)
        assert not cache.contains(7)
        ready = cache.fills.pop_ready(50.0)
        assert ready == []
        ready = cache.fills.pop_ready(100.0)
        assert ready == [[100.0, 0, 7, False, False, False]]

    def test_fills_pop_in_ready_order(self):
        cache = small_cache()
        cache.schedule_fill(1, ready=30.0)
        cache.schedule_fill(2, ready=10.0)
        cache.schedule_fill(3, ready=20.0)
        lines = [line for _, _, line, *_ in cache.fills.pop_ready(100.0)]
        assert lines == [2, 3, 1]


class TestFillQueueIndex:
    def test_strip_prefetch_flag_is_indexed(self):
        cache = small_cache()
        cache.schedule_fill(1, ready=10.0, prefetched=True)
        cache.schedule_fill(2, ready=20.0, prefetched=True)
        cache.fills.strip_prefetch_flag(1)
        prefetched = {line: flag for _, _, line, flag, _, _
                      in cache.fills.pop_ready(100.0)}
        assert prefetched == {1: False, 2: True}

    def test_strip_unknown_line_is_noop(self):
        cache = small_cache()
        cache.fills.strip_prefetch_flag(42)   # no pending fill: no error
        assert len(cache.fills) == 0

    def test_index_cleared_after_pop(self):
        cache = small_cache()
        cache.schedule_fill(1, ready=10.0, prefetched=True)
        cache.fills.pop_ready(10.0)
        # A stale index entry would flip this later fill's flag too.
        cache.schedule_fill(1, ready=30.0, prefetched=True)
        cache.fills.strip_prefetch_flag(1)
        [(_, _, _, prefetched, _, _)] = cache.fills.pop_ready(30.0)
        assert not prefetched

    def test_duplicate_line_fills_both_stripped(self):
        cache = small_cache()
        cache.fills.push(10.0, 5, True, False)
        cache.fills.push(20.0, 5, True, False)
        cache.fills.strip_prefetch_flag(5)
        assert [fill[3] for fill in cache.fills.pop_ready(100.0)] == [
            False, False]


class TestMSHR:
    def test_allocate_and_pending(self):
        cache = small_cache()
        cache.mshr_allocate(9, 50.0, now=0.0)
        assert cache.mshr_pending(9) == 50.0
        assert cache.mshr_free(0.0) == 3

    def test_prune_releases_completed(self):
        cache = small_cache()
        cache.mshr_allocate(9, 50.0)
        assert cache.mshr_free(60.0) == 4

    def test_prefetch_flag(self):
        cache = small_cache()
        cache.mshr_allocate(9, 50.0, is_prefetch=True)
        assert cache.mshr_is_prefetch(9)
        cache.mshr_allocate(9, 50.0, is_prefetch=False)
        assert not cache.mshr_is_prefetch(9)

    def test_last_mshr_reserved_for_demands(self):
        cache = small_cache(mshr=2)
        cache.mshr_allocate(1, 100.0)
        assert not cache.mshr_has_room_for_prefetch(0.0)
        cache.mshr_release(1)
        assert cache.mshr_has_room_for_prefetch(0.0)

    def test_earliest(self):
        cache = small_cache()
        cache.mshr_allocate(1, 30.0)
        cache.mshr_allocate(2, 20.0)
        assert cache.mshr_earliest() == 20.0


class TestPQ:
    def test_occupancy_and_prune(self):
        cache = small_cache(pq=2)
        cache.pq_push(10.0)
        cache.pq_push(20.0)
        assert cache.pq_free(0.0) == 0
        assert cache.pq_free(15.0) == 1
        assert cache.pq_free(25.0) == 2


@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                max_size=300))
def test_occupancy_never_exceeds_capacity(lines):
    cache = small_cache(ways=3, sets=4)
    for i, line in enumerate(lines):
        cache.fill_now(line, float(i))
        for s in cache._sets:
            assert len(s) <= cache.ways
    assert cache.resident_lines() <= cache.ways * cache.num_sets
