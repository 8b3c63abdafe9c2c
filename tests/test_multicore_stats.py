"""Multicore stats attribution: per-core deltas vs shared hardware totals.

The old multicore driver reset the shared LLC/DRAM counters at every
lane's warmup boundary and then reported the shared totals as each
core's own traffic — per-core numbers neither summed to the hardware
totals nor meant anything individually.  These tests pin the fixed
two-level boundary: every shared-resource increment lands in exactly one
lane's attribution view (LLC mirror, DRAM port), so the per-core results
sum to the shared totals over the common measurement window.
"""

import numpy as np
import pytest

from repro.memtrace.access import MemoryAccess
from repro.memtrace.trace import Trace
from repro.prefetchers.base import NoPrefetcher
from repro.sim.cache import Cache
from repro.sim.dram import Dram
from repro.sim.hierarchy import SharedLLC
from repro.sim.multicore import (
    _lanes,
    _run_lanes,
    _warmup_ends,
    simulate_multicore,
)

from tests.test_invariants import small_config


def make_traces(count, length=700, lines=4096, write_fraction=0.3, seed=17):
    rng = np.random.default_rng(seed)
    traces = []
    for core in range(count):
        trace = Trace(f"mc-{core}")
        for _ in range(length):
            trace.append(MemoryAccess(
                pc=0x400 + core, address=int(rng.integers(0, lines)) * 64,
                is_write=bool(rng.random() < write_fraction),
                gap=int(rng.integers(0, 20))))
        traces.append(trace)
    return traces


def run_keeping_shared(traces, warmup_fraction=0.2, audit=True):
    """``simulate_multicore`` through its own lanes and lane loop, keeping
    the shared LLC/DRAM handles so tests can compare attributed views
    against the hardware totals."""
    config = small_config().for_multicore(len(traces))
    shared = SharedLLC(Cache(config.llc, name="LLC"))
    dram = Dram(config.dram)
    runs = _lanes(traces, NoPrefetcher, config, shared, dram, audit)
    results = _run_lanes(runs, _warmup_ends(traces, warmup_fraction),
                         shared, dram)
    return results, shared, dram


class TestAttributionSumsToSharedTotals:
    def _check_sums(self, results, shared, dram):
        assert sum(r.dram_demand_requests for r in results) == \
            dram.stats.demand_requests
        assert sum(r.dram_writeback_requests for r in results) == \
            dram.stats.writeback_requests
        llc = shared.cache.stats
        for field in ("demand_accesses", "demand_hits", "demand_misses",
                      "prefetch_fills", "useful_prefetches"):
            assert sum(getattr(r.levels["llc"], field) for r in results) == \
                getattr(llc, field), field

    def test_homogeneous_warmup(self):
        results, shared, dram = run_keeping_shared(make_traces(4))
        assert dram.stats.demand_requests > 0
        assert dram.stats.writeback_requests > 0
        self._check_sums(results, shared, dram)

    def test_heterogeneous_warmup(self):
        # Lanes cross their warmup boundaries at very different points;
        # the shared counters still reset exactly once (when the slowest
        # lane crosses), so the sum property must survive.
        results, shared, dram = run_keeping_shared(
            make_traces(4), warmup_fraction=[0.0, 0.2, 0.5, 0.8])
        self._check_sums(results, shared, dram)

    def test_every_core_reports_its_own_traffic(self):
        # Before the fix each lane reported the *shared* totals: all
        # cores showed identical (and 4x inflated) DRAM traffic.
        results, shared, dram = run_keeping_shared(make_traces(4))
        demands = [r.dram_demand_requests for r in results]
        assert all(0 < d < dram.stats.demand_requests for d in demands)


class TestWarmupFractions:
    def test_mismatched_fraction_list_raises(self):
        with pytest.raises(ValueError):
            simulate_multicore(make_traces(3), warmup_fraction=[0.2, 0.5])

    def test_fraction_outside_unit_interval_raises(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            simulate_multicore(make_traces(2), warmup_fraction=[0.2, 1.0])

    def test_zero_warmup_measures_whole_trace(self):
        traces = make_traces(2, length=300)
        results = simulate_multicore(traces, warmup_fraction=0.0,
                                     check_invariants=True)
        for trace, result in zip(traces, results):
            assert result.levels["l1d"].demand_accesses == len(trace)

    def test_heterogeneous_fractions_scale_measured_windows(self):
        traces = make_traces(2, length=400)
        results = simulate_multicore(traces, warmup_fraction=[0.0, 0.5],
                                     check_invariants=True)
        assert results[0].levels["l1d"].demand_accesses == 400
        assert results[1].levels["l1d"].demand_accesses == 200


def test_audited_multicore_matches_unaudited():
    """The cross-wired per-lane auditors are pure observation."""
    traces = make_traces(3, length=400)
    plain = simulate_multicore(traces, check_invariants=False)
    audited = simulate_multicore(traces, check_invariants=True)
    assert plain == audited
