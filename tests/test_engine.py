"""Single-core engine: warmup, stats, prefetcher wiring."""

import numpy as np
import pytest

from repro.memtrace import synthetic as syn
from repro.memtrace.access import MemoryAccess
from repro.memtrace.trace import Trace
from repro.prefetchers import PMP, NextLine
from repro.sim.engine import simulate
from repro.sim.params import SystemConfig


def stream_trace(n=4000):
    return Trace.from_arrays("stream", syn.stream(np.random.default_rng(0), n))


class TestSimulate:
    def test_returns_populated_result(self):
        result = simulate(stream_trace(2000))
        assert result.instructions > 0
        assert result.cycles > 0
        assert 0 < result.ipc <= 4.0
        assert set(result.levels) == {"l1d", "l2c", "llc"}

    def test_warmup_excluded_from_stats(self):
        trace = stream_trace(2000)
        full = simulate(trace, warmup_fraction=0.0)
        warm = simulate(trace, warmup_fraction=0.5)
        assert warm.levels["l1d"].demand_accesses < full.levels["l1d"].demand_accesses

    @pytest.mark.parametrize("fraction", [1.5, 1.0, -0.5, float("nan")])
    def test_warmup_outside_unit_interval_raises(self, fraction):
        # Such a boundary is never reached, so the run would quietly
        # measure its cold start.
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            simulate(stream_trace(200), warmup_fraction=fraction)

    def test_deterministic(self):
        trace = stream_trace(2000)
        a = simulate(trace, PMP())
        b = simulate(trace, PMP())
        assert a.ipc == b.ipc
        assert a.dram_requests == b.dram_requests

    def test_prefetcher_changes_outcome(self):
        # A shallow next-line prefetcher on a fast stream is always late:
        # demands merge with the in-flight prefetch (useful but tardy),
        # which shortens latency without converting the miss.
        trace = stream_trace(4000)
        base = simulate(trace)
        pf = simulate(trace, NextLine(degree=2))
        assert sum(pf.issued_prefetches.values()) > 0
        assert pf.levels["l1d"].useful_prefetches > 0
        assert pf.cycles < base.cycles

    def test_accurate_prefetching_improves_ipc(self):
        trace = stream_trace(8000)
        base = simulate(trace)
        pmp = simulate(trace, PMP())
        assert pmp.nipc(base) > 1.02

    def test_gap_instructions_counted(self):
        trace = Trace("gaps")
        trace.append(MemoryAccess(pc=1, address=0x1000, gap=99))
        result = simulate(trace, warmup_fraction=0.0)
        assert result.instructions == 100


class TestConfigKnobs:
    def test_low_bandwidth_hurts(self):
        trace = stream_trace(4000)
        fast = simulate(trace, config=SystemConfig.default().with_dram_rate(3200))
        slow = simulate(trace, config=SystemConfig.default().with_dram_rate(800))
        assert slow.ipc < fast.ipc

    def test_bigger_llc_never_hurts_misses(self):
        rng = np.random.default_rng(1)
        trace = Trace.from_arrays(
            "chase", syn.pointer_chase(rng, 6000, working_lines=1 << 16))
        small = simulate(trace, config=SystemConfig.default())
        big = simulate(trace,
                       config=SystemConfig.default().with_llc_size(8 << 20))
        assert big.levels["llc"].demand_misses <= small.levels["llc"].demand_misses
