"""Extensions: bandwidth-adaptive PMP and the oracle upper bound."""

import numpy as np
import pytest

from repro.memtrace import synthetic as syn
from repro.memtrace.trace import Trace
from repro.prefetchers.base import FillLevel, NullSystemView
from repro.prefetchers.extensions import BandwidthAdaptivePMP, OraclePrefetcher
from repro.prefetchers.pmp import PMP
from repro.sim.engine import simulate
from repro.sim.params import SystemConfig


class _BusyView(NullSystemView):
    def __init__(self, utilization):
        self.utilization = utilization

    def dram_utilization(self):
        return self.utilization


def _teach(pmp, regions=14):
    base = 0x9000_0000
    for i in range(regions):
        region = base + i * 4096
        pmp.on_access(0x400, region, 0.0, False, NullSystemView())
        for offset in (2, 3, 9):
            pmp.on_access(0x400, region + offset * 64, 0.0, False,
                          NullSystemView())
        pmp.on_evict(region)
    return base + 10_000 * 4096


class TestBandwidthAdaptivePMP:
    def test_idle_channel_behaves_like_pmp(self):
        adaptive = BandwidthAdaptivePMP()
        fresh = _teach(adaptive)
        requests = adaptive.on_access(0x400, fresh, 0.0, False, _BusyView(0.0))
        plain = PMP()
        fresh2 = _teach(plain)
        baseline_requests = plain.on_access(0x400, fresh2, 0.0, False,
                                            NullSystemView())
        assert len(requests) == len(baseline_requests)

    def test_saturated_channel_keeps_only_l1d(self):
        adaptive = BandwidthAdaptivePMP()
        fresh = _teach(adaptive)
        requests = adaptive.on_access(0x400, fresh, 0.0, False, _BusyView(0.95))
        assert all(r.level == FillLevel.L1D for r in requests)

    def test_mid_utilization_drops_llc_only(self):
        adaptive = BandwidthAdaptivePMP()
        fresh = _teach(adaptive)
        requests = adaptive.on_access(0x400, fresh, 0.0, False, _BusyView(0.4))
        assert all(r.level != FillLevel.LLC for r in requests)

    def test_invalid_watermarks_rejected(self):
        with pytest.raises(ValueError):
            BandwidthAdaptivePMP(low_watermark=0.8, high_watermark=0.2)

    def test_helps_at_low_bandwidth(self):
        """The extension's purpose: close PMP's Fig 12a gap at 800 MT/s."""
        rng = np.random.default_rng(3)
        trace = Trace.from_arrays("mix", syn.compose(rng, [
            (syn.pattern_replay, {"segment": 4}, 0.5),
            (syn.neighborhood_walk, {"segment": 3}, 0.3),
            (syn.pointer_chase, {"segment": 5}, 0.2),
        ], 12_000))
        slow = SystemConfig.default().with_dram_rate(800)
        plain = simulate(trace, PMP(), slow)
        adaptive = simulate(trace, BandwidthAdaptivePMP(), slow)
        assert adaptive.dram_prefetch_requests <= plain.dram_prefetch_requests
        assert adaptive.ipc >= plain.ipc * 0.97


class TestOracle:
    def _trace(self, n=3000):
        return Trace.from_arrays("s", syn.stream(np.random.default_rng(0), n))

    def test_prefetches_actual_future(self):
        trace = self._trace(50)
        oracle = OraclePrefetcher(trace, depth=3, lead=1)
        requests = oracle.on_access(trace[0].pc, trace[0].address, 0.0,
                                    False, NullSystemView())
        future = {a.address >> 6 for a in trace.accesses[1:5]}
        assert all(r.address >> 6 in future for r in requests)

    def test_never_prefetches_current_line(self):
        trace = self._trace(50)
        oracle = OraclePrefetcher(trace, depth=4, lead=0)
        requests = oracle.on_access(trace[0].pc, trace[0].address, 0.0,
                                    False, NullSystemView())
        assert all(r.address >> 6 != trace[0].address >> 6 for r in requests)

    def test_upper_bounds_pmp(self):
        trace = self._trace(6000)
        baseline = simulate(trace)
        oracle = simulate(trace, OraclePrefetcher(trace, depth=16, lead=8))
        pmp = simulate(trace, PMP())
        assert oracle.nipc(baseline) >= pmp.nipc(baseline) - 0.02
        assert oracle.accuracy("l1d") > 0.9

    def test_end_of_trace_handled(self):
        trace = self._trace(5)
        oracle = OraclePrefetcher(trace, depth=8, lead=2)
        for access in trace.accesses:
            oracle.on_access(access.pc, access.address, 0.0, False,
                             NullSystemView())  # must not raise
