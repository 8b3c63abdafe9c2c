"""Integration tests asserting the paper's qualitative results at small scale.

These are the reproduction's acceptance tests: each asserts a *shape* from
the paper's evaluation (who wins, directionality of a sweep), not absolute
numbers.  They use a reduced suite/trace length, so thresholds are
deliberately loose; the benchmark harness reruns the same experiments at
larger scale and records measured-vs-paper in EXPERIMENTS.md.
"""

import pytest

from repro.experiments.runner import SuiteRunner
from repro.memtrace.workloads import quick_suite
from repro.prefetchers import PMP, Bingo, DesignB, DSPatch
from repro.prefetchers.pmp import PMPConfig
from repro.sim.params import SystemConfig


@pytest.fixture(scope="module")
def runner():
    # The engine runs each job key once, so each test reuses the
    # simulations an earlier test already ran (the baselines, default
    # PMP, Bingo, DSPatch, DesignB(8)).
    return SuiteRunner(specs=quick_suite()[:4], accesses=12_000)


@pytest.fixture(scope="module")
def pmp_nipc(runner):
    return runner.geomean_nipc(PMP)


class TestHeadline:
    def test_pmp_beats_baseline(self, pmp_nipc):
        """Fig 8: PMP improves on the non-prefetching baseline."""
        assert pmp_nipc > 1.05

    def test_pmp_beats_dspatch_by_a_wide_margin(self, runner, pmp_nipc):
        """Fig 8: DSPatch's OR/AND merging is far behind (paper: 41.3%)."""
        dspatch = runner.geomean_nipc(DSPatch)
        assert pmp_nipc > dspatch + 0.05

    def test_pmp_at_least_matches_bingo(self, runner, pmp_nipc):
        """Fig 8: PMP edges enhanced Bingo (paper: +2.6%) at 30x less
        storage; at small scale we accept a tie."""
        bingo = runner.geomean_nipc(Bingo)
        assert pmp_nipc > bingo - 0.01

    def test_pmp_has_highest_memory_traffic(self, runner):
        """Section V-D: PMP's aggressive policy produces the highest NMT."""
        baselines = runner.baselines()
        def mean_nmt(factory):
            results = runner.run(factory)
            return sum(r.nmt(b) for r, b in zip(results, baselines)) / len(results)
        assert mean_nmt(PMP) > mean_nmt(Bingo)
        assert mean_nmt(PMP) > mean_nmt(DSPatch)


class TestExtraction:
    def test_are_collapses(self, runner, pmp_nipc):
        """Section V-E2: ARE loses stream patterns and most of the gain."""
        are = runner.geomean_nipc(lambda: PMP(PMPConfig(extraction="are")))
        assert are < pmp_nipc - 0.03
        assert are < 1.1

    def test_ane_is_competitive(self, runner, pmp_nipc):
        """Section V-E2: ANE lands close to AFE (paper: -2.9%)."""
        ane = runner.geomean_nipc(lambda: PMP(PMPConfig(extraction="ane")))
        assert abs(ane - pmp_nipc) < 0.08


class TestDesignB:
    def test_pmp_beats_design_b_at_every_associativity(self, runner, pmp_nipc):
        """Table VIII: even 512 ways of exact-match storage lose to
        counter-vector merging (paper: PMP +34.9% over 512 ways)."""
        for ways in (8, 512):
            design_b = runner.geomean_nipc(lambda w=ways: DesignB(w))
            assert pmp_nipc > design_b

    def test_design_b_improves_with_ways(self, runner):
        few = runner.geomean_nipc(lambda: DesignB(8))
        many = runner.geomean_nipc(lambda: DesignB(128))
        assert many >= few - 0.01


class TestParameterTrends:
    def test_counter_size_trend(self, runner):
        """Table X: tiny counters lose history and performance."""
        small = runner.geomean_nipc(lambda: PMP(PMPConfig(opt_counter_bits=2)))
        default = runner.geomean_nipc(PMP)
        assert default > small

    def test_pattern_length_trend(self, runner):
        """Table IX: shorter patterns (smaller regions) perform worse."""
        full = runner.geomean_nipc(PMP)
        short = runner.geomean_nipc(lambda: PMP(PMPConfig(region_bytes=1024)))
        assert full > short - 0.01

    def test_pmp_limit_cuts_traffic(self, runner):
        """Section V-D: degree-1 low-level prefetching lowers NMT."""
        baselines = runner.baselines()
        full = runner.run(PMP)
        limited = runner.run(lambda: PMP(PMPConfig().limited(1)))
        nmt_full = sum(r.nmt(b) for r, b in zip(full, baselines))
        nmt_limited = sum(r.nmt(b) for r, b in zip(limited, baselines))
        assert nmt_limited < nmt_full


class TestBandwidth:
    def test_pmp_gain_shrinks_at_low_bandwidth(self):
        """Fig 12a: at 800 MT/s PMP's advantage largely evaporates."""
        runner = SuiteRunner(specs=quick_suite()[:2], accesses=10_000)
        fast = SystemConfig.default().with_dram_rate(3200)
        slow = SystemConfig.default().with_dram_rate(800)
        gain_fast = runner.geomean_nipc(PMP, fast)
        gain_slow = runner.geomean_nipc(PMP, slow)
        assert gain_fast > gain_slow
