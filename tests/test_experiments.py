"""Experiment harness plumbing on tiny traces (fast)."""

import pytest

from repro.experiments.ablations import (
    design_b_sweep,
    extraction_sweep,
    sweep_report,
)
from repro.experiments.multi_core import (
    TABLE_VII_MIXES,
    build_heterogeneous_mixes,
)
from repro.experiments.report import format_percent, format_series, format_table
from repro.experiments.runner import SuiteRunner
from repro.experiments.single_core import run_single_core
from repro.memtrace.workloads import quick_suite


@pytest.fixture(scope="module")
def tiny_runner():
    return SuiteRunner(specs=quick_suite()[:2], accesses=6_000)


class TestSuiteRunner:
    def test_traces_built_once(self, tiny_runner):
        first = tiny_runner.traces
        assert tiny_runner.traces is first

    def test_baselines_cached_per_config(self, tiny_runner):
        """A second call is answered from the engine's kept payloads:
        nothing simulates, and each result is an equal, fresh copy."""
        a = tiny_runner.baselines()
        counters = tiny_runner.engine.counters
        simulated, reused = counters.simulated, counters.reused
        b = tiny_runner.baselines()
        assert counters.simulated == simulated
        assert counters.reused == reused + len(b)
        assert b == a and b[0] is not a[0]

    def test_geomean_nipc_positive(self, tiny_runner):
        from repro.prefetchers import PMP
        value = tiny_runner.geomean_nipc(PMP)
        assert 0.5 < value < 3.0


class TestSingleCore:
    def test_populates_all_metrics(self, tiny_runner):
        results = run_single_core(tiny_runner)
        from repro.prefetchers import COMPETITORS
        assert set(results.nipc) == set(COMPETITORS)
        assert {"dspatch", "bingo", "spp+ppf", "pythia", "pmp",
                "pangloss", "gaze", "triangel", "hybrid"} <= set(results.nipc)
        for name in results.nipc:
            assert set(results.coverage[name]) == {"l1d", "l2c", "llc"}
            assert 0 <= results.accuracy[name]["l1d"] <= 1
        report = results.fig8_report()
        assert "pmp" in report

    def test_reports_render(self, tiny_runner):
        results = run_single_core(tiny_runner)
        for text in (results.fig9_report(), results.fig10_report(),
                     results.nmt_report()):
            assert isinstance(text, str) and text


class TestAblations:
    def test_extraction_sweep_covers_schemes(self, tiny_runner):
        sweep = extraction_sweep(tiny_runner)
        assert [knob for knob, _ in sweep] == ["afe", "ane", "are"]

    def test_design_b_sweep_appends_pmp(self, tiny_runner):
        sweep = design_b_sweep(tiny_runner, ways=(8, 32))
        assert sweep[-1][0] == "pmp"
        assert len(sweep) == 3

    def test_sweep_report_renders(self):
        text = sweep_report("t", "k", [(1, 1.0), (2, 1.1)])
        assert "t" in text and "k" in text


class TestMulticoreMixes:
    def test_table_vii_has_six_mix_kinds(self):
        assert len(TABLE_VII_MIXES) == 6

    def test_mixes_have_four_traces(self):
        mixes = build_heterogeneous_mixes(quick_suite()[:4])
        assert len(mixes) == 6
        assert all(len(specs) == 4 for _, specs in mixes)

    def test_mixes_deterministic(self):
        a = build_heterogeneous_mixes(quick_suite()[:4], seed=1)
        b = build_heterogeneous_mixes(quick_suite()[:4], seed=1)
        assert [[s.name for s in specs] for _, specs in a] == \
            [[s.name for s in specs] for _, specs in b]


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbbb"], [["x", 1.23456], ["yy", 2.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.235" in text

    def test_format_series(self):
        assert format_series("s", [(1, 1.0)]) == "s: 1=1.000"

    def test_format_percent(self):
        assert format_percent(0.1234) == "12.3%"


class TestFamilyBreakdown:
    def test_families_present_and_positive(self, tiny_runner):
        from repro.experiments.single_core import family_breakdown, family_report
        breakdown = family_breakdown(tiny_runner)
        expected = {spec.family for spec in tiny_runner.specs}
        assert set(breakdown) == expected
        assert all(value > 0 for value in breakdown.values())
        assert "family" in family_report(breakdown)


class TestDepthReport:
    def test_prefetch_depth_report_renders(self, tiny_runner):
        from repro.experiments.single_core import prefetch_depth_report
        text = prefetch_depth_report(tiny_runner)
        assert "prefetches/trace" in text
        assert "pmp" in text


class TestEventCounterReport:
    def test_renders_rows_sorted(self):
        from repro.experiments.report import event_counter_report
        out = event_counter_report({"Eviction": {"L2C": 2, "L1D": 1},
                                    "CacheAccess": {"L1D": 5}})
        lines = out.splitlines()
        assert "event" in lines[1] and "component" in lines[1]
        body = lines[3:]
        assert body[0].startswith("CacheAccess")
        assert "L1D" in body[1] and "L2C" in body[2]

    def test_empty_totals(self):
        from repro.experiments.report import event_counter_report
        assert "no events" in event_counter_report({})
