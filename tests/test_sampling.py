"""The sampling subsystem: signatures, clustering, plans, engine, CLI.

Fidelity *numbers* (<=2% NIPC error at <=25% executed on the golden
traces) are gated by CI's sampling-fidelity job via ``pmp-repro sample
validate`` at the calibration scale — too slow for the unit suite.
This file pins the mechanisms: signature shape, greedy-leader
determinism (hypothesis: seed- and order-robustness), plan geometry,
extrapolation bookkeeping, cache-key salting, serial-vs-parallel
identity, and the CLI's exit-code contract.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.memtrace.workloads import quick_suite
from repro.prefetchers.base import NoPrefetcher
from repro.prefetchers.pmp import make_pmp
from repro.sampling import (
    SamplingConfig,
    build_plan,
    cluster_windows,
    simulate_sampled,
    window_signatures,
)
from repro.sampling.cli import sample_main
from repro.sampling.config import MIN_WINDOW
from repro.sampling.signature import SIGNATURE_DIM
from repro.sim.engine import simulate

ACCESSES = 6_000

SMALL = SamplingConfig(windows=12, warmup_windows=1, max_clusters=4)


@pytest.fixture(scope="module")
def trace():
    """One real suite trace, big enough to window at unit-test scale."""
    return quick_suite()[0].build(ACCESSES)


# -------------------------------------------------------------- signatures

class TestSignatures:
    def test_shape_and_determinism(self, trace):
        bounds = ((1000, 2000), (2000, 3000), (3000, 4000))
        first = window_signatures(trace, bounds)
        second = window_signatures(trace, bounds)
        assert first.shape == (3, SIGNATURE_DIM)
        assert np.array_equal(first, second)
        assert np.isfinite(first).all()

    def test_identical_windows_get_identical_signatures(self, trace):
        bounds = ((1000, 2000), (1000, 2000))
        sigs = window_signatures(trace, bounds)
        assert np.array_equal(sigs[0], sigs[1])


# -------------------------------------------------------------- clustering

signatures_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 24), st.just(SIGNATURE_DIM)),
    elements=st.floats(0.0, 1.0, allow_nan=False))


class TestClustering:
    def test_huge_threshold_collapses_to_one_cluster(self):
        sigs = np.random.default_rng(7).random((10, SIGNATURE_DIM))
        clustering = cluster_windows(sigs, threshold=1e9, max_clusters=8)
        assert clustering.clusters == 1
        assert set(clustering.assignment) == {0}

    def test_max_clusters_caps_the_representative_count(self):
        sigs = np.eye(6, SIGNATURE_DIM)  # 6 mutually distant windows
        clustering = cluster_windows(sigs, threshold=0.1, max_clusters=3)
        assert clustering.clusters == 3

    def test_degenerate_inputs_are_rejected(self):
        sigs = np.zeros((2, SIGNATURE_DIM))
        with pytest.raises(ValueError):
            cluster_windows(np.zeros((0, SIGNATURE_DIM)),
                            threshold=0.1, max_clusters=2)
        with pytest.raises(ValueError):
            cluster_windows(sigs, threshold=0.0, max_clusters=2)
        with pytest.raises(ValueError):
            cluster_windows(sigs, threshold=0.1, max_clusters=0)

    @settings(max_examples=40, deadline=None)
    @given(sigs=signatures_arrays, threshold=st.floats(0.01, 4.0),
           max_clusters=st.integers(1, 6))
    def test_invariants_hold_for_any_signatures(self, sigs, threshold,
                                                max_clusters):
        clustering = cluster_windows(sigs, threshold=threshold,
                                     max_clusters=max_clusters)
        assert len(clustering.assignment) == len(sigs)
        assert 1 <= clustering.clusters <= max_clusters
        assert clustering.assignment[0] == 0
        for cluster, rep in enumerate(clustering.representatives):
            assert clustering.assignment[rep] == cluster
            assert clustering.dispersions[cluster] >= 0.0

    @settings(max_examples=40, deadline=None)
    @given(sigs=signatures_arrays, threshold=st.floats(0.01, 4.0),
           max_clusters=st.integers(1, 6))
    def test_reclustering_is_bit_identical(self, sigs, threshold,
                                           max_clusters):
        # No RNG, no dict-order sensitivity: the same signatures always
        # produce the same clustering, so sampled runs are reproducible
        # across processes and worker counts.
        first = cluster_windows(sigs, threshold=threshold,
                                max_clusters=max_clusters)
        second = cluster_windows(sigs.copy(), threshold=threshold,
                                 max_clusters=max_clusters)
        assert first == second


# ------------------------------------------------------------------- plans

class TestPlan:
    def test_windows_tile_the_measured_region(self, trace):
        plan = build_plan(trace, 0.2, SMALL)
        assert plan.fallback is None
        assert plan.bounds[0][0] == plan.warmup_end
        assert plan.bounds[-1][1] == len(trace)
        for (_, end), (start, _) in zip(plan.bounds, plan.bounds[1:]):
            assert end == start

    def test_weights_account_for_every_measured_access(self, trace):
        plan = build_plan(trace, 0.2, SMALL)
        assert sum(rep.weight for rep in plan.representatives) == \
            plan.measured

    def test_prefix_start_is_clamped_to_the_trace_head(self, trace):
        config = SamplingConfig(windows=12, warmup_windows=10**6)
        plan = build_plan(trace, 0.0, config)
        assert all(rep.prefix_start == 0 for rep in plan.representatives)

    def test_tiny_traces_fall_back(self):
        trace = quick_suite()[0].build(MIN_WINDOW)
        plan = build_plan(trace, 0.2, SamplingConfig())
        assert plan.fallback is not None
        assert plan.representatives == ()

    def test_invalid_config_is_rejected_at_construction(self):
        with pytest.raises(ValueError):
            SamplingConfig(windows=1)
        with pytest.raises(ValueError):
            SamplingConfig(threshold=0.0)
        with pytest.raises(ValueError):
            SamplingConfig(warmup_windows=-1)


# ------------------------------------------------------------------ engine

class TestSampledSimulate:
    def test_sampled_run_is_deterministic(self, trace):
        first = simulate(trace, make_pmp(), sampling=SMALL)
        second = simulate(trace, make_pmp(), sampling=SMALL)
        assert first.to_dict() == second.to_dict()

    def test_estimate_carries_plan_provenance(self, trace):
        result = simulate(trace, make_pmp(), sampling=SMALL)
        info = result.sampling
        assert info is not None and "fallback" not in info
        assert 0.0 < info["fraction_simulated"] < 1.0
        assert info["clusters"] <= SMALL.max_clusters
        assert info["total_accesses"] == len(trace)
        assert set(info["error_bars"]) == {
            "relative", "ipc", "dram_requests", "l1d_demand_misses"}
        assert result.instructions > 0 and result.cycles > 0

    def test_sampled_estimate_lands_near_the_full_run(self, trace):
        # Coarse accuracy floor at unit scale; the tight 2% bound runs
        # at calibration scale in CI's sampling-fidelity job.
        full_base = simulate(trace, NoPrefetcher())
        full_pf = simulate(trace, make_pmp())
        est_base = simulate(trace, NoPrefetcher(), sampling=SMALL)
        est_pf = simulate(trace, make_pmp(), sampling=SMALL)
        full_nipc = full_pf.nipc(full_base)
        est_nipc = est_pf.nipc(est_base)
        assert est_nipc == pytest.approx(full_nipc, rel=0.25)

    def test_fastpath_and_event_kernel_sampled_runs_agree(self, trace):
        fast = simulate(trace, make_pmp(), sampling=SMALL, fastpath=True)
        slow = simulate(trace, make_pmp(), sampling=SMALL, fastpath=False)
        assert fast.to_dict() == slow.to_dict()

    def test_unsampled_results_are_untouched(self, trace):
        exact = simulate(trace, make_pmp())
        assert exact.sampling is None
        assert "sampling" not in exact.to_dict()
        disabled = simulate(trace, make_pmp(), sampling=None)
        assert disabled.to_dict() == exact.to_dict()

    def test_tiny_trace_falls_back_to_the_exact_result(self):
        tiny = quick_suite()[0].build(100)
        sampled = simulate(tiny, make_pmp(), sampling=SamplingConfig())
        exact = simulate(tiny, make_pmp())
        assert sampled.sampling["fallback"]
        data = sampled.to_dict()
        del data["sampling"]
        assert data == exact.to_dict()

    def test_simulate_sampled_defaults_mirror_simulate(self, trace):
        via_engine = simulate(trace, make_pmp(), sampling=SMALL)
        direct = simulate_sampled(trace, make_pmp(), sampling=SMALL)
        assert via_engine.to_dict() == direct.to_dict()


# ----------------------------------------------------- runner integration

class TestRunnerIntegration:
    def test_sampling_salts_the_job_key(self, trace):
        from repro.experiments.engine import SimJob
        exact = SimJob(trace, make_pmp(), _config())
        sampled = SimJob(trace, make_pmp(), _config(), sampling=SMALL)
        disabled = SimJob(trace, make_pmp(), _config(), sampling=None)
        other = SimJob(trace, make_pmp(), _config(),
                       sampling=SamplingConfig(windows=13, warmup_windows=1,
                                               max_clusters=4))
        assert exact.key() == disabled.key()
        assert sampled.key() != exact.key()
        assert sampled.key() != other.key()

    def test_parallel_sampled_runs_match_serial(self):
        from repro.experiments.runner import SuiteRunner
        specs = quick_suite()[:2]
        serial = SuiteRunner(specs=specs, accesses=2_000,
                             sampling=SMALL).run(make_pmp)
        parallel = SuiteRunner(specs=specs, accesses=2_000, workers=2,
                               sampling=SMALL).run(make_pmp)
        assert [r.to_dict() for r in serial] == \
            [r.to_dict() for r in parallel]
        assert all(r.sampling is not None for r in serial)

    def test_sampled_manifest_records_the_config(self, tmp_path):
        from repro.experiments.runner import SuiteRunner
        runner = SuiteRunner(specs=quick_suite()[:1], accesses=2_000,
                             sampling=SMALL)
        runner.run(NoPrefetcher)
        manifest = runner.write_manifest("unit", tmp_path)
        import json
        data = json.loads(manifest.read_text())
        assert data["extra"]["sampling"] == SMALL.to_dict()


def _config():
    from repro.sim.params import SystemConfig
    return SystemConfig.default()


# --------------------------------------------------------------------- CLI

class TestSampleCli:
    def test_plan_prints_the_cluster_table(self, capsys):
        assert sample_main(["plan", "--trace", "spec06-00",
                            "--accesses", str(ACCESSES),
                            "--windows", "12"]) == 0
        out = capsys.readouterr().out
        assert "sampling plan" in out and "cluster 0:" in out

    def test_unknown_trace_is_a_usage_error(self, capsys):
        assert sample_main(["plan", "--trace", "nope"]) == 2
        assert sample_main(["validate", "--trace", "nope",
                            "--accesses", "2000"]) == 2

    def test_invalid_knobs_are_usage_errors(self, capsys):
        assert sample_main(["plan", "--trace", "spec06-00",
                            "--accesses", "4000", "--windows", "1"]) == 2

    @pytest.mark.parametrize("warmup", ["1.5", "-0.5"])
    def test_warmup_outside_unit_interval_is_a_usage_error(self, capsys,
                                                           warmup):
        assert sample_main(["plan", "--trace", "spec06-00",
                            "--accesses", "4000", "--warmup", warmup]) == 2
        assert "warmup fraction must be in [0, 1)" in capsys.readouterr().err

    def test_coarse_sampling_fails_the_fidelity_gate(self, capsys):
        # The CI must-fail leg at unit scale: a deliberately coarse
        # config cannot stay inside a near-zero error bound.
        code = sample_main(["validate", "--trace", "spec06-00",
                            "--accesses", "8000", "--windows", "4",
                            "--warmup-windows", "0", "--threshold", "5.0",
                            "--bound", "1e-6"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "out of bounds" in out

    def test_main_cli_dispatches_the_sample_group(self, capsys):
        from repro.cli import main
        assert main(["sample", "plan", "--trace", "spec06-00",
                     "--accesses", str(ACCESSES), "--windows", "12"]) == 0

    def test_scenarios_run_sample_flag(self, capsys):
        from repro.scenarios.cli import scenarios_main
        assert scenarios_main(["run", "spec06-00", "--accesses", "6000",
                               "--sample", "--no-gate"]) == 0
        out = capsys.readouterr().out
        assert "[sampled]" in out and "cluster(s)" in out
