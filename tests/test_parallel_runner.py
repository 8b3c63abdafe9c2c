"""Parallel engine + persistent cache: determinism, replay, manifests.

The contract under test:

* ``workers=4`` produces **bit-identical** ``SimResult``s to serial runs
  (same job ordering, prefetchers constructed in the parent).
* A warm persistent cache replays the original numbers exactly, with
  **zero** new ``simulate()`` calls — asserted via the engine counters
  that feed the run manifest (the Fig 8 matrix acceptance criterion).
* The baseline cache key covers the *full* ``SystemConfig`` — configs
  differing in fields the old key ignored (L1D size, core width) no
  longer alias onto stale baseline runs.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.experiments.cache import ResultCache, prefetcher_fingerprint
from repro.experiments.engine import ExperimentEngine, SimJob
from repro.experiments.manifest import RunManifest
from repro.experiments.runner import SuiteRunner
from repro.experiments.single_core import run_single_core
from repro.memtrace.workloads import quick_suite
from repro.prefetchers import COMPETITORS
from repro.prefetchers.base import NoPrefetcher
from repro.prefetchers.pmp import PMP, PMPConfig
from repro.sim.params import CacheParams, SystemConfig

SPECS = quick_suite()[:2]
ACCESSES = 3_000
FACTORIES = {"pmp": PMP, "spp+ppf": COMPETITORS["spp+ppf"]}


def result_dicts(results):
    return [r.to_dict() for r in results]


@pytest.fixture(scope="module")
def serial_outcome():
    runner = SuiteRunner(specs=SPECS, accesses=ACCESSES)
    matrix, baselines = runner.suite_comparison(FACTORIES)
    return result_dicts(matrix["pmp"] + matrix["spp+ppf"] + baselines)


class TestParallelDeterminism:
    def test_workers4_bit_identical_to_serial(self, serial_outcome):
        runner = SuiteRunner(specs=SPECS, accesses=ACCESSES, workers=4)
        matrix, baselines = runner.suite_comparison(FACTORIES)
        got = result_dicts(matrix["pmp"] + matrix["spp+ppf"] + baselines)
        assert got == serial_outcome

    def test_parallel_unpicklable_factory_raises(self):
        """A job that cannot cross to a lease worker fails loudly, naming
        its trace and prefetcher, before anything is simulated: the
        broker never runs a job itself."""

        class Unpicklable(PMP):
            def __reduce__(self):
                raise TypeError("deliberately unpicklable")

        runner = SuiteRunner(specs=SPECS, accesses=ACCESSES, workers=2)
        with pytest.raises(TypeError,
                           match=f"job 0 \\({SPECS[0].name}/pmp\\)"):
            runner.run(Unpicklable)
        assert runner.engine.counters.simulated == 0


    def test_identical_jobs_in_one_batch_fill_every_slot(self):
        """One lease per key: a batch naming one configuration twice
        places its result at both indices."""
        factories = {"a": PMP, "b": PMP}
        serial = SuiteRunner(specs=SPECS, accesses=ACCESSES).matrix(factories)
        parallel = SuiteRunner(specs=SPECS, accesses=ACCESSES,
                               workers=2).matrix(factories)
        for name in factories:
            assert result_dicts(parallel[name]) == result_dicts(serial[name])


class TestLeasePayload:
    """A leased job crosses to its worker as the pickled SimJob."""

    def test_pickled_job_survives_the_lease_boundary(self):
        trace = quick_suite()[0].build(4_000)
        job = SimJob(trace, PMP(), SystemConfig.default())
        job.key()   # a leased job is keyed before it is pickled
        blob = pickle.dumps(job)
        packed = pickle.dumps((trace.arrays(), job.prefetcher, job.config))
        # Trace.__reduce__ ships the packed arrays; pickling the
        # per-access records instead doubles every payload.
        assert len(blob) <= len(packed) + 4 * 1024
        assert pickle.loads(blob).run().to_dict() == job.run().to_dict()


class TestPersistentCache:
    def test_warm_cache_replays_exactly_with_zero_simulations(
            self, tmp_path, serial_outcome):
        cold = SuiteRunner(specs=SPECS, accesses=ACCESSES,
                           cache=tmp_path / "cache")
        matrix, baselines = cold.suite_comparison(FACTORIES)
        assert cold.engine.counters.simulated == len(SPECS) * 3
        assert cold.engine.counters.cache_hits == 0
        assert result_dicts(matrix["pmp"] + matrix["spp+ppf"] +
                            baselines) == serial_outcome

        warm = SuiteRunner(specs=SPECS, accesses=ACCESSES,
                           cache=tmp_path / "cache")
        matrix, baselines = warm.suite_comparison(FACTORIES)
        assert warm.engine.counters.simulated == 0
        assert warm.engine.counters.cache_misses == 0
        assert warm.engine.counters.cache_hits == len(SPECS) * 3
        assert result_dicts(matrix["pmp"] + matrix["spp+ppf"] +
                            baselines) == serial_outcome

    def test_fig8_matrix_warm_rerun_simulates_nothing(self, tmp_path):
        """Acceptance: warm-cache Fig 8 rerun performs zero simulate() calls."""
        kwargs = dict(specs=SPECS, accesses=ACCESSES,
                      cache=tmp_path / "fig8-cache")
        run_single_core(SuiteRunner(**kwargs), include_pmp_limit=True)

        warm = SuiteRunner(**kwargs)
        run_single_core(warm, include_pmp_limit=True)
        manifest = warm.manifest("fig8")
        assert manifest.simulated == 0
        assert manifest.cache_misses == 0
        assert manifest.cache_hits == manifest.jobs > 0

    def test_cache_key_distinguishes_prefetcher_params(self):
        default = prefetcher_fingerprint(PMP())
        assert prefetcher_fingerprint(PMP()) == default
        assert prefetcher_fingerprint(
            PMP(PMPConfig(region_bytes=2048))) != default
        assert prefetcher_fingerprint(NoPrefetcher()) != default

    def test_corrupt_cache_entry_is_rebuilt(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SuiteRunner(specs=SPECS[:1], accesses=ACCESSES, cache=cache)
        first = runner.run(PMP)
        entry = next(cache.results_dir.glob("*.json"))
        entry.write_text("{not json")
        again = SuiteRunner(specs=SPECS[:1], accesses=ACCESSES,
                            cache=ResultCache(tmp_path)).run(PMP)
        assert result_dicts(first) == result_dicts(again)


class TestBaselineCacheKey:
    def test_configs_differing_in_unkeyed_fields_no_longer_alias(self):
        """Regression: the old 3-field key ignored L1D size and core params."""
        runner = SuiteRunner(specs=SPECS[:1], accesses=ACCESSES)
        base = SystemConfig.default()
        small_l1d = replace(base, l1d=CacheParams(
            size_bytes=16 * 1024, ways=8, hit_latency=5,
            mshr_entries=16, pq_entries=8))
        assert base.fingerprint() != small_l1d.fingerprint()

        default_baselines = runner.baselines(base)
        small_baselines = runner.baselines(small_l1d)
        assert default_baselines is not small_baselines
        assert (small_baselines[0].levels["l1d"].demand_hits
                != default_baselines[0].levels["l1d"].demand_hits)

    def test_narrow_core_gets_its_own_baselines(self):
        runner = SuiteRunner(specs=SPECS[:1], accesses=ACCESSES)
        base = SystemConfig.default()
        narrow = replace(base, core=replace(base.core, width=1))
        assert base.fingerprint() != narrow.fingerprint()
        assert (runner.baselines(narrow)[0].cycles
                > runner.baselines(base)[0].cycles)


class TestManifest:
    def test_manifest_written_and_round_trips(self, tmp_path):
        runner = SuiteRunner(specs=SPECS, accesses=ACCESSES,
                             cache=tmp_path / "cache")
        runner.run(PMP)
        path = runner.write_manifest("unit", tmp_path / "manifests")
        assert path.exists()
        loaded = RunManifest.load(path)
        assert loaded.experiment == "unit"
        assert loaded.jobs == len(SPECS)
        assert loaded.simulated == len(SPECS)
        assert loaded.traces == [spec.name for spec in SPECS]
        assert (loaded.config_fingerprint
                == SystemConfig.default().fingerprint())
        assert loaded.wall_seconds > 0
        assert loaded.git_sha  # "unknown" outside git, a SHA inside


    def test_manifests_of_one_millisecond_are_both_kept(self, tmp_path):
        """Two runners of one experiment can write their manifests in the
        same millisecond; the second must not replace the first."""
        stamp = 1_700_000_000.0
        paths = [RunManifest(experiment="table10", created_unix=stamp,
                             jobs=jobs).write(tmp_path)
                 for jobs in (1, 2)]
        assert paths[0] != paths[1]
        assert [RunManifest.load(path).jobs for path in paths] == [1, 2]


class TestEngineDirect:
    def test_engine_preserves_job_order(self):
        traces = [spec.build(1_000) for spec in SPECS]
        jobs = [SimJob(trace, NoPrefetcher(), SystemConfig.default())
                for trace in traces]
        results = ExperimentEngine(workers=3).run_jobs(jobs)
        assert [r.trace_name for r in results] == [t.name for t in traces]

    def test_nipc_grid_matches_per_config_runs(self):
        runner = SuiteRunner(specs=SPECS, accesses=ACCESSES)
        configs = [("3200", SystemConfig.default()),
                   ("1600", SystemConfig.default().with_dram_rate(1600))]
        grid = runner.nipc_grid({"pmp": PMP}, configs)

        fresh = SuiteRunner(specs=SPECS, accesses=ACCESSES)
        expected = [(label, fresh.geomean_nipc(PMP, cfg))
                    for label, cfg in configs]
        assert grid["pmp"] == expected


class TestTraceEvents:
    """Opt-in event tracing through the cached, parallel engine."""

    def test_trace_events_salts_cache_key_only_when_on(self):
        trace = SPECS[0].build(1_000)
        plain = SimJob(trace, NoPrefetcher(), SystemConfig.default())
        traced = SimJob(trace, NoPrefetcher(), SystemConfig.default(),
                        trace_events=True)
        off = SimJob(trace, NoPrefetcher(), SystemConfig.default(),
                     trace_events=False)
        assert traced.key() != plain.key()
        assert off.key() == plain.key()

    def test_traced_run_matches_untraced_timing(self):
        """The observer reads events; it must not change the simulation."""
        plain = SuiteRunner(specs=SPECS, accesses=ACCESSES).run(PMP)
        traced = SuiteRunner(specs=SPECS, accesses=ACCESSES,
                             trace_events=True).run(PMP)
        for p, t in zip(plain, traced):
            assert t.event_counters is not None
            t_dict = t.to_dict()
            t_dict.pop("event_counters")
            assert t_dict == p.to_dict()

    def test_event_totals_accumulate_and_reach_manifest(self):
        runner = SuiteRunner(specs=SPECS, accesses=ACCESSES,
                             trace_events=True)
        results = runner.run(NoPrefetcher)
        totals = runner.engine.counters.event_totals
        assert totals["CacheAccess"]["L1D"] == sum(
            r.event_counters["CacheAccess"]["L1D"] for r in results)
        manifest = runner.manifest("unit")
        assert manifest.extra["event_counters"] == totals

    def test_traced_results_replay_from_cache(self, tmp_path):
        cold = SuiteRunner(specs=SPECS, accesses=ACCESSES,
                           cache=tmp_path, trace_events=True)
        first = cold.run(NoPrefetcher)
        warm = SuiteRunner(specs=SPECS, accesses=ACCESSES,
                           cache=tmp_path, trace_events=True)
        replayed = warm.run(NoPrefetcher)
        assert warm.engine.counters.simulated == 0
        assert result_dicts(replayed) == result_dicts(first)
        # Cache hits still feed the batch's event totals.
        assert (warm.engine.counters.event_totals
                == cold.engine.counters.event_totals)

    def test_parallel_traced_run_bit_identical_to_serial(self):
        serial = SuiteRunner(specs=SPECS, accesses=ACCESSES,
                             trace_events=True).run(PMP)
        parallel = SuiteRunner(specs=SPECS, accesses=ACCESSES,
                               trace_events=True, workers=4).run(PMP)
        assert result_dicts(parallel) == result_dicts(serial)
