"""Multi-core simulation: shared LLC, DRAM contention, speedup metric."""

import numpy as np
import pytest

from repro.memtrace import synthetic as syn
from repro.memtrace.trace import Trace
from repro.prefetchers import PMP, NoPrefetcher
from repro.sim.multicore import multicore_speedup, simulate_multicore
from repro.sim.params import SystemConfig


def stream_trace(seed, n=2500, segment=0):
    return Trace.from_arrays(
        f"s{seed}", syn.stream(np.random.default_rng(seed), n, segment=segment))


class TestSimulateMulticore:
    def test_one_result_per_core(self):
        traces = [stream_trace(i, segment=i) for i in range(4)]
        results = simulate_multicore(traces)
        assert len(results) == 4
        assert all(r.instructions > 0 for r in results)

    def test_trace_order_preserved(self):
        traces = [stream_trace(i, segment=i) for i in range(3)]
        results = simulate_multicore(traces)
        assert [r.trace_name for r in results] == [t.name for t in traces]

    def test_deterministic(self):
        traces = [stream_trace(i, segment=i) for i in range(2)]
        a = simulate_multicore(traces, PMP)
        b = simulate_multicore(traces, PMP)
        assert [r.ipc for r in a] == [r.ipc for r in b]

    def test_sharing_slows_cores_down(self):
        """Four cores on shared LLC/DRAM run slower than one alone."""
        from repro.sim.engine import simulate
        trace = stream_trace(0)
        solo = simulate(trace, config=SystemConfig.default().for_multicore(4))
        shared = simulate_multicore([trace] * 4,
                                    config=SystemConfig.default().for_multicore(4))
        assert all(r.ipc <= solo.ipc * 1.01 for r in shared)

    def test_two_channels_for_multicore(self):
        config = SystemConfig.default().for_multicore(4)
        assert config.dram.channels == 2


class TestSpeedup:
    def test_prefetching_speedup_positive_on_streams(self):
        traces = [stream_trace(i, segment=i) for i in range(4)]
        results = simulate_multicore(traces, PMP)
        baselines = simulate_multicore(traces, NoPrefetcher)
        assert multicore_speedup(results, baselines) > 1.0

    def test_identity_speedup(self):
        traces = [stream_trace(0)]
        results = simulate_multicore(traces, NoPrefetcher)
        assert multicore_speedup(results, results) == 1.0


class TestFig13TraceReuse:
    """``fig13`` builds each distinct spec once and shares every rebased
    (spec, core) trace across the sets that use it; the per-cell results
    must equal building every cell's traces fresh."""

    ACCESSES = 400

    def test_shared_traces_match_fresh_builds(self, monkeypatch):
        from repro.experiments import multi_core
        from repro.memtrace.trace import rebase
        from repro.memtrace.workloads import WorkloadSpec, quick_suite
        from repro.sim.stats import geomean

        accesses = self.ACCESSES
        suite = quick_suite()
        specs = [suite[0], suite[4]]
        prefetchers = {"pmp": PMP}
        mixes = multi_core.build_heterogeneous_mixes(specs)
        config = SystemConfig.default().for_multicore(4)

        # Reference: every cell's traces built and rebased afresh, every
        # (set, prefetcher) cell simulated on its own.
        fresh_sets = ([[rebase(spec.build(accesses), core) for core in range(4)]
                       for spec in specs]
                      + [[rebase(spec.build(accesses), core)
                          for core, spec in enumerate(mix_specs)]
                         for _, mix_specs in mixes])
        reference = [
            simulate_multicore(traces, factory, config)
            for traces in fresh_sets
            for factory in (PMP, NoPrefetcher)]

        built = []
        build = WorkloadSpec.build

        def counting_build(spec, *args):
            trace = build(spec, *args)
            built.append((spec.name, len(trace)))
            return trace

        cells = []
        simulate = multi_core.simulate_multicore

        def recording_simulate(traces, factory, cfg):
            results = simulate(traces, factory, cfg)
            cells.append((traces, results))
            return results

        monkeypatch.setattr(WorkloadSpec, "build", counting_build)
        monkeypatch.setattr(multi_core, "simulate_multicore",
                            recording_simulate)
        out = multi_core.fig13(specs, accesses=accesses,
                               prefetchers=prefetchers)

        assert [results for _, results in cells] == reference
        assert [[t.name for t in traces] for traces, _ in cells] == [
            [t.name for t in traces]
            for traces in fresh_sets for _ in (PMP, NoPrefetcher)]
        # One build per distinct spec at the figure length (classification
        # builds its own traces at another length).
        assert sorted(name for name, n in built if n == accesses) == sorted(
            spec.name for spec in specs)
        # Sets share trace objects: one per distinct (spec, core) pair.
        set_specs = [[spec] * 4 for spec in specs] + [list(m) for _, m in mixes]
        pairs = {(spec.name, core) for row in set_specs
                 for core, spec in enumerate(row)}
        assert len({id(t) for traces, _ in cells for t in traces}) == len(pairs)

        n_homo = len(specs)
        speedups = [multicore_speedup(reference[2 * i], reference[2 * i + 1])
                    for i in range(len(fresh_sets))]
        assert out == {"pmp": {"homogeneous": geomean(speedups[:n_homo]),
                               "heterogeneous": geomean(speedups[n_homo:])}}


class TestMulticoreJobsInTheStores:
    """The result cache and the run journal keep a four-core job's
    payload as they keep a single-core one."""

    def test_batch_replays_from_the_cache_and_from_a_resumed_journal(
            self, tmp_path):
        from repro.experiments.cache import ResultCache
        from repro.experiments.engine import ExperimentEngine
        from repro.experiments.journal import RunJournal
        from repro.experiments.multi_core import MulticoreJob

        config = SystemConfig.default().for_multicore(4)
        lanes = [stream_trace(i, n=400, segment=i) for i in range(4)]

        def batch():
            return [MulticoreJob(lanes, NoPrefetcher, config, "baseline"),
                    MulticoreJob(lanes, PMP, config, "pmp")]

        cold = ExperimentEngine(cache=ResultCache(tmp_path / "cache"),
                                journal=RunJournal(tmp_path / "runs", "mc"))
        first = cold.run_jobs(batch())
        cold.journal.close()
        assert cold.counters.simulated == 2

        warm = ExperimentEngine(cache=ResultCache(tmp_path / "cache"))
        cached = warm.run_jobs(batch())
        assert (warm.counters.simulated, warm.counters.cache_hits) == (0, 2)

        resumed = ExperimentEngine(
            journal=RunJournal.resume(tmp_path / "runs", "mc"))
        replayed = resumed.run_jobs(batch())
        resumed.journal.close()
        assert (resumed.counters.simulated,
                resumed.counters.journal_replayed) == (0, 2)
        assert first == cached == replayed
        assert [len(cores) for cores in first] == [4, 4]


class TestFig13OnLeaseWorkers:
    """``fig13(workers=N)`` runs its grid as one batch of multicore jobs
    on lease workers: bit-identical to the serial figure, and a hung or
    crashed worker is reaped and its job retried."""

    ACCESSES = 400

    @staticmethod
    def faulty(mode, **kwargs):
        from functools import partial

        from tests.chaos import FaultyPrefetcher
        return {"faulty": partial(FaultyPrefetcher, mode=mode, **kwargs)}

    @pytest.fixture(scope="class")
    def specs(self):
        from repro.memtrace.workloads import quick_suite
        return quick_suite()[:2]

    @pytest.fixture(scope="class")
    def clean(self, specs):
        from repro.experiments.multi_core import fig13
        return fig13(specs[:1], accesses=self.ACCESSES,
                     prefetchers=self.faulty("none"))

    def test_parallel_figure_equals_serial(self, specs):
        from repro.experiments.multi_core import fig13
        prefetchers = {"pmp": PMP}
        serial = fig13(specs, accesses=self.ACCESSES, prefetchers=prefetchers)
        parallel = fig13(specs, accesses=self.ACCESSES,
                         prefetchers=prefetchers, workers=2)
        assert parallel == serial

    def test_multicore_job_key_covers_lanes_prefetcher_and_config(self,
                                                                  specs):
        from repro.experiments.multi_core import MulticoreJob
        from repro.memtrace.trace import rebase
        config = SystemConfig.default().for_multicore(4)
        lanes = [rebase(specs[0].build(self.ACCESSES), core)
                 for core in range(4)]
        job = MulticoreJob(lanes, PMP, config, "pmp")
        assert job.key() == MulticoreJob(list(lanes), PMP, config,
                                         "pmp").key()
        assert job.key() != MulticoreJob(lanes[::-1], PMP, config,
                                         "pmp").key()
        assert job.key() != MulticoreJob(lanes, NoPrefetcher, config,
                                         "pmp").key()
        assert job.key() != MulticoreJob(lanes, PMP, SystemConfig.default(),
                                         "pmp").key()
        results = job.run()
        assert job.decode(job.encode(results)) == results

    def test_hung_worker_is_reaped_and_retried(self, specs, clean, tmp_path,
                                               caplog):
        import time

        from repro.experiments.faults import FaultPolicy
        from repro.experiments.multi_core import fig13
        start = time.monotonic()
        out = fig13(specs[:1], accesses=self.ACCESSES,
                    prefetchers=self.faulty("hang", latch_dir=tmp_path,
                                            hang_seconds=20.0),
                    workers=2, policy=FaultPolicy(job_timeout=3.0))
        assert time.monotonic() - start < 15.0  # not the 20 s hang
        assert out == clean
        assert (tmp_path / "hang.fired").exists()
        assert "held past the 3s job deadline" in caplog.text

    def test_crashed_worker_is_reaped_at_once(self, specs, clean, tmp_path,
                                              caplog):
        from repro.experiments.multi_core import fig13
        out = fig13(specs[:1], accesses=self.ACCESSES,
                    prefetchers=self.faulty("crash", latch_dir=tmp_path),
                    workers=2)
        assert out == clean
        assert "exited with code 139" in caplog.text

    def test_unpicklable_factory_names_its_job(self, specs):
        from repro.experiments.multi_core import fig13
        with pytest.raises(TypeError, match=r"job 0 \(.*/pmp\) cannot be "
                                            r"pickled"):
            fig13(specs[:1], accesses=self.ACCESSES,
                  prefetchers={"pmp": lambda: PMP()}, workers=2)
