"""Fault-injection tests for the engine's recovery paths.

Every recovery scenario asserts the same contract: faults perturb the
*machinery* (workers hang, die, or raise; cache bytes rot; the process
is interrupted) while the recovered run's numbers stay **bit-identical**
to a clean run's — plus the manifest/counter accounting that makes the
recovery visible after the fact.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tests.chaos import (ChaosRaise, FaultyPrefetcher, corrupt_cache_entry,
                         record_backoffs)
from repro.experiments import faults
from repro.experiments.cache import ResultCache
from repro.experiments.faults import (CHAOS_DIR_ENV, CHAOS_MODES_ENV,
                                      CHAOS_RATE_ENV, CHAOS_SEED_ENV,
                                      BatchFailed, RunInterrupted, chaos_plan)
from repro.experiments.journal import RunJournal
from repro.experiments.runner import SuiteRunner
from repro.fabric import FabricConfig
from repro.memtrace.workloads import quick_suite
from repro.prefetchers.pmp import PMP

SPECS = quick_suite()[:2]
ACCESSES = 3_000


def result_dicts(results):
    return [r.to_dict() for r in results]


@pytest.fixture(scope="module")
def clean_outcome():
    """Unfaulted FaultyPrefetcher run — the bit-identical reference."""
    runner = SuiteRunner(specs=SPECS, accesses=ACCESSES)
    return result_dicts(runner.run(lambda: FaultyPrefetcher(mode="none")))


class TestHungWorker:
    def test_timeout_then_retry_is_bit_identical(self, tmp_path,
                                                 clean_outcome):
        """The deadline reaps the hung lease and kills its worker; the
        retry completes clean on a worker."""
        runner = SuiteRunner(specs=SPECS, accesses=ACCESSES, workers=2,
                             job_timeout=1.0)
        results = runner.run(lambda: FaultyPrefetcher(
            mode="hang", latch_dir=tmp_path, hang_seconds=30.0))
        assert result_dicts(results) == clean_outcome
        counters = runner.engine.counters
        assert counters.timed_out >= 1
        assert counters.retried >= 1
        assert counters.lease_expired == 0  # a deadline reap, not a death
        assert counters.fabric_completed == len(SPECS)
        assert counters.failed == 0

    def test_watchdog_reports_in_manifest(self, tmp_path):
        runner = SuiteRunner(specs=SPECS[:1], accesses=ACCESSES, workers=2,
                             job_timeout=120.0)
        runner.run(PMP)
        manifest = runner.manifest("unit")
        assert manifest.timed_out == 0  # nothing tripped with a lazy budget
        assert manifest.failed == 0


class TestCrashedWorker:
    def test_dead_worker_lease_retried_with_backoff_and_matches_clean_run(
            self, tmp_path, clean_outcome, monkeypatch):
        """A worker dies mid-job: its lease is reaped at once (no
        ``lease_ttl`` wait), retried after the backoff on a replacement
        worker, and the numbers are untouched."""
        runner = SuiteRunner(specs=SPECS, accesses=ACCESSES, workers=2)
        delays = record_backoffs(monkeypatch)
        results = runner.run(lambda: FaultyPrefetcher(
            mode="crash", latch_dir=tmp_path))
        assert result_dicts(results) == clean_outcome
        counters = runner.engine.counters
        assert counters.lease_expired >= 1
        assert counters.retried >= 1
        assert counters.fabric_completed == len(SPECS)
        assert counters.failed == 0
        assert counters.wall_seconds < FabricConfig().lease_ttl / 2
        # The first retry waited exactly the base backoff.
        assert delays and delays[0] == faults.BACKOFF_BASE
        assert delays == sorted(delays)  # backoff never shrinks


class TestDeterministicFailure:
    def test_raise_becomes_job_failure_not_retry(self, tmp_path):
        runner = SuiteRunner(specs=SPECS, accesses=ACCESSES, workers=2)
        with pytest.raises(BatchFailed) as excinfo:
            runner.run(lambda: FaultyPrefetcher(
                mode="raise", latch_dir=tmp_path))
        failures = excinfo.value.failures
        assert len(failures) == 1
        assert failures[0].kind == "raise"
        assert failures[0].error_type == "ChaosRaise"
        assert "chaos: injected deterministic failure" in failures[0].traceback
        # The batch still finished: every other job has a result.
        others = [r for i, r in enumerate(excinfo.value.results)
                  if i != failures[0].index]
        assert all(r is not None for r in others)
        counters = runner.engine.counters
        assert counters.failed == 1
        assert counters.retried == 0  # deterministic failures never retry
        manifest = runner.manifest("unit")
        assert manifest.failed == 1
        recorded = manifest.extra["fault_tolerance"]["failures"]
        assert recorded[0]["error_type"] == "ChaosRaise"

    def test_serial_raise_also_becomes_job_failure(self, tmp_path):
        runner = SuiteRunner(specs=SPECS, accesses=ACCESSES)
        with pytest.raises(BatchFailed) as excinfo:
            runner.run(lambda: FaultyPrefetcher(
                mode="raise", latch_dir=tmp_path, only_in_worker=False))
        (failure,) = excinfo.value.failures
        assert runner.engine.counters.simulated == len(SPECS) - 1
        # The record carries the original exception and its traceback.
        assert failure.label == f"{SPECS[failure.index].name}/pmp"
        assert failure.error_type == "ChaosRaise"
        assert "_maybe_fire" in failure.traceback

    def test_fail_fast_propagates_original_exception(self, tmp_path):
        runner = SuiteRunner(specs=SPECS, accesses=ACCESSES, workers=2,
                             fail_fast=True)
        with pytest.raises(ChaosRaise):
            runner.run(lambda: FaultyPrefetcher(
                mode="raise", latch_dir=tmp_path))


class TestInterruptAndResume:
    def test_request_stop_then_resume_is_bit_identical(self, tmp_path):
        factories = {"pmp": PMP,
                     "faulty-clean": lambda: FaultyPrefetcher(mode="none")}
        clean = SuiteRunner(specs=SPECS, accesses=ACCESSES).matrix(factories)

        journal = RunJournal(tmp_path / "runs", "resume-test")
        runner = SuiteRunner(specs=SPECS, accesses=ACCESSES, journal=journal)
        recorded = journal.record_done

        def stop_after_two(key, data):
            recorded(key, data)
            if journal.completed == 2:
                runner.engine.request_stop()

        journal.record_done = stop_after_two
        with pytest.raises(RunInterrupted) as excinfo:
            runner.matrix(factories)
        assert excinfo.value.completed == 2
        assert excinfo.value.remaining == 2
        assert "--resume resume-test" in str(excinfo.value)
        journal.close()

        reopened = RunJournal(tmp_path / "runs", "resume-test")
        assert reopened.completed == 2
        resumed = SuiteRunner(specs=SPECS, accesses=ACCESSES,
                              journal=reopened)
        matrix = resumed.matrix(factories)
        assert resumed.engine.counters.journal_replayed == 2
        assert resumed.engine.counters.simulated == 2
        for name in factories:
            assert result_dicts(matrix[name]) == result_dicts(clean[name])
        reopened.close()

    @pytest.mark.slow
    def test_cli_sigint_then_resume_reproduces_clean_run(self, tmp_path):
        """Kill a real `pmp-repro` mid-suite; --resume matches a clean run."""
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}

        def report_lines(stdout: str) -> list[str]:
            # Drop the bracketed status lines (run ids, timings, paths).
            return [line for line in stdout.splitlines()
                    if line and not line.startswith("[")]

        base = ["fig9", "--traces", "2", "--accesses", "6000",
                "--workers", "2"]
        clean = subprocess.run(
            [sys.executable, "-m", "repro", *base,
             "--cache-dir", str(tmp_path / "clean")],
            capture_output=True, text=True, env=env, cwd=root,
            timeout=600)
        assert clean.returncode == 0, clean.stderr

        cache_dir = tmp_path / "interrupted"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *base, "--run-id", "sigint-test",
             "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=root)
        entries = cache_dir / "runs" / "sigint-test" / "results"
        deadline = time.monotonic() + 120
        # Interrupt as soon as at least one job is journaled.
        while time.monotonic() < deadline:
            if entries.is_dir() and any(entries.glob("*.json")):
                break
            if proc.poll() is not None:
                pytest.fail(f"run finished before it could be interrupted:\n"
                            f"{proc.communicate()[1]}")
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 130, (stdout, stderr)
        assert "--resume sigint-test" in stderr

        resumed = subprocess.run(
            [sys.executable, "-m", "repro", *base,
             "--resume", "sigint-test", "--cache-dir", str(cache_dir)],
            capture_output=True, text=True, env=env, cwd=root,
            timeout=600)
        assert resumed.returncode == 0, resumed.stderr
        assert "[resuming run sigint-test:" in resumed.stdout
        assert report_lines(resumed.stdout) == report_lines(clean.stdout)

        # The resumed run's manifest records the journal replays.
        manifests = sorted((cache_dir / "manifests").glob("fig9-*.json"))
        last = json.loads(manifests[-1].read_text())
        replayed = last["extra"]["fault_tolerance"]["journal_replayed"]
        assert replayed >= 1


class TestCacheCorruption:
    def test_quarantined_entry_resimulates_cleanly(self, tmp_path):
        cold = SuiteRunner(specs=SPECS[:1], accesses=ACCESSES,
                           cache=tmp_path / "cache")
        first = result_dicts(cold.run(PMP))
        entry = next(cold.cache.results_dir.glob("*.json"))
        corrupt_cache_entry(entry, how="flip-payload")

        warm_cache = ResultCache(tmp_path / "cache")
        warm = SuiteRunner(specs=SPECS[:1], accesses=ACCESSES,
                           cache=warm_cache)
        again = result_dicts(warm.run(PMP))
        assert again == first
        assert warm.engine.counters.cache_misses == 1
        assert warm_cache.corrupt == 1
        assert warm_cache.corrupt_events[0]["key"] == entry.stem
        # The corrupt bytes moved aside for autopsy, not deleted.
        assert (warm_cache.quarantine_dir / entry.name).exists()
        manifest = warm.manifest("unit")
        assert manifest.quarantined == 1
        events = manifest.extra["fault_tolerance"]["quarantine_events"]
        assert events[0]["reason"].startswith("CorruptCacheEntry")

    @pytest.mark.parametrize("how", ["truncate", "garbage"])
    def test_unparseable_entries_also_quarantine(self, tmp_path, how):
        cache = ResultCache(tmp_path)
        first = result_dicts(SuiteRunner(specs=SPECS[:1], accesses=ACCESSES,
                                         cache=cache).run(PMP))
        corrupt_cache_entry(next(cache.results_dir.glob("*.json")), how=how)
        rerun_cache = ResultCache(tmp_path)
        again = result_dicts(SuiteRunner(specs=SPECS[:1], accesses=ACCESSES,
                                         cache=rerun_cache).run(PMP))
        assert again == first
        assert rerun_cache.corrupt == 1


class TestEnvKnobChaos:
    """The env-driven injector CI uses (REPRO_CHAOS_*)."""

    def test_chaos_plan_is_deterministic(self, monkeypatch):
        monkeypatch.setenv(CHAOS_SEED_ENV, "7")
        monkeypatch.setenv(CHAOS_RATE_ENV, "1.0")
        monkeypatch.setenv(CHAOS_MODES_ENV, "hang,crash")
        assert chaos_plan("some-job-key") == chaos_plan("some-job-key")
        monkeypatch.setenv(CHAOS_RATE_ENV, "0.0")
        assert chaos_plan("some-job-key") is None

    def test_env_chaos_crash_run_matches_clean_run(self, tmp_path,
                                                   monkeypatch,
                                                   clean_outcome):
        monkeypatch.setenv(CHAOS_SEED_ENV, "7")
        monkeypatch.setenv(CHAOS_RATE_ENV, "1.0")
        monkeypatch.setenv(CHAOS_MODES_ENV, "crash")
        monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path / "chaos"))
        runner = SuiteRunner(specs=SPECS, accesses=ACCESSES, workers=2)
        results = runner.run(lambda: FaultyPrefetcher(mode="none"))
        assert result_dicts(results) == clean_outcome
        counters = runner.engine.counters
        assert counters.lease_expired >= 2
        assert counters.retried >= 2  # every job crashed once, then ran clean
        assert counters.failed == 0
