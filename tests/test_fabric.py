"""Lease fabric: state-machine units and in-process end-to-end runs.

The contract under test mirrors the rest of the fault-tolerance suite:
however the machinery is distributed (worker threads, zero workers,
resume after the fact), a fabric run's numbers must be **bit-identical**
to a plain serial run's, and everything the fabric did must be visible
in the counters and the manifest afterwards.  Process-shaped faults
(SIGKILL, frozen heartbeats, claim races) live in
``tests/test_fabric_chaos.py``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from types import SimpleNamespace

import pytest

from tests.chaos import ChaosRaise, FaultyPrefetcher
from repro.experiments.engine import EngineCounters
from repro.experiments.faults import (KIND_LEASE_EXPIRED, BatchFailed,
                                      FaultPolicy)
from repro.experiments.journal import RunJournal
from repro.experiments.runner import SuiteRunner
from repro.fabric import FabricBroker, FabricConfig, FabricWorker
from repro.fabric import lease
from repro.fabric import worker as worker_module
from repro.fabric.protocol import (BATCH_OPEN, ensure_layout, lease_filename,
                                   parse_lease_filename, read_batch,
                                   read_json, scan_leases, state_dir)
from repro.memtrace.workloads import quick_suite
from repro.prefetchers.pmp import PMP

SPECS = quick_suite()[:2]
ACCESSES = 3_000
KEY = "a" * 16


def result_dicts(results):
    return [r.to_dict() for r in results]


@pytest.fixture(scope="module")
def clean_outcome():
    """Plain serial run — the bit-identical reference."""
    runner = SuiteRunner(specs=SPECS, accesses=ACCESSES)
    return result_dicts(runner.run(PMP))


def fabric_runner(tmp_path, *, grace=10.0, inline=True, ttl=5.0,
                  run_id=None, **kwargs) -> SuiteRunner:
    journal = RunJournal(tmp_path / "runs", run_id)
    config = FabricConfig(lease_ttl=ttl, poll_interval=0.05,
                          worker_grace=grace, inline_fallback=inline)
    return SuiteRunner(specs=SPECS, accesses=ACCESSES, journal=journal,
                       fabric=config, **kwargs)


def start_worker_threads(tmp_path, count=2, ttl=5.0):
    workers = [FabricWorker(root=tmp_path / "runs",
                            config=FabricConfig(lease_ttl=ttl,
                                                poll_interval=0.05),
                            max_idle=30.0)
               for _ in range(count)]
    threads = [threading.Thread(target=worker.run, daemon=True)
               for worker in workers]
    for thread in threads:
        thread.start()
    return workers, threads


# ------------------------------------------------------------------- units

class TestLeaseStateMachine:
    def _open_lease(self, run_dir, key=KEY, epoch=0, **extra):
        ensure_layout(run_dir)
        return lease.publish(run_dir, key, epoch,
                             {"index": 0, "attempts": 0, **extra})

    def test_claim_is_exclusive(self, tmp_path):
        self._open_lease(tmp_path)
        first = lease.claim(tmp_path, KEY, 0, "w1")
        second = lease.claim(tmp_path, KEY, 0, "w2")
        assert first is not None and first["worker"] == "w1"
        assert second is None
        record = read_json(state_dir(tmp_path, "claimed")
                           / lease_filename(KEY, 0))
        assert record["worker"] == "w1"

    def test_claim_respects_reassignment_backoff(self, tmp_path):
        self._open_lease(tmp_path, not_before=time.time() + 60.0)
        assert lease.claim(tmp_path, KEY, 0, "w1") is None
        # The backoff window is a stamp, not a sleep: a claim evaluated
        # past it succeeds.
        assert lease.claim(tmp_path, KEY, 0, "w1",
                           now=time.time() + 120.0) is not None

    def test_reap_bumps_epoch_and_attempts(self, tmp_path):
        self._open_lease(tmp_path)
        record = lease.claim(tmp_path, KEY, 0, "w1")
        lease.reap(tmp_path, KEY, 0, record, not_before=0.0)
        republished = read_json(state_dir(tmp_path, "open")
                                / lease_filename(KEY, 1))
        assert republished["epoch"] == 1
        assert republished["attempts"] == 1
        assert "worker" not in republished
        stale = state_dir(tmp_path, "claimed") / lease_filename(KEY, 0)
        assert not stale.exists()
        # A reaped holder's heartbeat must fail, never resurrect the file.
        assert lease.heartbeat(stale) is False
        assert not stale.exists()

    def test_heartbeat_renews_mtime(self, tmp_path):
        self._open_lease(tmp_path)
        lease.claim(tmp_path, KEY, 0, "w1")
        path = state_dir(tmp_path, "claimed") / lease_filename(KEY, 0)
        stale = time.time() - 100.0
        os.utime(path, (stale, stale))
        assert lease.heartbeat(path) is True
        assert time.time() - path.stat().st_mtime < 5.0

    def test_complete_is_checksummed(self, tmp_path):
        self._open_lease(tmp_path)
        record = lease.claim(tmp_path, KEY, 0, "w1")
        done_path = lease.complete(tmp_path, record, {"answer": 42})
        assert lease.verified_result(read_json(done_path)) == {"answer": 42}
        assert not (state_dir(tmp_path, "claimed")
                    / lease_filename(KEY, 0)).exists()
        # Tampered payload fails verification instead of being consumed.
        tampered = read_json(done_path)
        tampered["result"]["answer"] = 43
        done_path.write_text(json.dumps(tampered))
        assert lease.verified_result(read_json(done_path)) is None

    def test_release_hands_the_claim_back(self, tmp_path):
        self._open_lease(tmp_path)
        record = lease.claim(tmp_path, KEY, 0, "w1")
        assert lease.release(tmp_path, record) is True
        assert (state_dir(tmp_path, "open")
                / lease_filename(KEY, 0)).exists()
        assert lease.claim(tmp_path, KEY, 0, "w2") is not None

    def test_parse_lease_filename(self):
        assert parse_lease_filename("abc.e0.json") == ("abc", 0)
        assert parse_lease_filename("a.e1.b.e12.json") == ("a.e1.b", 12)
        assert parse_lease_filename("abc.json") is None
        assert parse_lease_filename("abc.e1.txt") is None

    def test_scan_leases_prefers_highest_epoch(self, tmp_path):
        self._open_lease(tmp_path, epoch=0)
        self._open_lease(tmp_path, epoch=2)
        scanned = scan_leases(tmp_path, "open")
        assert scanned[KEY][0] == 2

    def test_claim_reads_grow_linearly_with_jobs(self, tmp_path,
                                                 monkeypatch):
        """A worker reads only the records of the leases it tries, so a
        batch costs O(jobs) record reads, not O(jobs²)."""
        reads = {"count": 0}
        read = lease.read_json

        def counting(path):
            reads["count"] += 1
            return read(path)

        monkeypatch.setattr(lease, "read_json", counting)
        monkeypatch.setattr(worker_module, "read_json", counting,
                            raising=False)
        per_batch = {}
        for jobs in (20, 40):
            run_dir = tmp_path / f"batch-{jobs}"
            for index in range(jobs):
                self._open_lease(run_dir, key=f"{index:04d}" + "k" * 12)
            worker = FabricWorker(root=tmp_path, worker_id="w1")
            reads["count"] = 0
            while worker._claim_next(run_dir) is not None:
                pass
            per_batch[jobs] = reads["count"]
            assert not scan_leases(run_dir, "open")
        assert per_batch[20] <= 2 * 20
        assert per_batch[40] <= 2 * per_batch[20]


# -------------------------------------------------------------- end-to-end

class TestFabricEndToEnd:
    def test_worker_threads_bit_identical(self, tmp_path, clean_outcome):
        """Two workers drain the batch; numbers match the serial run."""
        runner = fabric_runner(tmp_path)
        workers, threads = start_worker_threads(tmp_path)
        results = runner.run(PMP)
        for thread in threads:
            thread.join(timeout=30.0)
        assert result_dicts(results) == clean_outcome
        counters = runner.engine.counters
        assert counters.fabric_completed == len(SPECS)
        assert counters.inline_fallbacks == 0
        assert counters.failed == 0
        assert sum(w.jobs_done for w in workers) == len(SPECS)
        fab = runner.manifest("unit").extra["fabric"]
        assert fab["completed_by_workers"] == len(SPECS)
        assert sum(w.get("jobs_done", 0) for w in fab["workers"]) >= len(SPECS)

    def test_zero_workers_degrades_inline(self, tmp_path, clean_outcome):
        """No worker ever appears: the broker completes the batch itself."""
        runner = fabric_runner(tmp_path, grace=0.2, ttl=1.0)
        results = runner.run(PMP)
        counters = runner.engine.counters
        assert result_dicts(results) == clean_outcome
        assert counters.inline_fallbacks == len(SPECS)
        assert counters.fabric_completed == 0
        assert counters.failed == 0
        fab = runner.manifest("unit").extra["fabric"]
        assert fab["inline_fallbacks"] == len(SPECS)
        assert fab["completed_by_workers"] == 0

    def test_zero_workers_without_fallback_fails_structured(self, tmp_path):
        """--no-inline-fallback: worker loss becomes lease-expired
        JobFailures and a BatchFailed — never a hang."""
        runner = fabric_runner(tmp_path, grace=0.2, ttl=1.0, inline=False)
        with pytest.raises(BatchFailed) as excinfo:
            runner.run(PMP)
        failures = excinfo.value.failures
        assert len(failures) == len(SPECS)
        assert all(f.kind == KIND_LEASE_EXPIRED for f in failures)
        assert all("transport fault" in f.message for f in failures)
        journal = runner.journal
        assert journal.failed == len(SPECS)
        assert runner.engine.counters.lease_expired >= len(SPECS)

    def test_identical_jobs_share_one_lease(self, tmp_path):
        """Two jobs with one key get one lease whose result fills both
        slots; a lease per job would collide on the shared key and leave
        one slot empty."""
        specs = quick_suite()[:2]
        serial = SuiteRunner(specs=specs, accesses=2_000).matrix(
            {"a": PMP, "b": PMP})
        runner = SuiteRunner(specs=specs, accesses=2_000,
                             journal=RunJournal(tmp_path / "runs"),
                             fabric=FabricConfig(worker_grace=0.2,
                                                 poll_interval=0.05))
        matrix = runner.matrix({"a": PMP, "b": PMP})
        for name in ("a", "b"):
            assert result_dicts(matrix[name]) == result_dicts(serial[name])
        assert runner.engine.counters.simulated == len(specs)

    def test_aborted_batch_is_paused_and_workers_exit(self, tmp_path):
        """A fail-fast abort leaves the batch paused, not open, so an
        attached worker stops serving it instead of polling for ever."""
        runner = fabric_runner(tmp_path, run_id="run-abort", fail_fast=True)
        workers, threads = start_worker_threads(tmp_path, count=1)
        with pytest.raises(ChaosRaise):
            runner.run(lambda: FaultyPrefetcher(
                mode="raise", latch_dir=tmp_path / "latch",
                only_in_worker=False))
        batch = read_batch(tmp_path / "runs" / "run-abort")
        assert batch["status"] != BATCH_OPEN
        threads[0].join(timeout=30.0)
        assert not threads[0].is_alive()

    def test_fabric_requires_journal(self):
        with pytest.raises(ValueError, match="journal"):
            SuiteRunner(specs=SPECS, accesses=ACCESSES,
                        fabric=FabricConfig())

    def test_resumed_fabric_run_matches_serial(self, tmp_path,
                                               clean_outcome):
        """A fabric run's journal resumes into a bit-identical replay."""
        runner = fabric_runner(tmp_path, grace=0.2, ttl=1.0,
                               run_id="run-fabric-resume")
        runner.run(PMP)
        runner.journal.close()
        journal = RunJournal.resume(tmp_path / "runs", "run-fabric-resume")
        replay = SuiteRunner(specs=SPECS, accesses=ACCESSES, journal=journal)
        results = replay.run(PMP)
        assert result_dicts(results) == clean_outcome
        assert replay.engine.counters.journal_replayed == len(SPECS)
        assert replay.engine.counters.simulated == 0


# ----------------------------------------------------- counters & manifest

class TestLeaseCounters:
    def test_to_dict_carries_lease_counters(self):
        counters = EngineCounters()
        counters.lease_expired += 3
        counters.fabric_completed += 5
        counters.retried += 2
        data = counters.to_dict()
        assert data["lease_expired"] == 3
        assert data["fabric_completed"] == 5
        assert data["retried"] == 2

    def test_expiry_reassignment_arithmetic(self, tmp_path):
        """Every retry is an expiry, but not vice versa: the final
        expiry of a job classifies instead of republishing."""
        counters = EngineCounters()
        failures = []
        item = SimpleNamespace(
            key=KEY, index=0, payload=(), twins=[],
            job=SimpleNamespace(trace=SimpleNamespace(name="t"),
                                prefetcher=SimpleNamespace(name="p")))
        broker = FabricBroker(
            run_dir=tmp_path, run_id=None, config=FabricConfig(lease_ttl=1.0),
            policy=FaultPolicy(max_attempts=3), counters=counters,
            on_result=None, inline=None,
            on_failure=lambda _item, failure, _cause: failures.append(failure))
        ensure_layout(tmp_path)
        broker._publish([item])
        for epoch in range(3):
            assert lease.claim(tmp_path, KEY, epoch, "w1",
                               now=float("inf")) is not None
            claimed = state_dir(tmp_path, "claimed") / lease_filename(KEY,
                                                                      epoch)
            stale = time.time() - 100.0
            os.utime(claimed, (stale, stale))
            broker._reap_claims()
        assert counters.lease_expired == 3
        assert counters.retried == 2
        assert [f.kind for f in failures] == [KIND_LEASE_EXPIRED]

    def test_manifest_round_trips_fabric_section(self, tmp_path):
        runner = fabric_runner(tmp_path, grace=0.2, ttl=1.0)
        runner.run(PMP)
        path = runner.write_manifest("unit", tmp_path / "manifests")
        data = json.loads(path.read_text())
        fab = data["extra"]["fabric"]
        assert fab["inline_fallbacks"] == len(SPECS)
        assert fab["lease_expired"] == 0
        assert fab["inline_fallback"] is True
        assert isinstance(fab["workers"], list)


# ------------------------------------------------------------------ CLI

class TestFabricCli:
    def test_fabric_flag_requires_journal(self):
        from repro.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(["fig8", "--fabric", "--no-journal"])
        assert excinfo.value.code == 2

    def test_status_reports_completed_run(self, tmp_path, capsys):
        runner = fabric_runner(tmp_path, grace=0.2, ttl=1.0,
                               run_id="run-status")
        runner.run(PMP)
        from repro.fabric.cli import fabric_main
        assert fabric_main(["status", "--cache-dir", str(tmp_path),
                            "--run-id", "run-status"]) == 0
        out = capsys.readouterr().out
        assert "run-status" in out
        assert "status: complete" in out

    def test_status_without_run_is_an_error(self, tmp_path, capsys):
        from repro.fabric.cli import fabric_main
        assert fabric_main(["status", "--cache-dir", str(tmp_path)]) == 2
