"""Process-shaped fabric faults: SIGKILL, silent partitions, hung jobs,
claim races.

These drills run *real* ``pmp-repro fabric worker`` subprocesses against
a broker embedded in the test process and aim faults at the worst
moments — a worker killed while holding a claim, a worker alive but
silent (frozen heartbeat) whose lease must be taken over, a job that
hangs while its worker keeps heartbeating, two claimants racing one
rename.  The recovery contract is the same as everywhere in
the chaos suite: the batch completes with numbers bit-identical to a
clean serial run, and the expiry/reassignment story is visible in the
counters afterwards.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from tests.chaos import (FaultyPrefetcher, claim_holder_pid,
                         spawn_fabric_worker, wait_for,
                         wait_for_fabric_claim)
from repro.experiments.journal import RunJournal
from repro.experiments.runner import SuiteRunner
from repro.fabric import FabricConfig, FabricWorker
from repro.fabric import lease
from repro.fabric.protocol import (ensure_layout, lease_filename,
                                   read_json, scan_workers, state_dir)
from repro.memtrace.workloads import quick_suite
from repro.prefetchers.pmp import PMP

SPECS = quick_suite()[:2]
ACCESSES = 3_000


def result_dicts(results):
    return [r.to_dict() for r in results]


def start_worker_thread(tmp_path, run_id) -> threading.Thread:
    """An in-process worker: it serves at once, where a subprocess would
    first spend its interpreter start-up."""
    worker = FabricWorker(root=tmp_path / "runs", run_id=run_id,
                          poll_interval=0.05, max_idle=30.0)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def clean_outcome():
    runner = SuiteRunner(specs=SPECS, accesses=ACCESSES)
    return result_dicts(runner.run(PMP))


def fabric_runner(tmp_path, run_id, *, ttl=1.5, **kwargs):
    journal = RunJournal(tmp_path / "runs", run_id)
    config = FabricConfig(lease_ttl=ttl, poll_interval=0.05)
    return SuiteRunner(specs=SPECS, accesses=ACCESSES, journal=journal,
                       fabric=config, **kwargs)


@pytest.mark.slow
class TestSigkilledWorker:
    def test_sigkill_mid_lease_recovers_bit_identical(self, tmp_path,
                                                      clean_outcome):
        """A worker dies holding a claim; the lease expires, the job is
        reassigned to a replacement worker, and the final numbers are
        untouched."""
        run_id = "run-sigkill"
        # The broker gives up on a batch with no live worker after
        # lease_ttl: 3 s covers the victim's interpreter start-up.
        runner = fabric_runner(tmp_path, run_id, ttl=3.0)
        run_dir = tmp_path / "runs" / run_id
        # claim_hold parks the worker *after* claiming, so the SIGKILL
        # reliably lands mid-lease, before any result exists.
        proc = spawn_fabric_worker(tmp_path, run_id=run_id, claim_hold=30.0)
        replacement = []

        def kill_once_claimed():
            record = wait_for_fabric_claim(run_dir)
            assert claim_holder_pid(record) == proc.pid
            proc.kill()
            replacement.append(start_worker_thread(tmp_path, run_id))

        killer = threading.Thread(target=kill_once_claimed, daemon=True)
        killer.start()
        results = runner.run(PMP)
        killer.join(timeout=30.0)
        proc.wait(timeout=30.0)
        assert not killer.is_alive()
        (thread,) = replacement
        thread.join(timeout=30.0)
        assert not thread.is_alive()

        assert result_dicts(results) == clean_outcome
        counters = runner.engine.counters
        assert counters.lease_expired >= 1      # the orphaned claim aged out
        assert counters.retried >= 1            # ...and was republished
        assert counters.fabric_completed == len(SPECS)  # by the replacement
        assert counters.failed == 0
        fab = runner.manifest("unit").extra["fabric"]
        assert fab["lease_expired"] >= 1
        assert any(w.get("pid") == proc.pid for w in fab["workers"])


@pytest.mark.slow
class TestFrozenHeartbeat:
    def test_stale_lease_taken_over_by_second_worker(self, tmp_path,
                                                     clean_outcome):
        """A live-but-silent worker's claim goes stale and a healthy
        worker takes the reassigned lease over."""
        run_id = "run-freeze"
        # The frozen worker stops counting as live lease_ttl after it
        # registers; 3 s covers the healthy worker's interpreter
        # start-up before the broker gives up on the batch.
        runner = fabric_runner(tmp_path, run_id, ttl=3.0)
        run_dir = tmp_path / "runs" / run_id
        frozen = spawn_fabric_worker(tmp_path, run_id=run_id,
                                     claim_hold=60.0, freeze_heartbeat=True)
        healthy = {"proc": None}

        def start_healthy_after_freeze_claims():
            wait_for_fabric_claim(run_dir)
            healthy["proc"] = spawn_fabric_worker(tmp_path, run_id=run_id)

        orchestrator = threading.Thread(
            target=start_healthy_after_freeze_claims, daemon=True)
        orchestrator.start()
        try:
            results = runner.run(PMP)
        finally:
            frozen.kill()
            frozen.wait(timeout=30.0)
        orchestrator.join(timeout=30.0)
        assert healthy["proc"] is not None
        healthy["proc"].wait(timeout=30.0)

        assert result_dicts(results) == clean_outcome
        counters = runner.engine.counters
        assert counters.lease_expired >= 1      # the frozen claim was reaped
        assert counters.retried >= 1
        assert counters.fabric_completed == len(SPECS)  # all done by workers
        assert counters.failed == 0


@pytest.mark.slow
class TestHungJob:
    @pytest.mark.parametrize("workers", ["external", "local"])
    def test_hung_job_reaped_within_deadline_then_retried(
            self, tmp_path, monkeypatch, clean_outcome, workers):
        """A job hangs while its worker keeps heartbeating: the deadline
        reaps its lease within ``job_timeout`` plus one poll, and the
        retry lands a bit-identical result.  An external holder is
        fenced off and left to finish; a local one is killed."""
        timeout, poll = 1.0, 0.05
        held = []
        reap = lease.reap

        def timed_reap(run_dir, key, epoch, not_before):
            claim = read_json(state_dir(run_dir, "claimed")
                              / lease_filename(key, epoch))
            held.append(time.time() - claim["claimed_unix"])
            return reap(run_dir, key, epoch, not_before)

        monkeypatch.setattr(lease, "reap", timed_reap)
        local = workers == "local"
        runner = fabric_runner(tmp_path, "run-hang", ttl=1.5,
                               job_timeout=timeout,
                               workers=2 if local else 0)
        threads = []
        if not local:   # in-process stand-ins for external workers
            threads = [start_worker_thread(tmp_path, "run-hang")
                       for _ in range(2)]
        results = runner.run(lambda: FaultyPrefetcher(
            mode="hang", latch_dir=tmp_path / "latch", hang_seconds=4.0,
            only_in_worker=local))
        for thread in threads:   # the fenced holder wakes and exits
            thread.join(timeout=30.0)
            assert not thread.is_alive()

        assert result_dicts(results) == clean_outcome
        counters = runner.engine.counters
        assert counters.timed_out == 1
        assert counters.retried == 1
        assert counters.lease_expired == 0  # the heartbeat never went stale
        assert counters.fabric_completed == len(SPECS)
        assert counters.failed == 0
        assert len(held) == 1 and held[0] <= timeout + poll + 0.5


def process_alive(pid: int) -> bool:
    """True while ``pid`` runs (an exited, unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.slow
class TestBrokerDeath:
    def test_local_workers_exit_with_a_killed_broker(self, tmp_path):
        """SIGKILL a ``--workers 2`` run mid-batch: its forked workers
        exit too, instead of serving a batch no one will close."""
        src = Path(__file__).resolve().parent.parent / "src"
        broker = subprocess.Popen(
            [sys.executable, "-m", "repro", "fig8", "--workers", "2",
             "--traces", "2", "--accesses", "20000", "--no-cache",
             "--cache-dir", str(tmp_path), "--run-id", "run-orphans"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        run_dir = tmp_path / "runs" / "run-orphans"
        try:
            wait_for(lambda: len(scan_workers(run_dir)) == 2, timeout=60.0)
            pids = [record["pid"] for _path, record
                    in scan_workers(run_dir).values()]
        finally:
            broker.kill()
            broker.wait(timeout=30.0)
        try:
            wait_for(lambda: not any(map(process_alive, pids)), timeout=30.0)
        finally:   # never leave an orphan behind, even on failure
            for pid in filter(process_alive, pids):
                os.kill(pid, signal.SIGKILL)


class TestDuplicateClaimRace:
    def test_exactly_one_racer_wins(self, tmp_path):
        """N threads race one open lease through the rename gate."""
        ensure_layout(tmp_path)
        key = "b" * 16
        lease.publish(tmp_path, key, 0)
        barrier = threading.Barrier(8)
        wins: list[dict] = []
        lock = threading.Lock()

        def racer(worker_id: str):
            barrier.wait()
            record = lease.claim(tmp_path, key, 0, worker_id)
            if record is not None:
                with lock:
                    wins.append(record)

        threads = [threading.Thread(target=racer, args=(f"w{i}",))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(wins) == 1
        # The winner's completion lands normally despite the stampede.
        done = lease.complete(tmp_path, wins[0], {"answer": 1})
        assert done.exists()

    def test_race_repeats_deterministically(self, tmp_path):
        """Same invariant across many rounds (rename gates don't flake)."""
        ensure_layout(tmp_path)
        for round_index in range(10):
            key = f"{round_index:02d}" + "c" * 14
            lease.publish(tmp_path, key, 0)
            results = []
            barrier = threading.Barrier(4)

            def racer(worker_id, key=key):
                barrier.wait()
                results.append(lease.claim(tmp_path, key, 0, worker_id))

            threads = [threading.Thread(target=racer, args=(f"w{i}",))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert sum(1 for r in results if r is not None) == 1


@pytest.mark.slow
class TestWorkerCliLifecycle:
    def test_worker_exits_cleanly_when_no_batch_appears(self, tmp_path):
        proc = spawn_fabric_worker(tmp_path, max_idle=0.5)
        assert proc.wait(timeout=30.0) == 3  # EXIT_NO_RUN

    def test_worker_serves_batch_and_exits_zero(self, tmp_path,
                                                clean_outcome):
        run_id = "run-clean-worker"
        # A generous lease_ttl: the broker must not give up on the batch
        # while the worker's interpreter starts.
        runner = fabric_runner(tmp_path, run_id, ttl=10.0)
        proc = spawn_fabric_worker(tmp_path, run_id=run_id)
        results = runner.run(PMP)
        assert proc.wait(timeout=30.0) == 0
        assert result_dicts(results) == clean_outcome
        assert runner.engine.counters.fabric_completed == len(SPECS)
