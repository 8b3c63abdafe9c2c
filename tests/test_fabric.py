"""Lease fabric: state-machine units and in-process end-to-end runs.

The contract under test mirrors the rest of the fault-tolerance suite:
however the machinery is distributed (worker threads, local workers,
resume after the fact), a fabric run's numbers must be **bit-identical**
to a plain serial run's, a batch without workers fails loudly instead
of hanging, and everything the fabric did must be visible in the
counters and the manifest afterwards.  Process-shaped faults
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
from repro.experiments import engine as engine_module
from repro.experiments import faults
from repro.experiments.engine import EngineCounters
from repro.experiments.faults import (KIND_LEASE_EXPIRED, KIND_RAISE,
                                      BatchFailed, FaultPolicy)
from repro.experiments.journal import RunJournal
from repro.experiments.runner import SuiteRunner
from repro.fabric import FabricBroker, FabricConfig, FabricWorker
from repro.fabric import broker as broker_module
from repro.fabric import lease
from repro.fabric import protocol
from repro.fabric import worker as worker_module
from repro.fabric.protocol import (BATCH_COMPLETE, BATCH_OPEN, LEASE_STATES,
                                   ensure_layout, jobs_dir, lease_filename,
                                   parse_lease_filename, read_batch,
                                   read_json, scan_leases, state_dir)
from repro.memtrace.workloads import quick_suite
from repro.prefetchers.pmp import PMP
from repro.sim.stats import SimResult

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


def fabric_runner(tmp_path, *, ttl=5.0, run_id=None,
                  **kwargs) -> SuiteRunner:
    journal = RunJournal(tmp_path / "runs", run_id)
    config = FabricConfig(lease_ttl=ttl, poll_interval=0.05)
    return SuiteRunner(specs=SPECS, accesses=ACCESSES, journal=journal,
                       fabric=config, **kwargs)


class StubJob:
    """A trivial picklable job: only its label."""

    label = "t/p"


def stub_item(key=KEY, index=0):
    """A work item with a trivial payload, for driving a broker by hand."""
    return SimpleNamespace(key=key, index=index, twins=[], job=StubJob())


def stub_broker(run_dir, *, ttl=1.0, failures=None, **kwargs):
    """A broker over stub items whose failures land in ``failures``."""
    failures = [] if failures is None else failures
    return FabricBroker(
        run_dir=run_dir, run_id=None, config=FabricConfig(lease_ttl=ttl),
        policy=FaultPolicy(), counters=EngineCounters(),
        on_failure=lambda _item, failure, _cause: failures.append(failure),
        **kwargs)


def watch_claim(broker, key, seconds):
    """Pretend the broker first saw ``key``'s claim ``seconds`` ago."""
    broker._state[key].claim_seen -= seconds


def assert_no_live_work(run_dir):
    """The lease directory holds only live work: none after a batch."""
    assert not os.listdir(jobs_dir(run_dir))
    for state in LEASE_STATES:
        assert not os.listdir(state_dir(run_dir, state)), state


def start_worker_threads(tmp_path, count=2):
    workers = [FabricWorker(root=tmp_path / "runs", poll_interval=0.05,
                            max_idle=30.0)
               for _ in range(count)]
    threads = [threading.Thread(target=worker.run, daemon=True)
               for worker in workers]
    for thread in threads:
        thread.start()
    return workers, threads


# ------------------------------------------------------------------- units

class TestLeaseStateMachine:
    def _open_lease(self, run_dir, key=KEY, epoch=0, not_before=0.0):
        ensure_layout(run_dir)
        return lease.publish(run_dir, key, epoch, not_before)

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
        """The republished lease carries the bumped epoch; the attempt
        count lives in the broker's state, not in the record."""
        broker = stub_broker(tmp_path, on_result=None)
        ensure_layout(tmp_path)
        broker._publish([stub_item()])
        lease.claim(tmp_path, KEY, 0, "w1")
        broker._expire(KEY, reason="unit")
        republished = read_json(state_dir(tmp_path, "open")
                                / lease_filename(KEY, 1))
        assert republished["epoch"] == 1
        assert broker._state[KEY].attempts == 1
        assert "worker" not in republished
        stale = state_dir(tmp_path, "claimed") / lease_filename(KEY, 0)
        assert not stale.exists()
        # A reaped holder's heartbeat must fail, never resurrect the file.
        assert lease.heartbeat(stale) is False
        assert not stale.exists()

    def test_records_carry_only_the_fields_something_reads(self, tmp_path):
        """One lease through publish → claim → reap → claim → complete:
        the broker reads a lease's key, epoch, ``not_before`` and
        worker, a hold time is measured from ``claimed_unix``, and the
        census is read for pid, host, jobs done and exit."""
        broker = stub_broker(tmp_path, on_result=None)
        ensure_layout(tmp_path)
        broker._publish([stub_item()])

        def keys(state, epoch):
            return set(read_json(state_dir(tmp_path, state)
                                 / lease_filename(KEY, epoch)))

        published = {"key", "epoch", "not_before"}
        claimed = published | {"worker", "claimed_unix"}
        assert keys("open", 0) == published
        lease.claim(tmp_path, KEY, 0, "w1")
        assert keys("claimed", 0) == claimed
        broker._expire(KEY, reason="unit")
        assert keys("open", 1) == published
        record = lease.claim(tmp_path, KEY, 1, "w2", now=float("inf"))
        assert keys("claimed", 1) == claimed
        lease.complete(tmp_path, record, {"answer": 42})
        assert keys("done", 1) == {"key", "epoch", "worker", "checksum",
                                   "result"}

        worker = FabricWorker(root=tmp_path, worker_id="w1")
        census = protocol.worker_path(tmp_path, "w1")
        worker._register(tmp_path)
        assert set(read_json(census)) == {"pid", "host", "jobs_done"}
        worker._register(tmp_path, final=True)
        assert set(read_json(census)) == {"pid", "host", "jobs_done",
                                          "exited_unix"}

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
        assert lease.verified_outcome(read_json(done_path)) == (
            "result", {"answer": 42})
        assert not (state_dir(tmp_path, "claimed")
                    / lease_filename(KEY, 0)).exists()
        # Tampered payload fails verification instead of being consumed.
        tampered = read_json(done_path)
        tampered["result"]["answer"] = 43
        done_path.write_text(json.dumps(tampered))
        assert lease.verified_outcome(read_json(done_path)) is None
        # A failure is the same done/ record, checksummed the same way.
        self._open_lease(tmp_path, epoch=1)
        record = lease.claim(tmp_path, KEY, 1, "w1")
        failure = {"error_type": "ValueError", "message": "boom"}
        failed_path = lease.complete(tmp_path, record, failure=failure)
        assert failed_path.parent == state_dir(tmp_path, "done")
        assert lease.verified_outcome(read_json(failed_path)) == (
            "failure", failure)
        assert not (state_dir(tmp_path, "claimed")
                    / lease_filename(KEY, 1)).exists()
        tampered = read_json(failed_path)
        tampered["failure"]["message"] = "bang"
        failed_path.write_text(json.dumps(tampered))
        assert lease.verified_outcome(read_json(failed_path)) is None

    def test_claim_without_payload_is_dropped(self, tmp_path):
        """A key retired while its lease was being claimed has no
        payload: the worker drops the claim and lands no outcome."""
        run_dir = tmp_path / "run"
        self._open_lease(run_dir)
        worker = FabricWorker(root=tmp_path, worker_id="w1")
        record = worker._claim_next(run_dir)
        assert record is not None
        worker._execute(run_dir, record)
        assert_no_live_work(run_dir)
        assert worker.jobs_done == 0

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
        assert counters.failed == 0
        assert sum(w.jobs_done for w in workers) == len(SPECS)
        fab = runner.manifest("unit").extra["fabric"]
        assert fab["completed_by_workers"] == len(SPECS)
        assert sum(w.get("jobs_done", 0) for w in fab["workers"]) >= len(SPECS)

    def test_default_worker_heartbeats_at_the_batch_lease_ttl(
            self, tmp_path, clean_outcome):
        """A worker built with default settings serves a batch with a
        1 s lease TTL: it reads the TTL from ``batch.json`` and
        heartbeats at a third of it, so a claim held past the TTL is
        never reaped."""
        ttl = 1.0
        runner = fabric_runner(tmp_path, ttl=ttl, run_id="run-short-ttl")
        worker = FabricWorker(root=tmp_path / "runs", claim_hold=1.5 * ttl)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        results = runner.run(PMP)
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert result_dicts(results) == clean_outcome
        counters = runner.engine.counters
        assert counters.lease_expired == 0
        assert counters.retried == 0
        assert counters.fabric_completed == worker.jobs_done == len(SPECS)

    def test_zero_workers_without_fallback_fails_structured(
            self, tmp_path, clean_outcome):
        """No worker ever appears: after ``lease_ttl`` without a live
        worker or a landed outcome, every job becomes a lease-expired
        JobFailure and the batch a BatchFailed — never a hang, and the
        broker simulates nothing itself.  Resuming the run with workers
        finishes it."""
        ttl = 0.5
        runner = fabric_runner(tmp_path, ttl=ttl, run_id="run-collapse")
        started = time.monotonic()
        with pytest.raises(BatchFailed) as excinfo:
            runner.run(PMP)
        assert time.monotonic() - started < ttl + 5.0
        failures = excinfo.value.failures
        assert len(failures) == len(SPECS)
        assert all(f.kind == KIND_LEASE_EXPIRED for f in failures)
        assert all("transport fault" in f.message for f in failures)
        assert all("no live workers" in f.message for f in failures)
        counters = runner.engine.counters
        assert (counters.simulated, counters.fabric_completed) == (0, 0)
        assert counters.lease_expired == len(SPECS)
        assert runner.journal.completed == 0
        assert len(runner.manifest("unit").extra["fault_tolerance"][
            "failures"]) == len(SPECS)
        assert_no_live_work(runner.journal.directory)
        runner.journal.close()

        journal = RunJournal.resume(tmp_path / "runs", "run-collapse")
        resumed = SuiteRunner(specs=SPECS, accesses=ACCESSES, workers=2,
                              journal=journal)
        assert result_dicts(resumed.run(PMP)) == clean_outcome
        assert resumed.engine.counters.simulated == len(SPECS)
        assert resumed.engine.counters.fabric_completed == len(SPECS)

    def test_identical_jobs_share_one_lease(self, tmp_path):
        """Two jobs with one key get one lease whose result fills both
        slots; a lease per job would collide on the shared key and leave
        one slot empty.  The serial path runs each key once too."""
        specs = quick_suite()[:2]
        serial_runner = SuiteRunner(specs=specs, accesses=2_000)
        serial = serial_runner.matrix({"a": PMP, "b": PMP})
        runner = SuiteRunner(specs=specs, accesses=2_000, workers=2,
                             journal=RunJournal(tmp_path / "runs"),
                             fabric=FabricConfig(poll_interval=0.05))
        matrix = runner.matrix({"a": PMP, "b": PMP})
        for name in ("a", "b"):
            assert result_dicts(matrix[name]) == result_dicts(serial[name])
        for counters in (serial_runner.engine.counters,
                         runner.engine.counters):
            assert counters.simulated == len(specs)
            assert counters.reused == len(specs)

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
        runner = fabric_runner(tmp_path, ttl=1.0, workers=2,
                               run_id="run-fabric-resume")
        runner.run(PMP)
        runner.journal.close()
        journal = RunJournal.resume(tmp_path / "runs", "run-fabric-resume")
        replay = SuiteRunner(specs=SPECS, accesses=ACCESSES, journal=journal)
        results = replay.run(PMP)
        assert result_dicts(results) == clean_outcome
        assert replay.engine.counters.journal_replayed == len(SPECS)
        assert replay.engine.counters.simulated == 0

    def test_restarted_broker_harvests_a_landed_result(
            self, tmp_path, clean_outcome, monkeypatch):
        """Results a worker landed while no broker ran (it died before
        journaling them) are consumed by the next broker without
        simulating, and deleted once journaled."""
        runner = fabric_runner(tmp_path, run_id="run-harvest")
        run_dir = runner.journal.directory
        ensure_layout(run_dir)
        jobs = runner._jobs(PMP, None)
        for job, result in zip(jobs, clean_outcome):
            lease.publish(run_dir, job.key(), 0)
            lease.complete(run_dir, lease.claim(run_dir, job.key(), 0,
                                                "w-lost"), result)

        def no_simulation(*_args, **_kwargs):
            raise AssertionError("a harvested job was simulated again")

        monkeypatch.setattr(engine_module, "simulate", no_simulation)
        results = runner.run(PMP)
        assert result_dicts(results) == clean_outcome
        counters = runner.engine.counters
        assert counters.fabric_completed == len(SPECS)
        assert runner.journal.completed == len(SPECS)
        assert_no_live_work(run_dir)


class TestCleanRunDirectory:
    """Each key's payload, leases and outcome record are deleted once
    its outcome is journaled, however the key leaves the batch."""

    def local_runner(self, tmp_path, run_id):
        return SuiteRunner(specs=SPECS, accesses=ACCESSES, workers=2,
                           journal=RunJournal(tmp_path / "runs", run_id))

    def test_completed_batch_leaves_no_live_work(self, tmp_path,
                                                 clean_outcome):
        runner = self.local_runner(tmp_path, "run-clean")
        assert result_dicts(runner.run(PMP)) == clean_outcome
        run_dir = runner.journal.directory
        assert_no_live_work(run_dir)
        assert read_batch(run_dir)["status"] == BATCH_COMPLETE
        assert sorted(os.listdir(run_dir)) == ["fabric", "meta.json",
                                               "results"]
        assert len(os.listdir(run_dir / "results")) == len(SPECS)

    def test_failed_batch_leaves_no_live_work(self, tmp_path,
                                              clean_outcome):
        runner = self.local_runner(tmp_path, "run-raise")
        with pytest.raises(BatchFailed) as excinfo:
            runner.run(lambda: FaultyPrefetcher(
                mode="raise", latch_dir=tmp_path / "latch"))
        (failure,) = excinfo.value.failures
        assert failure.kind == KIND_RAISE
        assert result_dicts([r for r in excinfo.value.results if r]) == [
            outcome for index, outcome in enumerate(clean_outcome)
            if index != failure.index]
        assert_no_live_work(runner.journal.directory)

    def test_exhausted_retries_leave_no_live_work(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(faults, "MAX_ATTEMPTS", 1)
        runner = self.local_runner(tmp_path, "run-exhausted")
        with pytest.raises(BatchFailed) as excinfo:
            runner.run(lambda: FaultyPrefetcher(
                mode="crash", latch_dir=tmp_path / "latch"))
        assert [f.kind for f in excinfo.value.failures] == [
            KIND_LEASE_EXPIRED]
        assert runner.engine.counters.lease_expired == 1
        assert_no_live_work(runner.journal.directory)


class TestCampaignScale:
    def test_broker_work_grows_linearly_with_jobs(self, tmp_path,
                                                  monkeypatch):
        """Outcomes land one per wake-up.  The broker reads each outcome
        record once and lists only live work, so doubling a campaign at
        most doubles its lease-filename parses and record reads; listing
        every consumed record again on each wake-up made them grow with
        the square of the batch."""
        counts = {"parses": 0, "reads": 0}
        parse, read = protocol.parse_lease_filename, broker_module.read_json

        def counting_parse(name):
            counts["parses"] += 1
            return parse(name)

        def counting_read(path):
            counts["reads"] += 1
            return read(path)

        monkeypatch.setattr(protocol, "parse_lease_filename", counting_parse)
        monkeypatch.setattr(broker_module, "read_json", counting_read)
        result = SimResult(trace_name="t", prefetcher_name="p",
                           instructions=1, cycles=1.0).to_dict()
        per_batch = {}
        for jobs in (1_000, 2_000):
            run_dir = tmp_path / f"campaign-{jobs}"
            keys = [f"{index:05d}" + "k" * 11 for index in range(jobs)]
            landing = iter(keys)
            placed = []

            def land_one(run_dir=run_dir, landing=landing):
                """The broker asks once per wake-up: land one outcome,
                as a worker would."""
                key = next(landing, None)
                if key is not None:
                    lease.complete(run_dir, lease.claim(run_dir, key, 0,
                                                        "w1"), result)
                return False

            broker = stub_broker(
                run_dir, ttl=60.0, should_stop=land_one,
                on_result=lambda item, _result, placed=placed:
                placed.append(item.index))
            counts.update(parses=0, reads=0)
            assert broker.run([stub_item(key, index)
                               for index, key in enumerate(keys)]) == (
                BATCH_COMPLETE)
            assert sorted(placed) == list(range(jobs))
            assert_no_live_work(run_dir)
            per_batch[jobs] = dict(counts)
        small, large = per_batch[1_000], per_batch[2_000]
        assert small["reads"] <= 2 * 1_000
        assert large["parses"] <= 2 * small["parses"]
        assert large["reads"] <= 2 * small["reads"]


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
        failures = []
        broker = stub_broker(tmp_path, failures=failures, on_result=None)
        ensure_layout(tmp_path)
        broker._publish([stub_item()])
        for epoch in range(3):
            assert lease.claim(tmp_path, KEY, epoch, "w1",
                               now=float("inf")) is not None
            claimed = state_dir(tmp_path, "claimed") / lease_filename(KEY,
                                                                      epoch)
            stale = time.time() - 100.0
            os.utime(claimed, (stale, stale))
            broker._reap_claims()           # first sight of the claim
            watch_claim(broker, KEY, 1.0)   # ...lease_ttl ago
            broker._reap_claims()
        counters = broker.counters
        assert counters.lease_expired == 3
        assert counters.retried == 2
        assert [f.kind for f in failures] == [KIND_LEASE_EXPIRED]
        assert_no_live_work(tmp_path)

    def test_fresh_claim_of_an_old_lease_is_not_reaped(self, tmp_path):
        """A claim keeps its lease's publish-time mtime until the claimer
        rewrites the record, so a lease that waited longer than
        ``lease_ttl`` in ``open/`` must not be reaped the moment it is
        claimed; a heartbeat that stays frozen is reaped once the broker
        has watched the claim for ``lease_ttl``."""
        broker = stub_broker(tmp_path, ttl=60.0, on_result=None)
        ensure_layout(tmp_path)
        broker._publish([stub_item()])
        opened = state_dir(tmp_path, "open") / lease_filename(KEY, 0)
        waited = time.time() - 120.0
        os.utime(opened, (waited, waited))
        # lease.claim's rename, caught before its record rewrite.
        os.rename(opened, state_dir(tmp_path, "claimed")
                  / lease_filename(KEY, 0))
        broker._reap_claims()
        counters = broker.counters
        assert (counters.lease_expired, counters.retried) == (0, 0)
        assert not scan_leases(tmp_path, "open")
        watch_claim(broker, KEY, 60.0)
        broker._reap_claims()
        assert (counters.lease_expired, counters.retried) == (1, 1)
        assert scan_leases(tmp_path, "open")[KEY][0] == 1

    def test_manifest_round_trips_fabric_section(self, tmp_path):
        runner = fabric_runner(tmp_path, ttl=1.0, workers=2)
        runner.run(PMP)
        path = runner.write_manifest("unit", tmp_path / "manifests")
        data = json.loads(path.read_text())
        fab = data["extra"]["fabric"]
        assert fab["completed_by_workers"] == len(SPECS)
        assert fab["lease_expired"] == 0
        assert fab["lease_ttl"] == 1.0
        assert len(fab["workers"]) == 2


# ------------------------------------------------------------------ CLI

class TestFabricCli:
    def test_fabric_flag_requires_journal(self):
        from repro.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(["fig8", "--fabric", "--no-journal"])
        assert excinfo.value.code == 2

    def test_status_reports_completed_run(self, tmp_path, capsys):
        runner = fabric_runner(tmp_path, ttl=1.0, workers=2,
                               run_id="run-status")
        runner.run(PMP)
        from repro.fabric.cli import fabric_main
        assert fabric_main(["status", "--cache-dir", str(tmp_path),
                            "--run-id", "run-status"]) == 0
        out = capsys.readouterr().out
        assert "run-status" in out
        assert "status: complete" in out

    def test_worker_takes_no_lease_ttl(self, capsys):
        """The broker's TTL reaches every worker through ``batch.json``,
        so ``fabric worker`` has no TTL of its own to get wrong."""
        from repro.fabric.cli import fabric_main
        with pytest.raises(SystemExit) as excinfo:
            fabric_main(["worker", "--lease-ttl", "2"])
        assert excinfo.value.code == 2
        assert "--lease-ttl" in capsys.readouterr().err

    def test_status_without_run_is_an_error(self, tmp_path, capsys):
        from repro.fabric.cli import fabric_main
        assert fabric_main(["status", "--cache-dir", str(tmp_path)]) == 2
