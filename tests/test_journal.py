"""Units for the fault-tolerance plumbing: journal, checksums, taxonomy.

The chaos tests (``test_chaos.py``) prove the end-to-end recovery
stories; this file pins the individual mechanisms — journal entry
integrity, cache entry checksums, failure classification, the backoff
schedule, and the manifest fields they all feed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import faults
from repro.experiments import manifest as manifest_module
from repro.experiments.cache import (CACHE_VERSION, ResultCache,
                                     result_checksum)
from repro.experiments.engine import SimJob
from repro.experiments.journal import RunJournal, new_run_id
from repro.experiments.manifest import RunManifest, current_git_sha
from repro.experiments.multi_core import MulticoreJob
from repro.experiments.runner import SuiteRunner
from repro.memtrace.workloads import quick_suite
from repro.prefetchers.base import NoPrefetcher, Prefetcher
from tests.chaos import in_worker_process

SPECS = quick_suite()[:1]


@pytest.fixture(scope="module")
def result():
    """One real SimResult to journal and cache."""
    return SuiteRunner(specs=SPECS, accesses=1_000).run(NoPrefetcher)[0]


@pytest.fixture(scope="module")
def data(result):
    """Its payload, as its job hands it to the cache and the journal."""
    return SimJob.encode(result)


decode = SimJob.decode


class TestRunJournal:
    def test_round_trips_done_records(self, tmp_path, result, data):
        journal = RunJournal(tmp_path, "run-a")
        journal.record_done("done-key", data)
        journal.close()

        reopened = RunJournal(tmp_path, "run-a")
        assert reopened.completed == 1
        assert reopened.lookup("done-key", decode) == result
        assert reopened.lookup("missing", decode) is None
        reopened.close()

    def test_entries_are_result_cache_entries(self, tmp_path, result, data):
        """A journal entry is byte for byte the entry the result cache
        writes for the same key, so both stores share one format."""
        journal = RunJournal(tmp_path / "runs", "run-cache-format")
        journal.record_done("k1", data)
        journal.close()
        cache = ResultCache(tmp_path / "cache")
        cache.put("k1", data)
        entry = journal.results_dir / "k1.json"
        assert entry.read_bytes() == cache._path_for("k1").read_bytes()
        assert ResultCache(journal.directory).get("k1", decode) == result

    def test_record_done_is_idempotent_per_key(self, tmp_path, data):
        journal = RunJournal(tmp_path, "run-b")
        journal.record_done("k", data)
        journal.record_done("k", data)
        journal.close()
        reopened = RunJournal(tmp_path, "run-b")
        assert reopened.completed == 1
        assert os.listdir(reopened.results_dir) == ["k.json"]
        reopened.close()

    def test_record_done_is_durable_when_it_returns(self, tmp_path, data,
                                                    monkeypatch):
        """The entry is fsynced before its rename and the directory
        after it, so the completion survives a crash once recorded."""
        journal = RunJournal(tmp_path, "run-sync")
        entry = journal.results_dir / "k1.json"
        synced = []
        fsync = os.fsync

        def recording_fsync(fd):
            synced.append((fd, entry.exists()))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        journal.record_done("k1", data)
        (_, staged_in_place), directory = synced
        assert not staged_in_place           # the staging file, pre-rename
        assert directory == (journal._dir_fd, True)
        journal.close()
        with pytest.raises(ValueError, match="closed"):
            journal.record_done("k2", data)

    def test_completion_after_a_crash_mid_write_replays(self, tmp_path,
                                                        result, data):
        """A crash mid-write costs only the job being written: a
        completion recorded after it, by a journal reopened by run id,
        replays on the next open and after ``--resume``.  (In the
        append-only log this entry layout replaced, the next record
        joined the torn line and failed its checksum on every load.)"""
        journal = RunJournal(tmp_path, "run-x")
        journal.record_done("k1", data)
        journal.close()
        # The crash: half an entry in a staging file, and half an entry
        # renamed into place (a rename the filesystem kept without data).
        torn = '{"checksum": "abc", "key": "k-torn", "sta'
        (journal.results_dir / ".k-torn.json.99999.tmp").write_text(torn)
        (journal.results_dir / "k-torn.json").write_text(torn)

        reopened = RunJournal(tmp_path, "run-x")
        reopened.record_done("k2", data)
        reopened.close()

        again = RunJournal(tmp_path, "run-x")
        assert again.lookup("k2", decode) == result
        assert again.lookup("k-torn", decode) is None
        assert again.completed == 2
        again.close()
        resumed = RunJournal.resume(tmp_path, "run-x")
        assert resumed.completed == 2
        for key in ("k1", "k2"):
            assert resumed.lookup(key, decode) == result
        resumed.close()

    def test_truncated_tail_is_skipped_not_fatal(self, tmp_path, data):
        journal = RunJournal(tmp_path, "run-c")
        journal.record_done("k1", data)
        journal.record_done("k2", data)
        journal.close()
        path = journal.results_dir / "k2.json"
        # Chop the entry in half: a write the crash cut short.
        path.write_text(path.read_text()[:20])

        reopened = RunJournal(tmp_path, "run-c")
        assert reopened.lookup("k1", decode) is not None
        assert reopened.lookup("k2", decode) is None  # re-runs on resume
        assert reopened.completed == 1
        (event,) = reopened.corrupt_events
        assert event["key"] == "k2"
        assert event["reason"].startswith("JSONDecodeError")
        assert (reopened.quarantine_dir / "k2.json").exists()
        assert not path.exists()
        reopened.close()

    def test_tampered_entry_is_quarantined(self, tmp_path, result, data):
        journal = RunJournal(tmp_path, "run-d")
        journal.record_done("k1", data)
        journal.close()
        path = journal.results_dir / "k1.json"
        record = json.loads(path.read_text())
        record["result"]["cycles"] = 12345  # flip a number, keep checksum
        path.write_text(json.dumps(record))

        reopened = RunJournal(tmp_path, "run-d")
        assert reopened.lookup("k1", decode) is None
        assert reopened.completed == 0
        assert "checksum mismatch" in reopened.corrupt_events[0]["reason"]
        # Recorded again, the job's fresh entry replays.
        reopened.record_done("k1", data)
        assert reopened.lookup("k1", decode) == result
        reopened.close()

    def test_corrupt_entry_resimulates_on_resume(self, tmp_path):
        runner = SuiteRunner(specs=quick_suite()[:2], accesses=1_000,
                             journal=RunJournal(tmp_path, "run-corrupt"))
        clean = [r.to_dict() for r in runner.run(NoPrefetcher)]
        runner.journal.close()
        entry = sorted(runner.journal.results_dir.glob("*.json"))[0]
        entry.write_text(entry.read_text()[:-40])

        resumed = SuiteRunner(specs=quick_suite()[:2], accesses=1_000,
                              journal=RunJournal.resume(tmp_path,
                                                        "run-corrupt"))
        assert [r.to_dict() for r in resumed.run(NoPrefetcher)] == clean
        counters = resumed.engine.counters
        assert (counters.simulated, counters.journal_replayed) == (1, 1)
        manifest = resumed.manifest("unit")
        assert manifest.quarantined == 1
        (event,) = manifest.extra["fault_tolerance"]["quarantine_events"]
        assert event["key"] == entry.stem
        resumed.journal.close()

    def test_meta_records_run_identity(self, tmp_path):
        journal = RunJournal(tmp_path, "run-e")
        meta = json.loads(journal.meta_path.read_text())
        assert meta["run_id"] == "run-e"
        assert meta["git_sha"]
        journal.close()

    def test_run_id_validation_and_resume_errors(self, tmp_path):
        with pytest.raises(ValueError):
            RunJournal(tmp_path, "../escape")
        with pytest.raises(FileNotFoundError):
            RunJournal.resume(tmp_path, "never-ran")
        assert new_run_id() != new_run_id()
        assert new_run_id().startswith("run-")


class TestCacheIntegrity:
    def test_entries_carry_version_and_checksum(self, tmp_path, result, data):
        cache = ResultCache(tmp_path)
        cache.put("key1", data)
        entry = json.loads(next(cache.results_dir.glob("*.json")).read_text())
        assert entry["version"] == CACHE_VERSION
        assert entry["checksum"] == result_checksum(entry["result"])
        assert cache.get("key1", decode) == result
        assert cache.corrupt == 0

    def test_simjob_entry_bytes_are_the_pinned_format(self, tmp_path, result):
        """A single-core entry is the same bytes as before the stores took
        payloads, so caches and journals written then replay now."""
        d = result.to_dict()
        expected = json.dumps({"version": CACHE_VERSION, "key": "k",
                               "checksum": result_checksum(d), "result": d})
        cache = ResultCache(tmp_path / "cache")
        cache.put("k", SimJob.encode(result))
        journal = RunJournal(tmp_path / "runs", "run-bytes")
        journal.record_done("k", SimJob.encode(result))
        journal.close()
        assert cache._path_for("k").read_text() == expected
        assert (journal.results_dir / "k.json").read_text() == expected

    def test_checksum_mismatch_quarantines_as_miss(self, tmp_path, data):
        cache = ResultCache(tmp_path)
        cache.put("key1", data)
        path = cache._path_for("key1")
        entry = json.loads(path.read_text())
        entry["result"]["cycles"] = 999
        path.write_text(json.dumps(entry))

        fresh = ResultCache(tmp_path)
        assert fresh.get("key1", decode) is None
        assert fresh.corrupt == 1
        assert (fresh.quarantine_dir / "key1.json").exists()
        assert not path.exists()
        assert "checksum mismatch" in fresh.corrupt_events[0]["reason"]
        # A later probe of the same key is a plain miss, not re-quarantine.
        assert fresh.get("key1", decode) is None
        assert fresh.corrupt == 1

    @pytest.mark.parametrize("garble, reader", [
        (lambda d: d, MulticoreJob.decode),               # KeyError
        (lambda d: {"cores": 3}, MulticoreJob.decode),    # TypeError
        (lambda d: {**d, "levels": []}, SimJob.decode),   # AttributeError
    ], ids=["single-core-entry", "cores-not-a-list", "levels-not-a-dict"])
    def test_entry_that_verifies_but_does_not_decode_is_quarantined(
            self, tmp_path, data, garble, reader):
        """The checksum holds, but the job cannot read the payload: both
        stores quarantine the entry and report None, so it re-simulates."""
        payload = garble(data)
        cache = ResultCache(tmp_path / "cache")
        cache.put("k", payload)
        journal = RunJournal(tmp_path / "runs", "run-undecodable")
        journal.record_done("k", payload)
        stores = ((cache, cache.get), (journal, journal.lookup))
        for store, read in stores:
            assert read("k", reader) is None
            (event,) = store.corrupt_events
            assert event["key"] == "k"
            assert (store.quarantine_dir / "k.json").exists()
            assert read("k", reader) is None   # gone: a plain miss now
        assert cache.corrupt == 1 and journal.completed == 0
        journal.close()

    def test_requarantined_key_keeps_prior_evidence(self, tmp_path, data):
        # Regression: quarantine destinations used to be `<key>.json`
        # unconditionally, so a key corrupted, re-simulated, and
        # corrupted again silently overwrote the first corpse — exactly
        # the recurring-corruption evidence a post-mortem needs.
        cache = ResultCache(tmp_path)

        def corrupt_and_probe():
            cache.put("key1", data)
            path = cache._path_for("key1")
            entry = json.loads(path.read_text())
            entry["result"]["cycles"] = 999
            path.write_text(json.dumps(entry))
            assert cache.get("key1", decode) is None

        corrupt_and_probe()
        corrupt_and_probe()
        corrupt_and_probe()
        assert cache.corrupt == 3
        assert (cache.quarantine_dir / "key1.json").exists()
        assert (cache.quarantine_dir / "key1.1.json").exists()
        assert (cache.quarantine_dir / "key1.2.json").exists()
        # Each event points at the file actually written.
        paths = [event["path"] for event in cache.corrupt_events]
        assert len(set(paths)) == 3

    def test_concurrent_writers_share_a_directory(self, tmp_path, result,
                                                  data):
        # Regression: every writer staged an entry at the fixed name
        # `<key>.tmp`, so a second process renamed it away under the
        # first, whose own rename then raised FileNotFoundError.
        result_path = tmp_path / "result.json"
        result_path.write_text(json.dumps(data))
        cache_dir = tmp_path / "cache"
        ready = [str(tmp_path / "ready-a"), str(tmp_path / "ready-b")]
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH":
               f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
        writers = [subprocess.Popen(
            [sys.executable, "-c", _PUT_LOOP, str(cache_dir),
             str(result_path), mine, peer],
            env=env, stderr=subprocess.PIPE, text=True)
            for mine, peer in (ready, ready[::-1])]
        try:
            for writer in writers:
                _, stderr = writer.communicate(timeout=120)
                assert writer.returncode == 0, stderr
        finally:
            for writer in writers:
                writer.kill()
                writer.wait()

        cache = ResultCache(cache_dir)
        assert len(cache) == 5
        for key in range(5):
            assert cache.get(f"key{key}", decode) == result
        assert cache.corrupt == 0
        assert list(cache.results_dir.glob(".*.tmp")) == []


class TestClassification:
    def test_worker_exception_is_deterministic(self):
        """A job that raises inside a lease worker is a deterministic
        failure, not a transport fault: one ``raise`` record per job with
        the worker's error type and traceback, and no lease retried."""
        specs = quick_suite()[:2]
        runner = SuiteRunner(specs=specs, accesses=1_000, workers=2)
        with pytest.raises(faults.BatchFailed) as excinfo:
            runner.run(_RaisesInWorker)
        failures = excinfo.value.failures
        assert sorted(f.index for f in failures) == [0, 1]
        for failure in failures:
            assert failure.kind == faults.KIND_RAISE
            assert failure.attempts == 1
            assert failure.label == f"{specs[failure.index].name}/raises"
            assert failure.error_type == "ValueError"
            assert "_raise_value_error" in failure.traceback
        counters = runner.engine.counters
        assert counters.failed == 2
        assert counters.retried == 0
        assert counters.lease_expired == 0
        assert counters.timed_out == 0


class TestGitSha:
    """One commit lookup per process, asked in the package's directory."""

    @staticmethod
    def package_sha() -> str:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             cwd=Path(manifest_module.__file__).parent,
                             capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"

    def test_manifest_records_the_package_commit_not_the_cwds(
            self, tmp_path, monkeypatch):
        other = tmp_path / "other-repo"
        other.mkdir()
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
        subprocess.run([*git, "init", "-q"], cwd=other, check=True)
        subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "x"],
                       cwd=other, check=True)
        other_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=other,
                                   capture_output=True, text=True,
                                   check=True).stdout.strip()
        monkeypatch.chdir(other)
        current_git_sha.cache_clear()
        sha = RunManifest(experiment="unit").git_sha
        assert sha == self.package_sha()
        assert sha != other_sha

    def test_two_fresh_journals_spawn_git_once(self, tmp_path, monkeypatch):
        calls = []
        run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(manifest_module.subprocess, "run", counting_run)
        current_git_sha.cache_clear()
        for run_id in ("run-a", "run-b"):
            journal = RunJournal(tmp_path, run_id)
            assert json.loads(journal.meta_path.read_text())["git_sha"] == (
                current_git_sha())
            journal.close()
        assert len(calls) == 1


class TestFaultPolicy:
    def test_backoff_grows_geometrically_and_caps(self, monkeypatch):
        monkeypatch.setattr(faults, "BACKOFF_MAX", 3.0)
        assert [faults.backoff(i) for i in (1, 2, 3, 4, 5)] == [
            0.5, 1.0, 2.0, 3.0, 3.0]


class TestManifestFaultFields:
    def test_fault_fields_round_trip(self, tmp_path):
        manifest = RunManifest(experiment="unit", run_id="run-x", failed=1,
                               retried=2, timed_out=3, quarantined=4)
        loaded = RunManifest.load(manifest.write(tmp_path))
        assert (loaded.run_id, loaded.failed, loaded.retried,
                loaded.timed_out, loaded.quarantined) == ("run-x", 1, 2, 3, 4)

    def test_old_manifests_without_fault_fields_still_load(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"experiment": "old", "jobs": 3}))
        loaded = RunManifest.load(path)
        assert loaded.failed == 0
        assert loaded.run_id is None


#: One cache writer: waits until its peer has started too, then puts the
#: same payload under five keys, 400 times each.
_PUT_LOOP = """
import json, sys, time
from pathlib import Path
from repro.experiments.cache import ResultCache

directory, result_path, mine, peer = sys.argv[1:]
data = json.loads(Path(result_path).read_text())
cache = ResultCache(directory)
Path(mine).touch()
deadline = time.monotonic() + 60
while not Path(peer).exists():
    if time.monotonic() > deadline:
        sys.exit("peer writer never started")
    time.sleep(0.001)
for _ in range(400):
    for key in range(5):
        cache.put(f"key{key}", data)
"""


def _raise_value_error():
    raise ValueError("deterministic worker failure")


class _RaisesInWorker(Prefetcher):
    """Raises on its first demand access, but only in a worker process,
    so a job run in the test process would not fail."""

    name = "raises"

    def on_access(self, pc, address, cycle, hit, view):
        if in_worker_process():
            _raise_value_error()
        return []
