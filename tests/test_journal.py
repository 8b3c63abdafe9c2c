"""Units for the fault-tolerance plumbing: journal, checksums, taxonomy.

The chaos tests (``test_chaos.py``) prove the end-to-end recovery
stories; this file pins the individual mechanisms — journal line
integrity, cache entry checksums, failure classification, backoff
schedule, and the manifest fields they all feed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.experiments.cache import (CACHE_VERSION, ResultCache,
                                     result_checksum)
from repro.experiments.faults import (FaultPolicy, JobFailure,
                                      failure_from_exception,
                                      has_remote_traceback,
                                      is_transport_failure)
from repro.experiments.journal import RunJournal, new_run_id
from repro.experiments.manifest import RunManifest
from repro.experiments.runner import SuiteRunner
from repro.memtrace.workloads import quick_suite
from repro.prefetchers.base import NoPrefetcher

SPECS = quick_suite()[:1]


@pytest.fixture(scope="module")
def result():
    """One real SimResult to journal and cache."""
    return SuiteRunner(specs=SPECS, accesses=1_000).run(NoPrefetcher)[0]


def failure(key="k1", kind="raise"):
    return JobFailure(index=0, key=key, trace_name="t", prefetcher_name="p",
                      kind=kind, error_type="ValueError", message="boom",
                      traceback="Traceback ...")


class TestRunJournal:
    def test_round_trips_done_and_failed_records(self, tmp_path, result):
        journal = RunJournal(tmp_path, "run-a")
        journal.record_done("done-key", result)
        journal.record_failure("failed-key", failure("failed-key"))
        journal.close()

        reopened = RunJournal(tmp_path, "run-a")
        assert reopened.completed == 1
        assert reopened.failed == 1
        assert reopened.skipped_lines == 0
        assert reopened.lookup("done-key").to_dict() == result.to_dict()
        assert reopened.lookup("missing") is None
        assert reopened.prior_failure("failed-key").message == "boom"
        reopened.close()

    def test_record_done_is_idempotent_and_clears_failure(self, tmp_path,
                                                          result):
        journal = RunJournal(tmp_path, "run-b")
        journal.record_failure("k", failure("k"))
        journal.record_done("k", result)
        journal.record_done("k", result)
        journal.close()
        reopened = RunJournal(tmp_path, "run-b")
        assert reopened.completed == 1
        assert reopened.failed == 0
        reopened.close()

    def test_record_failure_is_idempotent_per_key(self, tmp_path, result):
        # Regression: every retry of a failing job used to append another
        # journal line for the same key, bloating the ledger one line per
        # attempt.  Failure records are now keyed like completions.
        journal = RunJournal(tmp_path, "run-f")
        for _ in range(4):
            journal.record_failure("k", failure("k"))
        journal.record_failure(None, failure(None))  # keyless: not stored
        journal.close()
        lines = [ln for ln in
                 journal.journal_path.read_text().splitlines() if ln]
        assert len(lines) == 1

        reopened = RunJournal(tmp_path, "run-f")
        assert reopened.failed == 1
        assert reopened.completed == 0
        # A later completion still supersedes the journaled failure.
        reopened.record_done("k", result)
        assert reopened.failed == 0
        assert reopened.completed == 1
        reopened.close()

    def test_truncated_tail_is_skipped_not_fatal(self, tmp_path, result):
        journal = RunJournal(tmp_path, "run-c")
        journal.record_done("k1", result)
        journal.record_done("k2", result)
        journal.close()
        path = journal.journal_path
        # Chop the last record in half: a crash mid-write.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1] + [lines[-1][:20]]) + "\n")

        reopened = RunJournal(tmp_path, "run-c")
        assert reopened.completed == 1
        assert reopened.skipped_lines == 1
        assert reopened.lookup("k1") is not None
        assert reopened.lookup("k2") is None  # re-runs on resume
        reopened.close()

    def test_tampered_line_fails_its_checksum(self, tmp_path, result):
        journal = RunJournal(tmp_path, "run-d")
        journal.record_done("k1", result)
        journal.close()
        path = journal.journal_path
        record = json.loads(path.read_text())
        record["result"]["cycles"] = 12345  # flip a number, keep checksum
        path.write_text(json.dumps(record) + "\n")

        reopened = RunJournal(tmp_path, "run-d")
        assert reopened.completed == 0
        assert reopened.skipped_lines == 1
        reopened.close()

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


class TestJournalCompaction:
    def _lines(self, journal):
        return [ln for ln in
                journal.journal_path.read_text().splitlines() if ln]

    def test_compact_drops_dead_lines_losslessly(self, tmp_path, result):
        journal = RunJournal(tmp_path, "run-g")
        journal.record_failure("k1", failure("k1"))
        journal.record_done("k1", result)   # supersedes the failure line
        journal.record_done("k2", result)
        journal.record_failure("k3", failure("k3"))
        # A corrupt tail, as a crash mid-write would leave it.
        journal._fh.write('{"torn"\n')
        journal.flush()

        dropped = journal.compact()
        assert dropped == 2  # the superseded failure + the torn tail
        assert len(self._lines(journal)) == 3
        assert journal.skipped_lines == 0
        # The live state is untouched, on disk and in memory.
        assert journal.completed == 2
        assert journal.failed == 1
        assert journal.lookup("k1").to_dict() == result.to_dict()
        journal.close()
        reopened = RunJournal(tmp_path, "run-g")
        assert reopened.completed == 2
        assert reopened.failed == 1
        assert reopened.skipped_lines == 0
        assert reopened.lookup("k2").to_dict() == result.to_dict()
        assert reopened.prior_failure("k3").message == "boom"
        reopened.close()

    def test_compact_keeps_appending_afterwards(self, tmp_path, result):
        journal = RunJournal(tmp_path, "run-h")
        journal.record_failure("k1", failure("k1"))
        journal.record_done("k1", result)
        journal.compact()
        journal.record_done("k2", result)  # the reopened handle appends
        journal.close()
        reopened = RunJournal(tmp_path, "run-h")
        assert reopened.completed == 2
        assert reopened.skipped_lines == 0
        reopened.close()

    def test_compact_of_clean_journal_is_a_no_op(self, tmp_path, result):
        journal = RunJournal(tmp_path, "run-i")
        journal.record_done("k1", result)
        before = self._lines(journal)
        assert journal.compact() == 0
        assert self._lines(journal) == before
        journal.close()

    def test_resume_compacts(self, tmp_path, result):
        journal = RunJournal(tmp_path, "run-j")
        journal.record_failure("k1", failure("k1"))
        journal.record_done("k1", result)
        journal._fh.write('{"torn"\n')
        journal.close()

        resumed = RunJournal.resume(tmp_path, "run-j")
        assert len(self._lines(resumed)) == 1
        assert resumed.completed == 1
        assert resumed.failed == 0
        resumed.close()


class TestCacheIntegrity:
    def test_entries_carry_version_and_checksum(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put("key1", result)
        data = json.loads(next(cache.results_dir.glob("*.json")).read_text())
        assert data["version"] == CACHE_VERSION
        assert data["checksum"] == result_checksum(data["result"])
        assert cache.get("key1").to_dict() == result.to_dict()
        assert cache.corrupt == 0

    def test_checksum_mismatch_quarantines_as_miss(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put("key1", result)
        path = cache._path_for("key1")
        data = json.loads(path.read_text())
        data["result"]["cycles"] = 999
        path.write_text(json.dumps(data))

        fresh = ResultCache(tmp_path)
        assert fresh.get("key1") is None
        assert fresh.misses == 1
        assert fresh.corrupt == 1
        assert (fresh.quarantine_dir / "key1.json").exists()
        assert not path.exists()
        assert "checksum mismatch" in fresh.corrupt_events[0]["reason"]
        # A later probe of the same key is a plain miss, not re-quarantine.
        assert fresh.get("key1") is None
        assert fresh.corrupt == 1

    def test_requarantined_key_keeps_prior_evidence(self, tmp_path, result):
        # Regression: quarantine destinations used to be `<key>.json`
        # unconditionally, so a key corrupted, re-simulated, and
        # corrupted again silently overwrote the first corpse — exactly
        # the recurring-corruption evidence a post-mortem needs.
        cache = ResultCache(tmp_path)

        def corrupt_and_probe():
            cache.put("key1", result)
            path = cache._path_for("key1")
            data = json.loads(path.read_text())
            data["result"]["cycles"] = 999
            path.write_text(json.dumps(data))
            assert cache.get("key1") is None

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

    def test_concurrent_writers_share_a_directory(self, tmp_path, result):
        # Regression: every writer staged an entry at the fixed name
        # `<key>.tmp`, so a second process renamed it away under the
        # first, whose own rename then raised FileNotFoundError.
        result_path = tmp_path / "result.json"
        result_path.write_text(json.dumps(result.to_dict()))
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
            assert cache.get(f"key{key}").to_dict() == result.to_dict()
        assert cache.corrupt == 0
        assert list(cache.results_dir.glob(".*.tmp")) == []


class TestClassification:
    def test_worker_exception_is_deterministic(self):
        with ProcessPoolExecutor(max_workers=1) as pool:
            exc = pool.submit(_raise_value_error).exception()
        assert has_remote_traceback(exc)
        assert not is_transport_failure(exc)
        recorded = failure_from_exception(0, "k", "t", "p", "raise", exc)
        assert recorded.error_type == "ValueError"
        assert "_raise_value_error" in recorded.traceback

    def test_unpicklable_payload_is_transport(self):
        with ProcessPoolExecutor(max_workers=1) as pool:
            exc = pool.submit(_identity, _Unpicklable()).exception()
        assert exc is not None
        assert not has_remote_traceback(exc)
        assert is_transport_failure(exc)

    def test_broken_pool_is_transport(self):
        assert is_transport_failure(BrokenExecutor("pool died"))

    def test_plain_local_exception_is_transport(self):
        assert is_transport_failure(OSError("no pipe"))


class TestFaultPolicy:
    def test_backoff_grows_geometrically_and_caps(self):
        policy = FaultPolicy(backoff_base=0.5, backoff_factor=2.0,
                             backoff_max=3.0)
        assert [policy.backoff(i) for i in (1, 2, 3, 4, 5)] == [
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
#: same five keys 400 times each.
_PUT_LOOP = """
import json, sys, time
from pathlib import Path
from repro.experiments.cache import ResultCache
from repro.sim.stats import SimResult

directory, result_path, mine, peer = sys.argv[1:]
result = SimResult.from_dict(json.loads(Path(result_path).read_text()))
cache = ResultCache(directory)
Path(mine).touch()
deadline = time.monotonic() + 60
while not Path(peer).exists():
    if time.monotonic() > deadline:
        sys.exit("peer writer never started")
    time.sleep(0.001)
for _ in range(400):
    for key in range(5):
        cache.put(f"key{key}", result)
"""


def _raise_value_error():
    raise ValueError("deterministic worker failure")


def _identity(obj):
    return obj


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("deliberately unpicklable")
