"""Journaled run ledger: crash-safe resume for experiment batches.

A :class:`RunJournal` owns one directory under ``<root>/runs/<run-id>/``:

* ``meta.json`` — run id, creation time, git SHA (written once);
* ``journal.jsonl`` — one append-only record per *finished* job, written
  (and fsynced) the moment the job completes, in the form::

      {"checksum": "<sha256 of the rest>",
       "key": "<SimJob content hash>",
       "status": "done" | "failed",
       "result": {...SimResult.to_dict()...}   # when done
       "failure": {...JobFailure.to_dict()...} # when failed
      }

Because jobs are identified by the same content hash the result cache
uses, a resumed run does not need the original job *ordering* — any run
of the same suite maps its jobs onto journal entries by key, replays the
``done`` ones, and re-executes the rest (``failed`` entries are retried:
the operator resuming presumably fixed something).

Integrity: every line carries a checksum over its own payload, and a
load skips (and counts) lines that are truncated (the crash happened
mid-write) or corrupt, so a mangled journal degrades to re-simulating
the affected jobs instead of poisoning the resume.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import time
from pathlib import Path

from ..sim.stats import SimResult
from .faults import JobFailure
from .manifest import current_git_sha

log = logging.getLogger("repro.experiments.journal")

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def new_run_id() -> str:
    """A fresh, filesystem-safe run id: ``run-<utc stamp>-<6 hex>``."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"run-{stamp}-{os.urandom(3).hex()}"


def _line_checksum(record: dict) -> str:
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class RunJournal:
    """Append-only per-job ledger for one run id.

    Opening an existing run directory loads its journal (that is what
    ``--resume`` does); opening a fresh id creates it.  Records are
    flushed and fsynced per job, so a SIGKILL loses at most the job that
    was in flight.
    """

    def __init__(self, root: str | Path = ".repro-cache/runs",
                 run_id: str | None = None) -> None:
        run_id = run_id or new_run_id()
        if not _RUN_ID_RE.match(run_id):
            raise ValueError(f"invalid run id: {run_id!r}")
        self.root = Path(root)
        self.run_id = run_id
        self.directory = self.root / run_id
        self.journal_path = self.directory / "journal.jsonl"
        self.meta_path = self.directory / "meta.json"
        self.directory.mkdir(parents=True, exist_ok=True)
        #: key -> SimResult for every journaled completion.
        self._done: dict[str, SimResult] = {}
        #: key -> JobFailure for journaled deterministic failures.
        self._failed: dict[str, JobFailure] = {}
        #: Corrupt/truncated journal lines skipped during load.
        self.skipped_lines = 0
        self._load()
        #: The commit a fresh run recorded in ``meta.json`` (None when
        #: reopening a run: its meta names the commit that started it).
        self.git_sha: str | None = None
        if not self.meta_path.exists():
            self.git_sha = current_git_sha()
            self.meta_path.write_text(json.dumps(
                {"run_id": run_id, "created_unix": time.time(),
                 "git_sha": self.git_sha}, indent=2))
        self._fh = self.journal_path.open("a")

    @classmethod
    def resume(cls, root: str | Path, run_id: str) -> "RunJournal":
        """Open an existing run for resumption; error if it never ran.

        The journal is compacted on the way in: resume is the natural
        boundary where dead lines (corrupt tails from the crash being
        resumed, failures since superseded by completions) stop paying
        rent, and compaction is lossless by construction — it snapshots
        exactly the live state a replay consumes.
        """
        directory = Path(root) / run_id
        if not directory.is_dir():
            raise FileNotFoundError(
                f"no journaled run {run_id!r} under {root} "
                f"(expected {directory})")
        journal = cls(root, run_id)
        dropped = journal.compact()
        if dropped:
            log.info("run %s: compacted journal, dropped %d dead line(s)",
                     run_id, dropped)
        return journal

    # ----------------------------------------------------------------- loading

    def _load(self) -> None:
        if not self.journal_path.exists():
            return
        with self.journal_path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    checksum = data.pop("checksum")
                    if checksum != _line_checksum(data):
                        raise ValueError("journal line checksum mismatch")
                    if data["status"] == "done":
                        # A completion supersedes any earlier failure of
                        # the same job (mirrors record_done()).
                        self._done[data["key"]] = SimResult.from_dict(
                            data["result"])
                        self._failed.pop(data["key"], None)
                    elif data["status"] == "failed":
                        if data["key"] not in self._done:
                            self._failed[data["key"]] = JobFailure.from_dict(
                                data["failure"])
                    else:
                        raise ValueError(f"unknown status {data['status']!r}")
                except (ValueError, KeyError, TypeError):
                    # Truncated tail (crash mid-write) or bit rot: the
                    # affected job simply re-runs on resume.
                    self.skipped_lines += 1

    # ---------------------------------------------------------------- recording

    def _append(self, record: dict) -> None:
        record = {"checksum": _line_checksum(record), **record}
        self._fh.write(json.dumps(record, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self.flush()

    def record_done(self, key: str, result: SimResult) -> None:
        """Journal one completed job (idempotent per key)."""
        if key in self._done:
            return
        self._done[key] = result
        self._failed.pop(key, None)
        self._append({"key": key, "status": "done",
                      "result": result.to_dict()})

    def record_failure(self, key: str | None, failure: JobFailure) -> None:
        """Journal one deterministic failure (idempotent per key, like
        :meth:`record_done`; keyless jobs are not stored).

        Retries of an already-failed key keep the first journaled record
        instead of appending a duplicate line per attempt; a later
        completion still supersedes the failure via :meth:`record_done`.
        """
        if key is None or key in self._done or key in self._failed:
            return
        self._failed[key] = failure
        self._append({"key": key, "status": "failed",
                      "failure": failure.to_dict()})

    def compact(self) -> int:
        """Rewrite ``journal.jsonl`` to exactly one line per live key.

        A run that crashed, was resumed, or saw failures later
        superseded by completions carries lines a replay never consumes
        (plus any corrupt tail the crash left).  Compaction snapshots
        the live state — every ``done`` record and every still-standing
        ``failed`` record — into a fresh file written and fsynced next
        to the original and atomically swapped in, so a crash *during*
        compaction leaves one intact journal or the other, never a
        hybrid.  Lossless by construction: the in-memory maps that
        drive replay are exactly what is written back.

        Returns how many lines were dropped.
        """
        before = 0
        if self.journal_path.exists():
            with self.journal_path.open() as fh:
                before = sum(1 for line in fh if line.strip())
        records = [{"key": key, "status": "done", "result": result.to_dict()}
                   for key, result in sorted(self._done.items())]
        records += [{"key": key, "status": "failed",
                     "failure": failure.to_dict()}
                    for key, failure in sorted(self._failed.items())]
        tmp = self.directory / "journal.jsonl.tmp"
        with tmp.open("w") as fh:
            for record in records:
                record = {"checksum": _line_checksum(record), **record}
                fh.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.journal_path)
        self._fh = self.journal_path.open("a")
        self.skipped_lines = 0
        return before - len(records)

    def flush(self) -> None:
        """Push the journal to stable storage (fsync)."""
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()

    # ------------------------------------------------------------------ lookup

    def lookup(self, key: str) -> SimResult | None:
        """The journaled result for a job key (failed entries re-run)."""
        return self._done.get(key)

    def prior_failure(self, key: str) -> JobFailure | None:
        return self._failed.get(key)

    @property
    def completed(self) -> int:
        return len(self._done)

    @property
    def failed(self) -> int:
        return len(self._failed)
