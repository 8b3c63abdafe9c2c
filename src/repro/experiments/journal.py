"""Journaled run ledger: crash-safe resume for experiment batches.

A :class:`RunJournal` owns one directory under ``<root>/runs/<run-id>/``:

* ``meta.json`` — run id, creation time, git SHA (written once);
* ``results/<key>.json`` — one entry per *finished* job, in exactly the
  format the result cache writes (``version``, ``key``, ``checksum`` and
  ``result``, the job's own ``encode(result)`` payload), through the
  same :func:`~repro.experiments.cache.write_entry` and
  :func:`~repro.experiments.cache.read_entry`.  The entry is fsynced and
  renamed into place, and the directory fsynced, before
  :meth:`RunJournal.record_done` returns;
* ``quarantine/`` — entries that failed to parse, verify or decode.

Because jobs are identified by the same content hash the result cache
uses, a resumed run does not need the original job *ordering* — any run
of the same suite maps its jobs onto journal entries by key, replays
them, and re-executes the rest, failed jobs included (the operator
resuming presumably fixed something; failures reach the run manifest
with their tracebacks).

Integrity: each entry stands alone, so a crash mid-write costs at most
the job being written (its staging file is never renamed into place),
and an entry that fails its checksum or its job's ``decode`` is
quarantined, as a corrupt cache entry is, and its job re-simulates.
"""

from __future__ import annotations

import json
import os
import re
import time
import weakref
from pathlib import Path
from typing import Any, Callable

from .cache import UNREADABLE, quarantine_entry, read_entry, write_entry
from .manifest import current_git_sha

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def new_run_id() -> str:
    """A fresh, filesystem-safe run id: ``run-<utc stamp>-<6 hex>``."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"run-{stamp}-{os.urandom(3).hex()}"


class RunJournal:
    """Per-job ledger of completions for one run id.

    Opening an existing run directory indexes its entries (that is what
    ``--resume`` does); opening a fresh id creates it.  Each completion
    is durable once :meth:`record_done` returns, so a SIGKILL loses at
    most the jobs that were in flight.
    """

    def __init__(self, root: str | Path = ".repro-cache/runs",
                 run_id: str | None = None) -> None:
        run_id = run_id or new_run_id()
        if not _RUN_ID_RE.match(run_id):
            raise ValueError(f"invalid run id: {run_id!r}")
        self.root = Path(root)
        self.run_id = run_id
        self.directory = self.root / run_id
        self.meta_path = self.directory / "meta.json"
        self.results_dir = self.directory / "results"
        self.quarantine_dir = self.directory / "quarantine"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        #: Keys of the journaled entries, listed once here: a lookup of
        #: any other key reads nothing from disk.
        self._keys = {name[:-len(".json")]
                      for name in os.listdir(self.results_dir)
                      if name.endswith(".json") and not name.startswith(".")}
        #: Structured {key, path, reason} record per quarantined entry.
        self.corrupt_events: list[dict] = []
        if not self.meta_path.exists():
            self.meta_path.write_text(json.dumps(
                {"run_id": run_id, "created_unix": time.time(),
                 "git_sha": current_git_sha()}, indent=2))
        #: The handle :meth:`record_done` fsyncs each rename through.
        self._dir_fd = os.open(self.results_dir, os.O_RDONLY)
        self._release = weakref.finalize(self, os.close, self._dir_fd)

    @classmethod
    def resume(cls, root: str | Path, run_id: str) -> "RunJournal":
        """Open an existing run for resumption; error if it never ran."""
        directory = Path(root) / run_id
        if not directory.is_dir():
            raise FileNotFoundError(
                f"no journaled run {run_id!r} under {root} "
                f"(expected {directory})")
        return cls(root, run_id)

    def record_done(self, key: str, data: dict) -> None:
        """Journal one completed job's payload (idempotent per key); the
        entry is on stable storage when this returns."""
        if key in self._keys:
            return
        if not self._release.alive:
            raise ValueError(f"run journal {self.run_id} is closed")
        write_entry(self.results_dir, key, data, self._dir_fd)
        self._keys.add(key)

    def lookup(self, key: str, decode: Callable[[dict], Any]) -> Any:
        """``decode`` of the journaled payload for a job key, or None.

        An entry that fails to parse, verify or decode is quarantined and
        reported as None, so its job re-simulates.
        """
        if key not in self._keys:
            return None
        path = self.results_dir / f"{key}.json"
        try:
            return read_entry(path, decode)
        except UNREADABLE as exc:
            self._keys.discard(key)
            self.corrupt_events.append(quarantine_entry(
                path, self.quarantine_dir, f"{type(exc).__name__}: {exc}"))
            return None

    def close(self) -> None:
        """Release the directory handle entries are fsynced through."""
        self._release()

    @property
    def completed(self) -> int:
        return len(self._keys)
