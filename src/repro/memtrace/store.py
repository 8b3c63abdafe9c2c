"""On-disk trace store: build the suite once, reuse across experiment runs.

Full-suite experiments (125 traces) spend most of their time regenerating
identical traces.  :class:`TraceStore` caches built traces under a
directory keyed by (name, seed, build digest, length), in the compact
binary format, so a second `pmp-repro --full-suite` run skips generation
entirely.  The build digest (:attr:`WorkloadSpec.digest`) covers the
recipe, a ChampSim source file's size and mtime, the trace-building code
and the numpy version, so a change to any of them builds afresh.  A file
that is not a trace, or holds fewer accesses than its header states, is
deleted and rebuilt; a new file is written under a temporary name and
renamed into place, so no reader sees it half-written.

>>> store = TraceStore("/tmp/pmp-traces")
>>> trace = store.get(quick_suite()[0], accesses=30_000)   # builds + saves
>>> trace = store.get(quick_suite()[0], accesses=30_000)   # loads from disk
"""

from __future__ import annotations

import os
from pathlib import Path

from .trace import Trace
from .workloads import WorkloadSpec


class TraceStore:
    """Directory-backed cache of built workload traces."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path_for(self, spec: WorkloadSpec, accesses: int) -> Path:
        return self.directory / (f"{spec.name}-s{spec.seed}-{spec.digest}"
                                 f"-n{accesses}.pmptrc")

    def get(self, spec: WorkloadSpec, accesses: int) -> Trace:
        """Load the trace from disk, building and saving it on first use."""
        path = self._path_for(spec, accesses)
        if path.exists():
            try:
                trace = Trace.load_binary(path)
            except (ValueError, OSError):
                path.unlink(missing_ok=True)  # corrupt cache entry: rebuild
            else:
                self.hits += 1
                return trace
        self.misses += 1
        trace = spec.build(accesses)
        # Staged under a hidden per-process name and renamed into place,
        # as ResultCache.put does: a reader never sees a partial file.
        tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
        trace.save_binary(tmp)
        os.replace(tmp, path)
        return trace

    def build_all(self, specs: list[WorkloadSpec], accesses: int) -> list[Trace]:
        """Fetch (or build) every spec at the given length."""
        return [self.get(spec, accesses) for spec in specs]

    def clear(self) -> int:
        """Delete all cached traces; returns how many files were removed."""
        removed = 0
        for path in self.directory.glob("*.pmptrc"):
            path.unlink()
            removed += 1
        return removed
