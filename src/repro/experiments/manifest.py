"""Run manifests: one JSON observability record per experiment run.

A manifest captures what was run (experiment name, trace names, config
fingerprint), where (git SHA), how (worker count, cache directory), and
what it cost (wall time, simulate() calls, cache hit/miss counts).  The
CI smoke job and the warm-cache acceptance test both assert on these
records, and they make "why was this rerun slow/fast?" answerable after
the fact.
"""

from __future__ import annotations

import functools
import json
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


@functools.cache
def current_git_sha() -> str:
    """The commit this package's code is checked out at, or ``"unknown"``
    outside a git work tree or without git.

    ``git`` runs in the package's own directory, so a run started inside
    another repository still records this code's commit; it runs once
    per process.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


@dataclass
class RunManifest:
    """Everything worth recording about one experiment run."""

    experiment: str
    git_sha: str = field(default_factory=current_git_sha)
    created_unix: float = field(default_factory=time.time)
    config_fingerprint: str = ""
    workers: int = 0
    accesses: int = 0
    traces: list[str] = field(default_factory=list)
    jobs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    simulated: int = 0
    wall_seconds: float = 0.0
    cache_dir: str | None = None
    # ---- fault tolerance (see repro.experiments.faults) ----
    #: Journal id of this run; pass to ``--resume`` after an interrupt.
    run_id: str | None = None
    #: Jobs that ended as structured JobFailure records (tracebacks under
    #: ``extra["fault_tolerance"]["failures"]``).
    failed: int = 0
    #: Job executions re-run after a transport fault (a reaped lease).
    retried: int = 0
    #: Leases reaped past the job deadline.
    timed_out: int = 0
    #: Corrupt cache and journal entries moved to quarantine in this run.
    quarantined: int = 0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def write(self, directory: str | Path) -> Path:
        """Write ``<experiment>-<timestamp-ms>.json`` under ``directory``.

        Never overwrites: a manifest written in the same millisecond as
        another of its experiment takes the first free suffixed name
        (``<experiment>-<timestamp-ms>.1.json``, ``.2.json``…).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        stem = f"{self.experiment}-{int(self.created_unix * 1000)}"
        path, suffix = directory / f"{stem}.json", 0
        while True:
            try:
                with path.open("x") as fh:
                    json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
                return path
            except FileExistsError:
                suffix += 1
                path = directory / f"{stem}.{suffix}.json"

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        """Read a manifest back (tolerates unknown future fields)."""
        with Path(path).open() as fh:
            data = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})
