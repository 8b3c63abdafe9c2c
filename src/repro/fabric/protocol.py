"""On-disk protocol shared by the fabric broker and its workers.

Everything the fabric does is a file under one run directory (the same
``<cache-dir>/runs/<run-id>/`` the :class:`~repro.experiments.journal.
RunJournal` owns), so the only coordination primitive required of the
filesystem is POSIX atomic rename — which both local filesystems and
NFS provide::

    runs/<run-id>/
      meta.json                         # run id, creation time, git SHA
      results/<key>.json                # the journal: one entry per
                                        # finished job (broker-owned)
      fabric/
        batch.json                      # {"status": open|paused|complete,
                                        #  "lease_ttl": seconds, ...}
        jobs/<key>.job                  # the pickled job of each key
        leases/
          open/<key>.e<epoch>.json      # published, claimable
          claimed/<key>.e<epoch>.json   # held by a worker (mtime = heartbeat)
          done/<key>.e<epoch>.json      # outcome: checksummed result or failure
        workers/<worker-id>.json        # census entry (mtime = heartbeat)

A lease's filename carries its **key** (the job's content hash — the
same key the cache and journal use) and its **epoch**, a monotonic
fencing token: every broker reassignment bumps the epoch, so a stale
worker's files are recognisable by their lower epoch and can never
clobber the current claim.

The lease directory holds only live work: the broker deletes a key's
payload, lease and outcome record once the engine has taken its outcome
(a result is journaled, as an fsynced entry, by then), so a completed
batch leaves ``batch.json`` and the census.

Writes are atomic (temp file in the same directory, fsync, rename) and
reads are torn-tolerant: :func:`read_json` returns ``None`` for a
missing or unparseable file and callers retry on the next poll.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Iterator

#: batch.json status values.
BATCH_OPEN = "open"          # workers may claim leases
BATCH_PAUSED = "paused"      # broker interrupted; resume will republish
BATCH_COMPLETE = "complete"  # workers should exit

#: Lease state directory names, in lifecycle order.
LEASE_STATES = ("open", "claimed", "done")


# ------------------------------------------------------------------ layout

def fabric_dir(run_dir: str | Path) -> Path:
    return Path(run_dir) / "fabric"


def batch_path(run_dir: str | Path) -> Path:
    return fabric_dir(run_dir) / "batch.json"


def jobs_dir(run_dir: str | Path) -> Path:
    return fabric_dir(run_dir) / "jobs"


def workers_dir(run_dir: str | Path) -> Path:
    return fabric_dir(run_dir) / "workers"


def leases_dir(run_dir: str | Path) -> Path:
    return fabric_dir(run_dir) / "leases"


def state_dir(run_dir: str | Path, state: str) -> Path:
    assert state in LEASE_STATES, state
    return leases_dir(run_dir) / state


def ensure_layout(run_dir: str | Path) -> None:
    """Create the whole fabric directory tree (idempotent)."""
    jobs_dir(run_dir).mkdir(parents=True, exist_ok=True)
    workers_dir(run_dir).mkdir(parents=True, exist_ok=True)
    for state in LEASE_STATES:
        state_dir(run_dir, state).mkdir(parents=True, exist_ok=True)


# ------------------------------------------------------------- atomic file IO

def write_json_atomic(path: str | Path, record: dict) -> None:
    """Publish a record atomically: temp file, fsync, rename."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    with tmp.open("w") as fh:
        json.dump(record, fh, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_json(path: str | Path) -> dict | None:
    """One record, or ``None`` if missing/torn (caller retries next poll)."""
    try:
        with Path(path).open() as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


# ------------------------------------------------------------- lease filenames

def lease_filename(key: str, epoch: int) -> str:
    return f"{key}.e{epoch}.json"


def parse_lease_filename(name: str) -> tuple[str, int] | None:
    """``"<key>.e<epoch>.json"`` → ``(key, epoch)``, else ``None``."""
    if not name.endswith(".json"):
        return None
    key, sep, epoch = name[:-len(".json")].rpartition(".e")
    if not sep or not key or not epoch.isdigit():
        return None
    return key, int(epoch)


def lease_files(run_dir: str | Path,
                state: str) -> Iterator[tuple[str, int, Path]]:
    """``(key, epoch, path)`` for every lease file in one state directory."""
    directory = state_dir(run_dir, state)
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return
    for name in names:
        parsed = parse_lease_filename(name)
        if parsed is not None:
            yield *parsed, directory / name


def scan_leases(run_dir: str | Path, state: str) -> dict[str, tuple[int, Path]]:
    """``key -> (highest epoch, path)`` for one lease state directory.

    Lower-epoch duplicates (stale fencing losers) are ignored; the
    broker unlinks them when it retires the key.
    """
    out: dict[str, tuple[int, Path]] = {}
    for key, epoch, path in lease_files(run_dir, state):
        if key not in out or epoch > out[key][0]:
            out[key] = (epoch, path)
    return out


def heartbeat_age(path: str | Path) -> float | None:
    """Seconds since the file's last heartbeat (mtime), or ``None`` if gone."""
    try:
        return max(0.0, time.time() - Path(path).stat().st_mtime)
    except OSError:
        return None


# ------------------------------------------------------------------- batch

def write_batch(run_dir: str | Path, status: str, total: int,
                lease_ttl: float, run_id: str | None = None) -> None:
    """Publish the batch record; ``lease_ttl`` sets every worker's
    heartbeat cadence (a third of it)."""
    assert status in (BATCH_OPEN, BATCH_PAUSED, BATCH_COMPLETE), status
    write_json_atomic(batch_path(run_dir), {
        "status": status, "total": total, "lease_ttl": lease_ttl,
        "run_id": run_id, "updated_unix": time.time()})


def read_batch(run_dir: str | Path) -> dict | None:
    return read_json(batch_path(run_dir))


# ------------------------------------------------------------- worker census

def new_worker_id(tag: str | None = None) -> str:
    """Filesystem-safe, collision-resistant ``<host>-<pid>-<tag>``
    identity; the tag is random unless given."""
    host = socket.gethostname().replace("/", "_") or "host"
    return f"{host}-{os.getpid()}-{tag or os.urandom(2).hex()}"


def worker_path(run_dir: str | Path, worker_id: str) -> Path:
    return workers_dir(run_dir) / f"{worker_id}.json"


def scan_workers(run_dir: str | Path) -> dict[str, tuple[Path, dict]]:
    """Every census entry ever written: ``worker_id -> (path, record)``."""
    out: dict[str, tuple[Path, dict]] = {}
    directory = workers_dir(run_dir)
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return out
    for name in names:
        if not name.endswith(".json") or name.startswith("."):
            continue
        path = directory / name
        record = read_json(path)
        if record is not None:
            out[name[:-len(".json")]] = (path, record)
    return out
