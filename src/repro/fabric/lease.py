"""The lease state machine: publish → claim → heartbeat → done or reaped.

State transitions are filesystem renames, so each is atomic and each
race has exactly one winner:

* **claim** — ``rename(open/<k>.e<N>, claimed/<k>.e<N>)``.  Two workers
  racing for the same lease both call rename with the same source; POSIX
  guarantees one succeeds and the other gets ``ENOENT`` and moves on.
* **heartbeat** — the holder renews ``claimed/<k>.e<N>`` by bumping the
  file's mtime through an fsynced fd.  An fd-based touch can never
  *recreate* a reaped lease file (``utime`` on a path would), so a stale
  holder cannot resurrect its claim — the rename fence holds.
* **reap** — the broker republishes an expired claim as
  ``open/<k>.e<N+1>`` (with a ``not_before`` backoff stamp) and unlinks
  the stale claim.  The epoch bump is the fencing token: any
  file a dead-but-not-yet-gone worker leaves behind carries an older
  epoch and is swept, never trusted.
* **done** — the holder lands its outcome, a result or a structured
  failure, as one checksummed record in ``done/`` and drops its claim.
  Outcomes are accepted *per key*, not per epoch: a job's ``run()`` is
  deterministic, so a stale epoch's outcome is the current one's and
  consuming whichever lands first is sound (the journal is idempotent
  per key — the exactly-once argument lives there).
"""

from __future__ import annotations

import base64
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path

from ..experiments.cache import result_checksum
from .protocol import (lease_filename, read_json, state_dir,
                       write_json_atomic)


@dataclass
class FabricConfig:
    """The broker's knobs for one fabric run.

    The broker writes ``lease_ttl`` into ``batch.json``, and every
    worker, forked or external, heartbeats at a third of it, so a worker
    never needs to be told the TTL of the batch it serves.

    The expiry math: a worker heartbeats every ``lease_ttl / 3``
    seconds; the broker declares a claim dead once it has watched the
    claim for ``lease_ttl`` and its last heartbeat is older than
    ``lease_ttl``.  A worker killed right after a beat is therefore
    detected within ``lease_ttl + poll_interval`` seconds of the claim
    (or of the beat, if later), and three consecutive beats must be
    lost before a live-but-slow worker can be reaped.  A batch with no
    live worker and no landed outcome for ``lease_ttl`` fails its
    remaining jobs.
    """

    #: Seconds without a heartbeat before a claimed lease is reaped.
    lease_ttl: float = 60.0
    #: Broker lease-scan cadence (and its forked workers' idle poll).
    poll_interval: float = 0.5


# ----------------------------------------------------------------- transitions

def publish(run_dir: str | Path, key: str, epoch: int,
            not_before: float = 0.0) -> Path:
    """Create (or republish) an open lease, claimable from the
    ``time.time()`` stamp ``not_before`` on; returns its path."""
    path = state_dir(run_dir, "open") / lease_filename(key, epoch)
    write_json_atomic(path, {"key": key, "epoch": epoch,
                             "not_before": not_before})
    return path


def claim(run_dir: str | Path, key: str, epoch: int,
          worker_id: str, now: float | None = None) -> dict | None:
    """Try to claim an open lease; ``None`` if lost the race or backed off.

    The rename *is* the claim; the enriched record written afterwards is
    bookkeeping (the broker only needs the claim file's mtime until it
    reaps, and a reap re-reads whatever content is present).  Until that
    write the claim still carries the lease's publish-time mtime, which
    is why the broker judges no heartbeat it has watched for less than
    ``lease_ttl``.
    """
    src = state_dir(run_dir, "open") / lease_filename(key, epoch)
    record = read_json(src)
    if record is None:
        return None
    if record.get("not_before", 0.0) > (time.time() if now is None else now):
        return None  # reassignment backoff window still running
    dst = state_dir(run_dir, "claimed") / lease_filename(key, epoch)
    try:
        os.rename(src, dst)
    except OSError:
        return None  # another worker won the rename race
    record.update(worker=worker_id, claimed_unix=time.time())
    write_json_atomic(dst, record)
    return record


def heartbeat(path: str | Path) -> bool:
    """Renew a claim (or census entry): fsynced mtime bump, never creating.

    Returns ``False`` when the file is gone — the lease was reaped (or
    completed) out from under the caller.  The fd-based touch means a
    racing reap leaves the holder renewing an orphaned inode, which is
    harmless; it can never re-materialise the claim filename.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return False
    try:
        os.utime(fd)
        os.fsync(fd)
    except OSError:
        return False
    finally:
        os.close(fd)
    return True


def reap(run_dir: str | Path, key: str, epoch: int,
         not_before: float) -> Path:
    """Republish an expired claim as epoch+1 and drop the stale file."""
    path = publish(run_dir, key, epoch + 1, not_before)
    drop(run_dir, key, epoch)
    return path


def complete(run_dir: str | Path, record: dict, result: dict | None = None,
             *, failure: dict | None = None) -> Path:
    """Land a claim's outcome — a finished job's result, or the structured
    ``failure`` of one that raised — as one checksummed ``done/`` record,
    and drop the claim."""
    key, epoch = record["key"], record["epoch"]
    kind, value = ("result", result) if failure is None else ("failure",
                                                              failure)
    path = state_dir(run_dir, "done") / lease_filename(key, epoch)
    write_json_atomic(path, {
        "key": key, "epoch": epoch, "worker": record.get("worker"),
        "checksum": result_checksum(value), kind: value})
    drop(run_dir, key, epoch)
    return path


def drop(run_dir: str | Path, key: str, epoch: int) -> None:
    """Give up a claim without an outcome."""
    (state_dir(run_dir, "claimed") / lease_filename(key, epoch)).unlink(
        missing_ok=True)


def verified_outcome(record: dict | None) -> tuple[str, dict] | None:
    """``("result", dict)`` or ``("failure", dict)`` from a ``done/``
    record whose checksum verifies; ``None`` for a torn or tampered one."""
    for kind in ("result", "failure"):
        value = (record or {}).get(kind)
        if isinstance(value, dict):
            if result_checksum(value) != record.get("checksum"):
                return None
            return kind, value
    return None


def encode_exception(exc: BaseException) -> str | None:
    """A worker's exception as text for its failure record (so a
    ``fail_fast`` broker raises the original), or ``None``."""
    try:
        return base64.b64encode(pickle.dumps(exc)).decode("ascii")
    except (pickle.PicklingError, TypeError, AttributeError):
        return None


def decode_exception(text: str | None) -> BaseException | None:
    """The exception :func:`encode_exception` stored, or ``None``."""
    try:
        exc = pickle.loads(base64.b64decode(text or ""))
    except Exception:  # noqa: BLE001 -- unreadable: fall back to the text
        return None
    return exc if isinstance(exc, BaseException) else None
