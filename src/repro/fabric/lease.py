"""The lease state machine: publish → claim → heartbeat → done/failed/reaped.

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
  ``open/<k>.e<N+1>`` (attempts+1, a ``not_before`` backoff stamp) and
  unlinks the stale claim.  The epoch bump is the fencing token: any
  file a dead-but-not-yet-gone worker leaves behind carries an older
  epoch and is swept, never trusted.
* **done / failed** — the holder writes a checksummed result (or a
  structured failure) into ``done/``/``failed/`` and drops its claim.
  Completions are accepted *per key*, not per epoch: ``simulate()`` is
  deterministic, so a stale epoch's result is byte-identical to the
  current one and consuming whichever lands first is sound (the journal
  is idempotent per key — the exactly-once argument lives there).
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
    """Knobs governing one fabric run (broker and workers share them).

    The expiry math: a worker heartbeats every ``heartbeat_interval``
    seconds (default ``lease_ttl / 3``); the broker declares a claim
    dead when its last heartbeat is older than ``lease_ttl``.  A worker
    killed right after a beat is therefore detected within
    ``lease_ttl + poll_interval`` seconds, and three consecutive beats
    must be lost before a live-but-slow worker can be reaped.
    """

    #: Seconds without a heartbeat before a claimed lease is reaped.
    lease_ttl: float = 60.0
    #: Heartbeat cadence; ``None`` derives ``lease_ttl / 3``.
    heartbeat_interval: float | None = None
    #: Broker/worker scan cadence.
    poll_interval: float = 0.5
    #: Seconds with zero live workers (and no progress) before the
    #: broker degrades to in-process execution — or, with
    #: ``inline_fallback`` off, fails the remaining jobs.
    worker_grace: float = 15.0
    #: Complete the batch in-process when every worker is gone (the
    #: PR-4 pool-collapse semantics).  ``False`` turns worker loss into
    #: structured lease-expired failures instead.
    inline_fallback: bool = True

    def beat_interval(self) -> float:
        if self.heartbeat_interval is not None:
            return max(0.01, self.heartbeat_interval)
        return max(0.01, self.lease_ttl / 3.0)


# ----------------------------------------------------------------- transitions

def publish(run_dir: str | Path, key: str, epoch: int, record: dict) -> Path:
    """Create (or republish) an open lease; returns its path."""
    path = state_dir(run_dir, "open") / lease_filename(key, epoch)
    write_json_atomic(path, {**record, "key": key, "epoch": epoch})
    return path


def claim(run_dir: str | Path, key: str, epoch: int,
          worker_id: str, now: float | None = None) -> dict | None:
    """Try to claim an open lease; ``None`` if lost the race or backed off.

    The rename *is* the claim; the enriched record written afterwards is
    bookkeeping (the broker only needs the claim file's mtime until it
    reaps, and a reap re-reads whatever content is present).
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
    path = os.fspath(path)
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return False
    try:
        if os.utime in os.supports_fd:
            os.utime(fd)
        else:  # pragma: no cover - exotic platforms
            os.utime(path)
        os.fsync(fd)
    except OSError:
        return False
    finally:
        os.close(fd)
    return True


def reap(run_dir: str | Path, key: str, epoch: int, record: dict,
         not_before: float) -> Path:
    """Republish an expired claim as epoch+1 and drop the stale file."""
    record = dict(record)
    record.pop("worker", None)
    record.pop("claimed_unix", None)
    record["attempts"] = int(record.get("attempts", 0)) + 1
    record["not_before"] = not_before
    path = publish(run_dir, key, epoch + 1, record)
    stale = state_dir(run_dir, "claimed") / lease_filename(key, epoch)
    stale.unlink(missing_ok=True)
    return path


def complete(run_dir: str | Path, record: dict, result_dict: dict) -> Path:
    """Land a finished job's result (checksummed) and release the claim."""
    key, epoch = record["key"], record["epoch"]
    path = state_dir(run_dir, "done") / lease_filename(key, epoch)
    write_json_atomic(path, {
        "key": key, "epoch": epoch, "worker": record.get("worker"),
        "completed_unix": time.time(),
        "checksum": result_checksum(result_dict), "result": result_dict})
    claimed = state_dir(run_dir, "claimed") / lease_filename(key, epoch)
    claimed.unlink(missing_ok=True)
    return path


def fail(run_dir: str | Path, record: dict, failure: dict) -> Path:
    """Report a deterministic in-simulation failure and release the claim."""
    key, epoch = record["key"], record["epoch"]
    path = state_dir(run_dir, "failed") / lease_filename(key, epoch)
    write_json_atomic(path, {
        "key": key, "epoch": epoch, "worker": record.get("worker"),
        "failed_unix": time.time(), "failure": failure})
    claimed = state_dir(run_dir, "claimed") / lease_filename(key, epoch)
    claimed.unlink(missing_ok=True)
    return path


def release(run_dir: str | Path, record: dict) -> bool:
    """Hand an unstartable claim straight back (payload missing, etc.)."""
    key, epoch = record["key"], record["epoch"]
    src = state_dir(run_dir, "claimed") / lease_filename(key, epoch)
    dst = state_dir(run_dir, "open") / lease_filename(key, epoch)
    try:
        os.rename(src, dst)
    except OSError:
        return False
    return True


def verified_result(record: dict | None) -> dict | None:
    """The result payload of a done record iff its checksum verifies."""
    if not record or "result" not in record or "checksum" not in record:
        return None
    result = record["result"]
    if not isinstance(result, dict):
        return None
    if result_checksum(result) != record["checksum"]:
        return None
    return result


def encode_exception(exc: BaseException) -> str | None:
    """A worker's exception as text for its ``failed/`` record (so a
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
