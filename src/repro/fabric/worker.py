"""The fabric worker: claim, heartbeat, simulate, land the result, repeat.

A worker is an independent process — ``pmp-repro fabric worker``, one
the broker forks for a ``--workers N`` batch, or, in tests, a plain
thread — pointed at a runs root.  It discovers an open batch, registers
a census entry, and loops: claim an open lease (atomic rename; losing
the race just means trying the next one), load the pickled job, call
its ``run()``, and land the outcome as one checksummed ``done/`` record:

* success → the result in the job's own ``encode`` form (the broker
  verifies it before journaling — a truncated write is a transport
  fault, not a wrong number);
* a deterministic exception from ``run()`` → a structured failure
  carrying the traceback (the broker never retries those);
* a missing payload → no outcome: the broker retired that key (the
  engine already took its outcome), so the claim is dropped.

A forked worker then wakes the broker through its pipe.  A daemon
heartbeat thread renews the census entry and the held claim every
``lease_ttl / 3`` seconds with fsynced mtime bumps, where ``lease_ttl``
is the one the broker wrote into the batch it serves.  The worker holds
**no state the run depends on**: SIGKILL it at any point and the broker
reaps its claim and reassigns the lease.

Test hooks (used by the chaos suite and the CI ``chaos`` job):
``claim_hold`` sleeps after each claim (widening the mid-lease window a
fault injector needs) and ``freeze_heartbeat`` suppresses every renewal,
turning the worker into a live-but-silent partition.  Both map to the
``REPRO_FABRIC_CLAIM_HOLD`` / ``REPRO_FABRIC_FREEZE_HEARTBEAT``
environment knobs on the CLI.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from pathlib import Path

from ..experiments.faults import maybe_inject_chaos
from . import lease as lease_mod
from .protocol import (BATCH_OPEN, ensure_layout, jobs_dir, lease_filename,
                       new_worker_id, read_batch, scan_leases, state_dir,
                       worker_path, write_json_atomic)

log = logging.getLogger("repro.fabric.worker")

CLAIM_HOLD_ENV = "REPRO_FABRIC_CLAIM_HOLD"
FREEZE_HEARTBEAT_ENV = "REPRO_FABRIC_FREEZE_HEARTBEAT"

#: Worker exit codes.
EXIT_OK = 0          # batch completed (or closed) under us
EXIT_NO_RUN = 3      # no open batch appeared within max_idle


def discover_run(root: str | Path, run_id: str | None = None, *,
                 max_idle: float | None = None, poll: float = 0.25,
                 sleep=time.sleep) -> tuple[Path, dict] | None:
    """Wait for an open batch; newest one wins when ``run_id`` is None.

    Returns its run directory and its batch record."""
    root = Path(root)
    deadline = None if max_idle is None else time.monotonic() + max_idle
    while True:
        candidates = []
        if run_id is not None:
            candidates = [root / run_id]
        elif root.is_dir():
            candidates = [d for d in root.iterdir() if d.is_dir()]
        best: tuple[float, Path, dict] | None = None
        for run_dir in candidates:
            batch = read_batch(run_dir)
            if batch is None or batch.get("status") != BATCH_OPEN:
                continue
            stamp = float(batch.get("updated_unix", 0.0))
            if best is None or stamp > best[0]:
                best = (stamp, run_dir, batch)
        if best is not None:
            return best[1], best[2]
        if deadline is not None and time.monotonic() >= deadline:
            return None
        sleep(poll)


@dataclass
class FabricWorker:
    """One claim-and-simulate loop attached to a runs root."""

    root: str | Path
    run_id: str | None = None
    worker_id: str = field(default_factory=new_worker_id)
    #: Seconds between scans for an open lease while idle.
    poll_interval: float = 0.5
    #: Give up looking for an open batch after this long (None = wait
    #: forever; the CLI defaults to a finite value so orphaned workers
    #: do not linger).
    max_idle: float | None = 60.0
    #: Test hook: sleep this long after every claim, before simulating.
    claim_hold: float = 0.0
    #: Test hook: never renew any heartbeat after registration.
    freeze_heartbeat: bool = False
    #: Write end of the broker's wake pipe (forked local workers only).
    wake_fd: int | None = None
    sleep = staticmethod(time.sleep)

    jobs_done: int = field(default=0, init=False)
    _current_claim: Path | None = field(default=None, init=False, repr=False)
    _stop_beats: threading.Event = field(default_factory=threading.Event,
                                         init=False, repr=False)

    def run(self) -> int:
        """Serve one batch to completion; returns a process exit code."""
        found = discover_run(self.root, self.run_id,
                             max_idle=self.max_idle, sleep=self.sleep)
        if found is None:
            log.warning("worker %s: no open batch under %s", self.worker_id,
                        self.root)
            return EXIT_NO_RUN
        run_dir, batch = found
        ensure_layout(run_dir)
        self._register(run_dir)
        beats = threading.Thread(target=self._heartbeat_loop,
                                 args=(run_dir, float(batch["lease_ttl"])),
                                 daemon=True)
        beats.start()
        try:
            while True:
                batch = read_batch(run_dir)
                if batch is None or batch.get("status") != BATCH_OPEN:
                    log.info("worker %s: batch %s — exiting", self.worker_id,
                             batch.get("status") if batch else "missing")
                    return EXIT_OK
                record = self._claim_next(run_dir)
                if record is None:
                    self.sleep(self.poll_interval)
                    continue
                self._execute(run_dir, record)
        finally:
            self._stop_beats.set()
            beats.join(timeout=5.0)
            self._register(run_dir, final=True)

    # -------------------------------------------------------------- claiming

    def _claim_next(self, run_dir: Path) -> dict | None:
        """Claim an open lease, if any.

        Results are placed by job index, so which lease a worker takes
        cannot move a number; taking them in filename order reads no
        record but those of the leases it tries.
        """
        for key, (epoch, _path) in sorted(scan_leases(run_dir,
                                                      "open").items()):
            record = lease_mod.claim(run_dir, key, epoch, self.worker_id)
            if record is not None:
                return record
        return None

    def _execute(self, run_dir: Path, record: dict) -> None:
        key, epoch = record["key"], record["epoch"]
        self._current_claim = state_dir(run_dir, "claimed") / lease_filename(
            key, epoch)
        try:
            if self.claim_hold > 0:
                self.sleep(self.claim_hold)
            try:
                with (jobs_dir(run_dir) / f"{key}.job").open("rb") as fh:
                    job = pickle.load(fh)
            except FileNotFoundError:
                log.info("worker %s: %s… was retired; dropping the claim",
                         self.worker_id, key[:12])
                lease_mod.drop(run_dir, key, epoch)
                return
            try:
                maybe_inject_chaos(key)
                result = job.run()
            except Exception as exc:
                lease_mod.complete(run_dir, record, failure={
                    "error_type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": "".join(traceback_module.format_exception(
                        type(exc), exc, exc.__traceback__)),
                    "exception": lease_mod.encode_exception(exc)})
                log.warning("worker %s: job %s… raised %s", self.worker_id,
                            key[:12], type(exc).__name__)
            else:
                lease_mod.complete(run_dir, record, job.encode(result))
                self.jobs_done += 1
            self._wake_broker()
        finally:
            self._current_claim = None

    def _wake_broker(self) -> None:
        if self.wake_fd is None:
            return
        try:
            os.write(self.wake_fd, b"\0")
        except BlockingIOError:
            pass  # the pipe is full: the broker is already due to wake

    # ------------------------------------------------------------ heartbeats

    def _register(self, run_dir: Path, final: bool = False) -> None:
        record = {"pid": os.getpid(),
                  "host": os.uname().nodename if hasattr(os, "uname") else "",
                  "jobs_done": self.jobs_done}
        if final:
            record["exited_unix"] = time.time()
        try:
            write_json_atomic(worker_path(run_dir, self.worker_id), record)
        except OSError:  # pragma: no cover - census is best-effort
            pass

    def _heartbeat_loop(self, run_dir: Path, lease_ttl: float) -> None:
        interval = max(0.01, lease_ttl / 3.0)
        while not self._stop_beats.wait(interval):
            if self.freeze_heartbeat:
                continue
            self._register(run_dir)
            claim = self._current_claim
            if claim is not None:
                lease_mod.heartbeat(claim)


def worker_from_env(root: str | Path, run_id: str | None, *,
                    poll_interval: float, worker_id: str | None = None,
                    max_idle: float | None = 60.0) -> FabricWorker:
    """Build a worker honouring the chaos environment knobs."""
    return FabricWorker(
        root=root, run_id=run_id, poll_interval=poll_interval,
        worker_id=worker_id or new_worker_id(), max_idle=max_idle,
        claim_hold=float(os.environ.get(CLAIM_HOLD_ENV, "0") or 0),
        freeze_heartbeat=bool(os.environ.get(FREEZE_HEARTBEAT_ENV)))
