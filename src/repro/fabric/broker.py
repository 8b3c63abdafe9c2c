"""The fabric broker: publishes leases, supervises workers, never hangs.

The :class:`~repro.experiments.engine.ExperimentEngine` runs every
parallel batch through a broker.  It publishes one durable lease plus
the pickled job (a :class:`~repro.experiments.engine.SimJob` or a
:class:`~repro.experiments.multi_core.MulticoreJob`) per distinct job
key, forks ``local_workers`` worker processes, and consumes completions
into the engine's journal and cache the moment they land.  Local
workers wake it through a pipe after each result, so it never sleeps
out a poll interval between jobs.  The broker never simulates: a job
that does not pickle stops the batch with a ``TypeError`` naming it.
The fault policy is **per lease**:

* a claim held past ``FaultPolicy.job_timeout`` (from when the broker
  first saw it), a dead local holder (its process sentinel fires) or a
  heartbeat older than ``lease_ttl`` gets the lease **reaped**: one
  more attempt counted, epoch+1, republished with a
  :func:`~repro.experiments.faults.backoff` ``not_before`` stamp — the
  machinery failed, the job is innocent.  A local holder that timed out is killed; a
  remote one is fenced off by the epoch bump.  A local worker lost with
  a lease is replaced.
* a lease reaped ``faults.MAX_ATTEMPTS`` times becomes a structured
  :class:`~repro.experiments.faults.JobFailure` — a batch can fail,
  never hang; a worker-reported exception is deterministic and becomes
  one at once, with the worker's traceback;
* a batch with no live worker and no landed outcome for ``lease_ttl``
  seconds fails its remaining jobs as lease expiries; ``--resume``
  with workers finishes it.

Each key leaves the batch once — with a result, a reported failure,
exhausted retries or worker collapse — and once the engine has taken
that outcome (a result cached and journaled, a failure counted) the
broker deletes the key's payload, leases and outcome record, so each
record is read once and a wake-up costs work in the number of workers,
not of jobs.  Every
exit that is not a completion leaves the batch paused, so attached
workers stop serving it.  A broker that dies and resumes harvests any
verified result a worker landed while it was gone, so no finished
simulation is ever re-run.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable

from ..experiments import faults
from ..experiments.faults import (KIND_LEASE_EXPIRED, KIND_RAISE,
                                  KIND_TIMEOUT, FaultPolicy,
                                  JobFailure, JobTimeout, LeaseExpired,
                                  lease_expiry_failure)
from . import lease as lease_mod
from .lease import FabricConfig, verified_outcome
from .protocol import (BATCH_COMPLETE, BATCH_OPEN, BATCH_PAUSED, LEASE_STATES,
                       ensure_layout, heartbeat_age, jobs_dir, lease_filename,
                       lease_files, new_worker_id, read_json, scan_leases,
                       scan_workers, state_dir, write_batch)
from .worker import FabricWorker

log = logging.getLogger("repro.fabric.broker")


@dataclass
class _LeaseState:
    """Broker-side view of one job's lease."""

    item: object                # engine _WorkItem: index/job/key/twins
    #: The highest epoch the key's lease has reached.
    epoch: int = 0
    attempts: int = 0
    #: When (``time.monotonic()``) the broker first saw the current
    #: epoch claimed; the job deadline runs from here, and no heartbeat
    #: is judged until ``lease_ttl`` after it.
    claim_seen: float | None = None


def _serve_local(worker: FabricWorker) -> None:
    """Body of a forked local worker.  Ctrl+C reaches the whole process
    group and the broker stops its workers, so they ignore it and drop
    any graceful SIGTERM handler they inherited; a worker whose broker
    dies (SIGKILL, OOM) exits with it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    def exit_with_broker() -> None:
        multiprocessing.parent_process().join()
        os._exit(1)

    threading.Thread(target=exit_with_broker, daemon=True).start()
    worker.run()


@dataclass
class FabricBroker:
    """Drives one batch of work items through the lease directories."""

    run_dir: Path
    run_id: str | None
    config: FabricConfig
    policy: FaultPolicy
    counters: object            # EngineCounters (duck-typed)
    #: ``on_result(item, data)`` — place/cache/journal a completion's
    #: verified payload, the job's ``encode(result)``.
    on_result: Callable[[object, dict], None]
    #: ``on_failure(item, failure, cause)`` — record a structured
    #: JobFailure.
    on_failure: Callable[[object, JobFailure, BaseException | None], None]
    should_stop: Callable[[], bool] = lambda: False
    #: Worker processes to fork for the batch (never more than it has
    #: leases); 0 leaves the simulating to external workers.
    local_workers: int = 0

    _state: dict[str, _LeaseState] = field(default_factory=dict, init=False)
    _outstanding: set[str] = field(default_factory=set, init=False)
    _census: dict[str, dict] = field(default_factory=dict, init=False)
    #: Live local workers: worker id -> process.
    _local: dict[str, multiprocessing.Process] = field(
        default_factory=dict, init=False)
    _forked: int = field(default=0, init=False)
    #: (read fd, write fd) of the pipe local workers wake the broker on.
    _wake: tuple[int, int] = field(default=(-1, -1), init=False)
    #: Earliest deadline of a claim now held (``time.monotonic()``).
    _next_deadline: float | None = field(default=None, init=False)

    # ------------------------------------------------------------- lifecycle

    def run(self, items: list) -> str:
        """Publish ``items`` (distinct keys) and supervise them to completion.

        Returns :data:`BATCH_COMPLETE` when every job is accounted for
        (result or structured failure) or :data:`BATCH_PAUSED` when
        ``should_stop`` fired — everything consumed so far is already in
        the journal, so a resumed run picks up the rest.  Any other exit
        also leaves the batch paused; local workers are always reaped.
        """
        ensure_layout(self.run_dir)
        status = BATCH_PAUSED
        self._wake = os.pipe()
        os.set_blocking(self._wake[1], False)
        try:
            self._publish(items)
            status = self._supervise()
        finally:
            write_batch(self.run_dir, status, len(items),
                        self.config.lease_ttl, self.run_id)
            self._stop_workers()
            self._update_census()
        return status

    def _supervise(self) -> str:
        last_alive = time.time()
        while self._outstanding:
            if self.should_stop():
                return BATCH_PAUSED
            progressed = self._consume()
            self._reap_dead_workers()
            self._reap_claims()
            live = self._update_census()
            now = time.time()
            if live or progressed:
                last_alive = now
            elif (self._outstanding
                  and now - last_alive > self.config.lease_ttl):
                self._fail_collapsed(now - last_alive)
            if self._outstanding and not progressed:
                self._wait()
        return BATCH_COMPLETE

    def _wait(self) -> None:
        """Sleep one poll interval, or less: until a local worker lands a
        result or exits, or until the next claim deadline."""
        timeout = self.config.poll_interval
        if self._next_deadline is not None:
            timeout = min(timeout,
                          max(0.0, self._next_deadline - time.monotonic()))
        wake = self._wake[0]
        if wake in wait([wake, *(p.sentinel for p in self._local.values())],
                        timeout):
            os.read(wake, 1 << 16)

    def census_snapshot(self) -> list[dict]:
        """Worker census for the run manifest (stable order)."""
        return [self._census[worker_id]
                for worker_id in sorted(self._census)]

    # ------------------------------------------------------------- publishing

    def _publish(self, items: list) -> None:
        """Write payloads + open leases; harvest work a prior broker lost.

        Whatever an earlier broker of this run left in the lease
        directory is stale and deleted, except a verified result for a
        key of this batch: it landed after that broker died but before
        the journal recorded it, so it is consumed here instead of being
        republished — the crash costs nothing.  A local worker is forked
        as each of the first ``local_workers`` leases appears, so
        simulating starts while the rest are written.  A job that does
        not pickle raises ``TypeError`` naming it, and the batch stops
        with nothing consumed.
        """
        wanted = {item.key for item in items}
        harvest: dict[str, tuple[int, dict, dict]] = {}
        for state in LEASE_STATES:
            for key, epoch, path in lease_files(self.run_dir, state):
                if state == "done" and key in wanted and key not in harvest:
                    record = read_json(path)
                    outcome = verified_outcome(record)
                    if outcome is not None and outcome[0] == "result":
                        harvest[key] = (epoch, record, outcome[1])
                        continue
                path.unlink(missing_ok=True)
        fresh = []
        for item in items:
            key = item.key
            self._state[key] = _LeaseState(item)
            self._outstanding.add(key)
            if key in harvest:
                epoch, record, data = harvest[key]
                self._state[key].epoch = epoch
                self._finish(key, record, data)
            else:
                fresh.append(item)
        write_batch(self.run_dir, BATCH_OPEN, len(items),
                    self.config.lease_ttl, self.run_id)
        for item in fresh:
            key = item.key
            try:
                payload = pickle.dumps(item.job)
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                raise TypeError(
                    f"job {item.index} ({item.job.label}) cannot be "
                    f"pickled for a lease worker: {exc}") from exc
            with (jobs_dir(self.run_dir) / f"{key}.job").open("wb") as fh:
                fh.write(payload)
            lease_mod.publish(self.run_dir, key, 0)
            if self._forked < self.local_workers:
                self._fork_worker()

    def _retire(self, key: str) -> None:
        """Take a key out of the batch and delete every file it has in
        the lease directory: its payload and each epoch's lease and
        outcome record.  Called only once the engine has taken the
        key's outcome (a result is journaled by then), so no crash can
        lose a finished simulation."""
        self._outstanding.discard(key)
        (jobs_dir(self.run_dir) / f"{key}.job").unlink(missing_ok=True)
        for state in LEASE_STATES:
            directory = state_dir(self.run_dir, state)
            for epoch in range(self._state[key].epoch + 1):
                (directory / lease_filename(key, epoch)).unlink(
                    missing_ok=True)

    # ---------------------------------------------------------- local workers

    def _fork_worker(self) -> None:
        """Fork one worker process attached to this batch.

        A forked worker starts without re-importing the simulator.
        """
        self._forked += 1
        worker = FabricWorker(
            root=self.run_dir.parent, run_id=self.run_dir.name,
            worker_id=new_worker_id(f"w{self._forked}"),
            poll_interval=self.config.poll_interval, wake_fd=self._wake[1])
        process = multiprocessing.get_context("fork").Process(
            target=_serve_local, args=(worker,), name=worker.worker_id,
            daemon=True)
        process.start()
        self._local[worker.worker_id] = process

    def _kill_worker(self, worker_id: str) -> bool:
        """Kill and reap one local worker; False if it is not ours."""
        process = self._local.pop(worker_id, None)
        if process is None:
            return False
        process.kill()
        process.join()
        return True

    def _stop_workers(self) -> None:
        for worker_id in list(self._local):
            self._kill_worker(worker_id)
        for fd in self._wake:
            os.close(fd)

    def _reap_dead_workers(self) -> None:
        """Reap at once every lease a dead local worker held, and fork
        one replacement per reaped lease."""
        for worker_id, process in list(self._local.items()):
            if process.is_alive():
                continue
            del self._local[worker_id]
            process.join()
            held = [key for key, (_epoch, path)
                    in scan_leases(self.run_dir, "claimed").items()
                    if key in self._outstanding
                    and (read_json(path) or {}).get("worker") == worker_id]
            for key in held:
                self._expire(key, f"worker {worker_id} exited with code "
                                  f"{process.exitcode}")
                if self._outstanding:
                    self._fork_worker()

    # ------------------------------------------------------------ consumption

    def _finish(self, key: str, record: dict, data: dict) -> None:
        self.on_result(self._state[key].item, data)
        self._retire(key)
        worker = record.get("worker")
        if worker:
            self.counters.fabric_completed += 1
            entry = self._census.setdefault(
                worker, {"worker_id": worker, "jobs_done": 0, "live": False})
            entry["jobs_done"] = entry.get("jobs_done", 0) + 1

    def _consume(self) -> bool:
        """Read each outcome record in ``done/`` once: hand its result or
        reported failure to the engine and retire the key.  A record
        whose key is not outstanding (a fenced-off holder's late
        outcome) is deleted on sight."""
        progressed = False
        for key, (_epoch, path) in scan_leases(self.run_dir, "done").items():
            if key not in self._outstanding:
                path.unlink(missing_ok=True)
                continue
            record = read_json(path)
            outcome = verified_outcome(record)
            if outcome is None:
                # Torn or corrupt outcome: drop the record and treat it
                # as one more transport fault against the lease.
                path.unlink(missing_ok=True)
                self._expire(key, reason="corrupt outcome record")
                continue
            state = self._state[key]
            kind, value = outcome
            if kind == "result":
                self._finish(key, record, value)
            else:
                failure = JobFailure(
                    index=state.item.index, key=key,
                    label=state.item.job.label, kind=KIND_RAISE,
                    error_type=str(value.get("error_type", "Exception")),
                    message=str(value.get("message", "")),
                    traceback=str(value.get("traceback", "")),
                    attempts=state.attempts + 1)
                self.on_failure(state.item, failure, lease_mod.decode_exception(
                    value.get("exception")))
                self._retire(key)
            progressed = True
        return progressed

    # ----------------------------------------------------------------- reaping

    def _reap_claims(self) -> None:
        """Reap claims held past the job deadline or gone silent.

        A claim carries its lease's publish-time mtime until the claimer
        rewrites it, so a heartbeat is judged only once the broker has
        watched the claim for ``lease_ttl``: a lease that waited longer
        than that in ``open/`` is not reaped the moment it is claimed.
        """
        now = time.monotonic()
        timeout = self.policy.job_timeout
        ttl = self.config.lease_ttl
        self._next_deadline = None
        claimed = scan_leases(self.run_dir, "claimed")
        for key, (epoch, path) in claimed.items():
            if key not in self._outstanding:
                path.unlink(missing_ok=True)  # its key was retired; stale
                continue
            state = self._state[key]
            if epoch < state.epoch:
                path.unlink(missing_ok=True)  # fenced-off zombie claim
                continue
            if epoch > state.epoch or state.claim_seen is None:
                state.epoch = epoch
                state.claim_seen = now
            if timeout:
                deadline = state.claim_seen + timeout
                if now >= deadline:
                    self._expire(key, f"held past the {timeout:g}s job "
                                      "deadline", timed_out=True)
                    continue
                if self._next_deadline is None or deadline < self._next_deadline:
                    self._next_deadline = deadline
            if now - state.claim_seen < ttl:
                continue
            age = heartbeat_age(path)
            if age is not None and age > ttl:
                self._expire(key, reason=f"heartbeat stale for {age:.1f}s")

    def _expire(self, key: str, reason: str, timed_out: bool = False) -> None:
        """One transport fault against a lease: retry or classify.

        A timed-out claim's local holder is killed and replaced; a
        remote one keeps running, fenced off by the epoch bump.
        """
        state = self._state[key]
        state.attempts += 1
        state.claim_seen = None
        if timed_out:
            self.counters.timed_out += 1
        else:
            self.counters.lease_expired += 1
        log.warning("lease %s… reaped (attempt %d/%d): %s", key[:12],
                    state.attempts, faults.MAX_ATTEMPTS, reason)
        claimed = state_dir(self.run_dir, "claimed") / lease_filename(
            key, state.epoch)
        record = read_json(claimed)
        killed = (timed_out and record is not None
                  and self._kill_worker(str(record.get("worker"))))
        if state.attempts >= faults.MAX_ATTEMPTS:
            failure = lease_expiry_failure(
                state.item.index, key, state.item.job.label,
                state.attempts, reason,
                kind=KIND_TIMEOUT if timed_out else KIND_LEASE_EXPIRED)
            cause = (JobTimeout if timed_out else LeaseExpired)(failure.message)
            self.on_failure(state.item, failure, cause)
            self._retire(key)
        else:
            not_before = time.time() + faults.backoff(state.attempts)
            lease_mod.reap(self.run_dir, key, state.epoch, not_before)
            state.epoch += 1
            self.counters.retried += 1
        if killed and self._outstanding:
            self._fork_worker()

    # ------------------------------------------------------------ collapse

    def _fail_collapsed(self, idle: float) -> None:
        """No live worker and no landed outcome for ``lease_ttl``: fail
        every remaining job as a lease expiry, for a resume to finish."""
        log.warning("fabric: no live workers for %.1fs — failing the "
                    "remaining %d job(s)", idle, len(self._outstanding))
        for key in sorted(self._outstanding):
            state = self._state[key]
            state.attempts += 1
            self.counters.lease_expired += 1
            failure = lease_expiry_failure(
                state.item.index, key, state.item.job.label,
                state.attempts, f"no live workers for {idle:.1f}s")
            self.on_failure(state.item, failure, LeaseExpired(failure.message))
            self._retire(key)

    # ---------------------------------------------------------------- census

    def _update_census(self) -> set[str]:
        """Refresh the census; returns the ids of live workers (heartbeat
        fresher than ``lease_ttl``)."""
        live = set()
        for worker_id, (path, record) in scan_workers(self.run_dir).items():
            age = heartbeat_age(path)
            if age is not None and age <= self.config.lease_ttl:
                live.add(worker_id)
            entry = self._census.setdefault(
                worker_id, {"worker_id": worker_id, "jobs_done": 0})
            entry.update(
                pid=record.get("pid"), host=record.get("host"),
                live=worker_id in live, last_heartbeat_age=age)
            if isinstance(record.get("jobs_done"), int):
                entry["jobs_done"] = max(entry.get("jobs_done", 0),
                                         record["jobs_done"])
        return live
