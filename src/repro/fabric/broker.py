"""The fabric broker: publishes leases, supervises workers, never hangs.

The :class:`~repro.experiments.engine.ExperimentEngine` runs every
parallel batch through a broker.  It publishes one durable lease plus a
pickled payload per distinct job key, forks ``local_workers`` worker
processes, and consumes completions into the engine's journal and cache
the moment they land.  Local workers wake it through a pipe after each
result, so it never sleeps out a poll interval between jobs.  The fault
policy is **per lease**:

* a claim held past ``FaultPolicy.job_timeout`` (from when the broker
  first saw it), a dead local holder (its process sentinel fires) or a
  heartbeat older than ``lease_ttl`` gets the lease **reaped**:
  attempts+1, epoch+1, republished with a ``FaultPolicy.backoff``
  ``not_before`` stamp — the machinery failed, the job is innocent.  A
  local holder that timed out is killed; a remote one is fenced off by
  the epoch bump.  A local worker lost with a lease is replaced.
* a lease reaped ``FaultPolicy.max_attempts`` times becomes a structured
  :class:`~repro.experiments.faults.JobFailure` — a batch can fail,
  never hang; a worker-reported exception is deterministic and becomes
  one at once, with the worker's traceback;
* a payload that cannot be pickled, and the remainder of a batch with
  zero live workers for ``worker_grace`` seconds, run in-process
  (``inline_fallbacks``) — or, with ``inline_fallback`` off, the latter
  fails as lease expiries.

Every exit that is not a completion leaves the batch paused, so attached
workers stop serving it.  A broker that dies and resumes harvests any
``done/`` records a worker landed while it was gone, so no finished
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

from ..experiments.faults import (KIND_LEASE_EXPIRED, KIND_RAISE,
                                  KIND_TIMEOUT, FaultPolicy,
                                  JobFailure, JobTimeout, LeaseExpired,
                                  lease_expiry_failure)
from ..sim.stats import SimResult
from . import lease as lease_mod
from .lease import FabricConfig, verified_result
from .protocol import (BATCH_COMPLETE, BATCH_OPEN, BATCH_PAUSED,
                       ensure_layout, heartbeat_age, jobs_dir, lease_filename,
                       new_worker_id, read_json, scan_leases, scan_workers,
                       state_dir, write_batch)
from .worker import FabricWorker

log = logging.getLogger("repro.fabric.broker")

#: The census identity the broker uses when claiming leases itself.
INLINE_WORKER = "broker-inline"


@dataclass
class _LeaseState:
    """Broker-side view of one job's lease."""

    item: object                # engine _WorkItem: index/job/key/payload
    epoch: int = 0
    attempts: int = 0
    #: When (``time.monotonic()``) the broker first saw the current
    #: epoch claimed; the job deadline runs from here.
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
    #: ``on_result(item, SimResult)`` — place/cache/journal a completion.
    on_result: Callable[[object, SimResult], None]
    #: ``on_failure(item, failure, cause)`` — record a structured
    #: JobFailure.
    on_failure: Callable[[object, JobFailure, BaseException | None], None]
    #: ``inline(item) -> SimResult | None`` — simulate in-process,
    #: completing or failing through the engine (None on failure).
    inline: Callable[[object], SimResult | None]
    should_stop: Callable[[], bool] = lambda: False
    #: Worker processes to fork for the batch (never more than it has
    #: leases); 0 leaves the simulating to external workers.
    local_workers: int = 0

    _state: dict[str, _LeaseState] = field(default_factory=dict, init=False)
    _outstanding: set[str] = field(default_factory=set, init=False)
    _unpicklable: list = field(default_factory=list, init=False)
    _fallback: bool = field(default=False, init=False)
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
            for item in self._unpicklable:
                if self.should_stop():
                    return status
                self.counters.inline_fallbacks += 1
                self.inline(item)
            status = self._supervise()
        finally:
            write_batch(self.run_dir, status, len(items), self.run_id)
            self._stop_workers()
            self._update_census()
        return status

    def _supervise(self) -> str:
        last_alive = time.time()
        while self._outstanding:
            if self.should_stop():
                return BATCH_PAUSED
            progressed = self._consume_done()
            progressed |= self._consume_failed()
            self._reap_dead_workers()
            self._reap_claims()
            live = self._update_census()
            now = time.time()
            if live or progressed:
                last_alive = now
            if (self._outstanding and not self._fallback
                    and not live
                    and now - last_alive > self.config.worker_grace):
                self._handle_worker_collapse()
            if self._fallback:
                self._drain_inline()
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

        A completion that landed in ``done/`` after the previous broker
        died (but before the journal recorded it) is consumed here
        instead of being republished — the crash costs nothing.  A local
        worker is forked as each of the first ``local_workers`` leases
        appears, so simulating starts while the rest are written.  An
        unpicklable payload gets no lease (:meth:`run` simulates it).
        """
        leftovers = scan_leases(self.run_dir, "done")
        stale = set(leftovers)
        for state in ("open", "claimed", "failed"):
            stale.update(scan_leases(self.run_dir, state))
        fresh = []
        for item in items:
            key = item.key
            self._state[key] = _LeaseState(item)
            self._outstanding.add(key)
            if key in leftovers:
                record = read_json(leftovers[key][1])
                result = verified_result(record)
                if result is not None:
                    self._sweep_key(key, also_done=False)
                    self._finish(key, record, result)
                    continue
            if key in stale:
                self._sweep_key(key, also_done=True)
            fresh.append(item)
        write_batch(self.run_dir, BATCH_OPEN, len(items), self.run_id)
        for item in fresh:
            key = item.key
            try:
                payload = pickle.dumps(item.payload)
            except (pickle.PicklingError, TypeError, AttributeError):
                self._outstanding.discard(key)
                self._unpicklable.append(item)
                continue
            with (jobs_dir(self.run_dir) / f"{key}.job").open("wb") as fh:
                fh.write(payload)
            lease_mod.publish(self.run_dir, key, 0, {
                "index": item.index,
                "attempts": 0,
                "trace": item.job.trace.name,
                "prefetcher": item.job.prefetcher.name,
                "payload": f"jobs/{key}.job",
            })
            if self._forked < self.local_workers:
                self._fork_worker()

    def _sweep_key(self, key: str, also_done: bool) -> None:
        """Delete stale lease files for a key being (re)published."""
        states = ("open", "claimed", "failed") + (("done",) if also_done else ())
        for state in states:
            directory = state_dir(self.run_dir, state)
            for stale in directory.glob(f"{key}.e*.json"):
                stale.unlink(missing_ok=True)

    # ---------------------------------------------------------- local workers

    def _fork_worker(self) -> None:
        """Fork one worker process attached to this batch.

        A forked worker starts without re-importing the simulator, as
        the process pool's workers did on Linux.
        """
        self._forked += 1
        worker = FabricWorker(
            root=self.run_dir.parent, run_id=self.run_dir.name,
            worker_id=new_worker_id(f"w{self._forked}"),
            config=self.config, wake_fd=self._wake[1])
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

    def _finish(self, key: str, record: dict | None, result: dict) -> None:
        state = self._state[key]
        self.on_result(state.item, SimResult.from_dict(result))
        self._outstanding.discard(key)
        worker = (record or {}).get("worker")
        if worker and worker != INLINE_WORKER:
            self.counters.fabric_completed += 1
            entry = self._census.setdefault(
                worker, {"worker_id": worker, "jobs_done": 0, "live": False})
            entry["jobs_done"] = entry.get("jobs_done", 0) + 1

    def _consume_done(self) -> bool:
        progressed = False
        for key, (epoch, path) in scan_leases(self.run_dir, "done").items():
            if key not in self._outstanding:
                continue
            record = read_json(path)
            result = verified_result(record)
            if result is None:
                # Torn or corrupt completion: drop the record and treat
                # it as one more transport fault against the lease.
                path.unlink(missing_ok=True)
                self._expire(key, reason="corrupt done record")
                continue
            # A lease never reaped leaves no other file: its claim was
            # renamed from open and removed by the completion.
            if self._state[key].epoch:
                self._sweep_key(key, also_done=False)
            self._finish(key, record, result)
            progressed = True
        return progressed

    def _consume_failed(self) -> bool:
        progressed = False
        for key, (epoch, path) in scan_leases(self.run_dir, "failed").items():
            if key not in self._outstanding:
                continue
            record = read_json(path)
            if record is None or not isinstance(record.get("failure"), dict):
                path.unlink(missing_ok=True)
                self._expire(key, reason="corrupt failure record")
                continue
            state = self._state[key]
            reported = record["failure"]
            failure = JobFailure(
                index=state.item.index, key=key,
                trace_name=state.item.job.trace.name,
                prefetcher_name=state.item.job.prefetcher.name,
                kind=KIND_RAISE,
                error_type=str(reported.get("error_type", "Exception")),
                message=str(reported.get("message", "")),
                traceback=str(reported.get("traceback", "")),
                attempts=state.attempts + 1)
            self._outstanding.discard(key)
            self._sweep_key(key, also_done=True)
            self.on_failure(state.item, failure,
                            lease_mod.decode_exception(reported.get("exception")))
            progressed = True
        return progressed

    # ----------------------------------------------------------------- reaping

    def _reap_claims(self) -> None:
        """Reap claims held past the job deadline or gone silent."""
        now = time.monotonic()
        timeout = self.policy.job_timeout
        self._next_deadline = None
        claimed = scan_leases(self.run_dir, "claimed")
        for key, (epoch, path) in claimed.items():
            if key not in self._outstanding:
                path.unlink(missing_ok=True)  # finished elsewhere; stale
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
            age = heartbeat_age(path)
            if age is not None and age > self.config.lease_ttl:
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
                    state.attempts, self.policy.max_attempts, reason)
        claimed = state_dir(self.run_dir, "claimed") / lease_filename(
            key, state.epoch)
        record = read_json(claimed)
        killed = (timed_out and record is not None
                  and self._kill_worker(str(record.get("worker"))))
        if state.attempts >= self.policy.max_attempts:
            claimed.unlink(missing_ok=True)
            self._outstanding.discard(key)
            failure = lease_expiry_failure(
                state.item.index, key, state.item.job.trace.name,
                state.item.job.prefetcher.name, state.attempts, reason,
                kind=KIND_TIMEOUT if timed_out else KIND_LEASE_EXPIRED)
            cause = (JobTimeout if timed_out else LeaseExpired)(failure.message)
            self.on_failure(state.item, failure, cause)
        else:
            record = record or {
                "index": state.item.index, "attempts": state.attempts - 1,
                "trace": state.item.job.trace.name,
                "prefetcher": state.item.job.prefetcher.name,
                "payload": f"jobs/{key}.job"}
            not_before = time.time() + self.policy.backoff(state.attempts)
            lease_mod.reap(self.run_dir, key, state.epoch, record, not_before)
            state.epoch += 1
            self.counters.retried += 1
        if killed and self._outstanding:
            self._fork_worker()

    # ------------------------------------------------------------ degradation

    def _handle_worker_collapse(self) -> None:
        remaining = len(self._outstanding)
        if self.config.inline_fallback:
            log.warning(
                "fabric: no live workers for %.1fs — completing the "
                "remaining %d job(s) in-process",
                self.config.worker_grace, remaining)
            self._fallback = True
            return
        log.warning(
            "fabric: no live workers for %.1fs and inline fallback is "
            "disabled — failing the remaining %d job(s)",
            self.config.worker_grace, remaining)
        for key in sorted(self._outstanding):
            state = self._state[key]
            state.attempts += 1
            self.counters.lease_expired += 1
            self._sweep_key(key, also_done=True)
            failure = lease_expiry_failure(
                state.item.index, key, state.item.job.trace.name,
                state.item.job.prefetcher.name, state.attempts,
                "no live workers and inline fallback disabled")
            self._outstanding.discard(key)
            self.on_failure(state.item, failure, LeaseExpired(failure.message))

    def _drain_inline(self) -> None:
        """Fallback mode: claim whatever is open and simulate it here.

        Claimed-but-dead leases are left to age out through the normal
        reap path (they reopen with their attempt counters intact), so
        the manifest still tells the full story.
        """
        for key, (epoch, _path) in sorted(
                scan_leases(self.run_dir, "open").items()):
            if key not in self._outstanding:
                continue
            if self.should_stop():
                return
            state = self._state[key]
            record = lease_mod.claim(self.run_dir, key, epoch, INLINE_WORKER,
                                     now=float("inf"))
            if record is None:
                continue  # a worker came back and won the race — fine
            state.epoch = max(state.epoch, epoch)
            self.counters.inline_fallbacks += 1
            result = self.inline(state.item)
            if result is not None:
                lease_mod.complete(self.run_dir, record, result.to_dict())
            else:
                claimed = state_dir(self.run_dir, "claimed") / lease_filename(
                    key, epoch)
                claimed.unlink(missing_ok=True)
            self._outstanding.discard(key)
            self._sweep_key(key, also_done=False)

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
