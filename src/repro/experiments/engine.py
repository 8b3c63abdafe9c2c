"""Parallel, cached, fault-tolerant execution engine for simulation batches.

The engine turns an experiment matrix (traces × prefetcher configs ×
system configs) into a flat list of jobs and executes them:

1. **Reuse and replay** — each job is content-hashed (see
   :mod:`repro.experiments.cache`) and each distinct key runs once per
   engine: a key simulated in an earlier batch is answered from the
   payload the engine kept, a key repeated in the batch rides along as
   a twin of its first job (both count as ``reused``), and a journaled
   result from a resumed run or a checksummed cache entry returns
   without simulating.
2. **Fan-out** — the remaining distinct keys run serially
   (``workers <= 1``) or as leases on the :mod:`repro.fabric` broker,
   simulated by ``workers`` local worker processes forked for the batch
   (and, under ``fabric``, by any external ``pmp-repro fabric
   worker``).  Results are placed back by job index, and every job's
   prefetcher instance is constructed in the parent *in job order*
   before dispatch, so parallel runs are bit-identical to serial runs
   regardless of completion order.
3. **Write-back** — each result is persisted to the cache *and* the run
   journal the moment its job completes (not at batch end), so a crash
   or SIGINT loses at most the jobs in flight.

A job is a :class:`SimJob` (one trace, one prefetcher) or a Fig 13
:class:`~repro.experiments.multi_core.MulticoreJob` (four lanes).  The
engine, the broker and the worker read only this of it: ``key()``, its
content hash; ``run()``, the simulation, made in this process on the
serial path or in the lease worker that unpickled the job; ``label``,
the name failure records and errors give it; ``encode(result)`` and
``decode(data)``, which turn its result into the JSON-safe payload that
lease outcome records, cache entries, journal entries and the engine's
kept completions carry, and back (each job gets its own decoded copy);
and ``check_invariants``, whether its run is audited.

Fault tolerance (see :mod:`repro.experiments.faults` for the taxonomy
and :mod:`repro.fabric.broker` for the mechanics) is per lease:

* a claim held past ``FaultPolicy.job_timeout`` is reaped and retried,
  and its local holder is killed;
* a local worker that dies mid-job has its lease reaped at once and is
  replaced;
* every retry waits :func:`~repro.experiments.faults.backoff` and a
  job gets ``faults.MAX_ATTEMPTS`` before it becomes a structured
  :class:`JobFailure`,
  as does every job of a batch left with no live worker and no landed
  outcome for ``lease_ttl``;
* a job that cannot be **pickled** stops the batch with a
  ``TypeError`` naming it;
* a **deterministic exception** inside ``run()`` never retries: it
  becomes a structured :class:`JobFailure` carrying the original worker
  traceback, and the batch finishes before raising :class:`BatchFailed`
  (or raises immediately under ``fail_fast``).  A failed key is not
  kept, so a later batch runs it again.

``request_stop()`` (wired to SIGINT/SIGTERM by the CLI) stops the batch
at the next completion boundary and raises :class:`RunInterrupted` with
the run id to ``--resume``; every completion is already journaled.
"""

from __future__ import annotations

import logging
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from ..memtrace.trace import Trace
from ..prefetchers.base import Prefetcher
from ..sim.engine import WARMUP_FRACTION, simulate
from ..sim.invariants import audit_requested
from ..sim.observers import merge_counter_snapshots
from ..sim.params import SystemConfig
from ..sim.stats import SimResult
from .cache import CACHE_VERSION, ResultCache, fingerprint, prefetcher_fingerprint
from .faults import (KIND_RAISE, BatchFailed, FaultPolicy, JobFailure,
                     RunInterrupted, RemoteJobError, failure_from_exception)
from .journal import RunJournal

if TYPE_CHECKING:  # imported lazily at runtime (repro.fabric imports us)
    from ..fabric.lease import FabricConfig

log = logging.getLogger("repro.experiments.engine")


@dataclass
class SimJob:
    """One (trace, fresh prefetcher, config) simulation to run, with the
    :data:`~repro.sim.engine.WARMUP_FRACTION` warmup."""

    trace: Trace
    prefetcher: Prefetcher
    config: SystemConfig
    trace_events: bool = False
    # Attach the invariant auditor to this run.  Deliberately NOT part of
    # key(): auditing is pure observation (results are identical with it
    # on or off), so audited and unaudited runs share cache entries.
    check_invariants: bool = False
    # Batch ordinary L1-hit runs through the vectorized fast path.  Also
    # NOT part of key(): results are bit-identical in both modes (the
    # differential suite pins this), so fastpath-on and --no-fastpath
    # runs share cache entries.
    fastpath: bool = True
    # The (prefetcher, config) fingerprints of this job's configuration.
    # Jobs built from one factory and config share this list: the first
    # one keyed fills it, the rest reuse it.  Sound because fresh
    # instances from one factory fingerprint equal (the conformance
    # harness checks it for every shipped engine).
    config_parts: list[str] = field(default_factory=list, repr=False,
                                    compare=False)

    def key(self) -> str:
        """Content hash identifying this job's result.

        ``trace_events`` salts the key only when on, so every result
        cached before the observer existed stays valid for untraced runs
        (traced results carry extra payload and must not alias them).
        """
        if not self.config_parts:
            self.config_parts.extend((prefetcher_fingerprint(self.prefetcher),
                                      self.config.fingerprint()))
        parts = [
            CACHE_VERSION,
            self.trace.content_hash(),
            *self.config_parts,
            repr(WARMUP_FRACTION),
        ]
        if self.trace_events:
            parts.append("trace-events")
        return fingerprint(parts)

    def run(self) -> SimResult:
        """Simulate this job: the engine's one call of ``simulate()``,
        made by the serial loop and by lease workers alike."""
        return simulate(self.trace, self.prefetcher, self.config,
                        WARMUP_FRACTION, trace_events=self.trace_events,
                        check_invariants=self.check_invariants or None,
                        fastpath=self.fastpath)

    @property
    def label(self) -> str:
        return f"{self.trace.name}/{self.prefetcher.name}"

    @staticmethod
    def encode(result: SimResult) -> dict:
        return result.to_dict()

    @staticmethod
    def decode(data: dict) -> SimResult:
        return SimResult.from_dict(data)


@dataclass
class EngineCounters:
    """What the engine did so far (feeds the run manifest)."""

    jobs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Completed simulations only — a failed or timed-out job does not
    #: count until (unless) an attempt actually produces a result.
    simulated: int = 0
    # Simulations that ran with the invariant auditor attached (a cache
    # hit skips the simulation, so it is not an audited run).
    audited: int = 0
    batches: int = 0
    wall_seconds: float = 0.0
    # ---- fault-tolerance accounting ----
    #: Jobs that ended as structured JobFailure records.
    failed: int = 0
    #: Reaped leases republished at a bumped epoch for another attempt
    #: (a transport fault: deadline, dead holder or stale heartbeat).
    retried: int = 0
    #: Leases reaped for overrunning ``FaultPolicy.job_timeout`` (one per
    #: overdue attempt).
    timed_out: int = 0
    #: Jobs replayed from a resumed run's journal.
    journal_replayed: int = 0
    #: Jobs answered by a simulation of their key in this batch or an
    #: earlier one.
    reused: int = 0
    # ---- lease accounting ----
    #: Claimed leases reaped because their holder died or its heartbeat
    #: went stale (one per expiry, so a job can contribute several).
    lease_expired: int = 0
    #: Jobs completed by fabric workers, local or external.
    fabric_completed: int = 0
    # Accumulated {event: {component: count}} from jobs that ran with
    # trace_events on (cache hits included — traced results round-trip
    # their counters through the cache).
    event_totals: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = {
            "jobs": self.jobs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "simulated": self.simulated,
            "audited": self.audited,
            "batches": self.batches,
            "wall_seconds": self.wall_seconds,
            "failed": self.failed,
            "retried": self.retried,
            "timed_out": self.timed_out,
            "journal_replayed": self.journal_replayed,
            "reused": self.reused,
            "lease_expired": self.lease_expired,
            "fabric_completed": self.fabric_completed,
        }
        if self.event_totals:
            data["event_counters"] = self.event_totals
        return data


@dataclass
class _WorkItem:
    """One distinct key to run: its first job, that job's batch index
    and the key."""

    index: int
    job: object
    key: str
    #: Indices of later jobs in the batch with the same key: one run
    #: serves them all, and its result lands at each.
    twins: list[int] = field(default_factory=list)


@dataclass
class ExperimentEngine:
    """Runs job batches with workers, caching and fault recovery."""

    workers: int = 0
    cache: ResultCache | None = None
    counters: EngineCounters = field(default_factory=EngineCounters)
    policy: FaultPolicy = field(default_factory=FaultPolicy)
    journal: RunJournal | None = None
    #: Open the batch to external ``pmp-repro fabric worker`` processes
    #: (repro.fabric): its leases are published under the journal's run
    #: directory, so this requires ``journal``.  Without it, a parallel
    #: batch still runs on leases, with the default configuration.
    fabric: "FabricConfig | None" = None
    #: JobFailure records accumulated across batches (manifest fodder).
    failures: list[JobFailure] = field(default_factory=list)
    #: Worker census of the last fabric batch (manifest fodder).
    fabric_census: list = field(default_factory=list, init=False, repr=False)
    #: The payload of every key this engine simulated.
    _done: dict[str, dict] = field(default_factory=dict, init=False,
                                   repr=False)
    _stop: bool = field(default=False, init=False, repr=False)

    def request_stop(self) -> None:
        """Stop at the next completion boundary (signal-handler safe)."""
        self._stop = True

    def run_jobs(self, jobs: list) -> list:
        """Execute a batch; results align with ``jobs`` by index.

        Raises :class:`BatchFailed` after the batch completes if any job
        failed deterministically (immediately under ``fail_fast``), and
        :class:`RunInterrupted` when stopped — in both cases every
        completed result is already cached and journaled.
        """
        start = time.perf_counter()
        failures_before = len(self.failures)
        results: list = [None] * len(jobs)
        # One work item per distinct key still to run; repeats ride
        # along as twins, so the serial loop and the broker run it once.
        pending: dict[str, _WorkItem] = {}
        for index, job in enumerate(jobs):
            key = job.key()
            if key in pending:
                pending[key].twins.append(index)
                continue
            done = self._done.get(key)
            if done is not None:
                results[index] = job.decode(done)
                self.counters.reused += 1
                continue
            if self.journal is not None:
                replayed = self.journal.lookup(key, job.decode)
                if replayed is not None:
                    results[index] = replayed
                    self.counters.journal_replayed += 1
                    continue
            if self.cache is not None:
                cached = self.cache.get(key, job.decode)
                if cached is not None:
                    results[index] = cached
                    self.counters.cache_hits += 1
                    continue
                self.counters.cache_misses += 1
            pending[key] = _WorkItem(index, job, key)
        items = list(pending.values())

        try:
            if ((self.fabric is not None and items)
                    or (self.workers > 1 and len(items) > 1)):
                self._run_fabric(items, results)
            else:
                self._run_serial(items, results)
        except KeyboardInterrupt:
            # Bare Ctrl+C without the CLI's signal handler installed:
            # surface the resume hint.
            raise self._interrupted(results) from None
        finally:
            for result in results:
                if isinstance(result, SimResult) and result.event_counters:
                    merge_counter_snapshots(self.counters.event_totals,
                                            result.event_counters)
            self.counters.jobs += len(jobs)
            self.counters.batches += 1
            self.counters.wall_seconds += time.perf_counter() - start

        new_failures = self.failures[failures_before:]
        if new_failures:
            raise BatchFailed(new_failures, results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------ job plumbing

    def _complete(self, results: list, item: _WorkItem, data: dict) -> None:
        """One job finished with the payload ``data``: place a decoded
        copy at its index and at each twin's, count it, keep ``data`` for
        later batches, cache and journal it."""
        job = item.job
        for index in (item.index, *item.twins):
            results[index] = job.decode(data)
        self._done[item.key] = data
        self.counters.simulated += 1
        self.counters.reused += len(item.twins)
        if audit_requested(job.check_invariants or None):
            self.counters.audited += 1
        if self.cache is not None:
            self.cache.put(item.key, data)
        if self.journal is not None:
            self.journal.record_done(item.key, data)

    def _register_failure(self, item: _WorkItem, failure: JobFailure,
                          cause: BaseException | None) -> None:
        """Count and log a structured failure of the item and of each
        twin (the broker reports failures in this form directly;
        ``cause`` is None when a worker's exception could not cross)."""
        for index in (item.index, *item.twins):
            record = replace(failure, index=index)
            log.warning("job %d (%s) failed [%s after %d attempt(s)]: %s",
                        index, record.label, record.kind, record.attempts,
                        record.message)
            self.counters.failed += 1
            self.failures.append(record)
        if self.policy.fail_fast:
            raise cause if cause is not None else RemoteJobError(
                f"{failure.error_type}: {failure.message}")

    def _interrupted(self, results: list) -> RunInterrupted:
        remaining = sum(1 for r in results if r is None)
        return RunInterrupted(
            self.journal.run_id if self.journal is not None else None,
            completed=len(results) - remaining, remaining=remaining)

    def _run_serial(self, items: list[_WorkItem], results: list) -> None:
        for item in items:
            if self._stop:
                raise self._interrupted(results)
            job = item.job
            try:
                result = job.run()
            except Exception as exc:
                self._register_failure(item, failure_from_exception(
                    item.index, item.key, job.label, KIND_RAISE, exc), exc)
                continue
            self._complete(results, item, job.encode(result))

    # -------------------------------------------------------------- lease path

    def _run_fabric(self, items: list[_WorkItem], results: list) -> None:
        """Run work items as leases on the fabric broker.

        The broker publishes one lease per item, forks the local
        workers and consumes completions back through the same
        ``_complete`` / ``_register_failure`` plumbing the serial path
        uses, so caching, journaling and failure accounting are
        identical — and a leased run's numbers are bit-identical to a
        serial run's.  Leases live under the journal's run directory, or
        without a journal in a private directory removed afterwards.
        """
        from ..fabric.broker import FabricBroker
        from ..fabric.lease import FabricConfig
        from ..fabric.protocol import BATCH_PAUSED
        if self.fabric is not None and self.journal is None:
            raise ValueError(
                "fabric execution requires a run journal (the lease "
                "directories live under the journal's run directory)")

        private = None
        if self.journal is not None:
            run_dir, run_id = self.journal.directory, self.journal.run_id
        else:
            run_dir = private = Path(tempfile.mkdtemp(prefix="repro-leases-"))
            run_id = None
        broker = FabricBroker(
            run_dir=run_dir, run_id=run_id,
            config=self.fabric or FabricConfig(), policy=self.policy,
            counters=self.counters,
            on_result=lambda item, data: self._complete(results, item, data),
            on_failure=self._register_failure,
            should_stop=lambda: self._stop,
            local_workers=self.workers if self.workers > 1 else 0)
        try:
            status = broker.run(items)
        finally:
            self.fabric_census = broker.census_snapshot()
            if private is not None:
                shutil.rmtree(private, ignore_errors=True)
        if status == BATCH_PAUSED:
            raise self._interrupted(results)
