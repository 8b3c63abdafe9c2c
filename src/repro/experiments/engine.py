"""Parallel, cached, fault-tolerant execution engine for ``simulate()`` batches.

The engine turns an experiment matrix (traces × prefetcher configs ×
system configs) into a flat list of :class:`SimJob`s and executes them:

1. **Replay** — each job is content-hashed (see
   :mod:`repro.experiments.cache`); a journaled result from a resumed
   run, or a checksummed cache entry, returns without simulating.
2. **Fan-out** — remaining jobs run serially (``workers <= 1``) or as
   leases on the :mod:`repro.fabric` broker: one lease per distinct job
   key, simulated by ``workers`` local worker processes forked for the
   batch (and, under ``fabric``, by any external ``pmp-repro fabric
   worker``).  Results are placed back by job index, and every job's
   prefetcher instance is constructed in the parent *in job order*
   before dispatch, so parallel runs are bit-identical to serial runs
   regardless of completion order.
3. **Write-back** — each result is persisted to the cache *and* the run
   journal the moment its job completes (not at batch end), so a crash
   or SIGINT loses at most the jobs in flight.

Fault tolerance (see :mod:`repro.experiments.faults` for the taxonomy
and :mod:`repro.fabric.broker` for the mechanics) is per lease:

* a claim held past ``FaultPolicy.job_timeout`` is reaped and retried,
  and its local holder is killed;
* a local worker that dies mid-job has its lease reaped at once and is
  replaced;
* every retry waits ``FaultPolicy.backoff`` and a job gets
  ``max_attempts`` before it becomes a structured :class:`JobFailure`;
* a job that cannot be **pickled** runs in-process, as does the
  remainder of a batch whose every worker is gone;
* a **deterministic exception** inside ``simulate()`` never retries: it
  becomes a structured :class:`JobFailure` carrying the original worker
  traceback, and the batch finishes before raising :class:`BatchFailed`
  (or raises immediately under ``fail_fast``).

``request_stop()`` (wired to SIGINT/SIGTERM by the CLI) stops the batch
at the next completion boundary, flushes the journal and raises
:class:`RunInterrupted` with the run id to ``--resume``.
"""

from __future__ import annotations

import logging
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from ..memtrace.trace import Trace, TraceArrays
from ..prefetchers.base import Prefetcher
from ..sampling.config import SamplingConfig
from ..sim.engine import simulate
from ..sim.invariants import audit_requested
from ..sim.observers import merge_counter_snapshots
from ..sim.params import SystemConfig
from ..sim.stats import SimResult
from .cache import CACHE_VERSION, ResultCache, fingerprint, prefetcher_fingerprint
from .faults import (KIND_RAISE, BatchFailed, FaultPolicy, JobFailure,
                     RunInterrupted, RemoteJobError, chaos_enabled,
                     failure_from_exception, maybe_inject_chaos)
from .journal import RunJournal

if TYPE_CHECKING:  # imported lazily at runtime (repro.fabric imports us)
    from ..fabric.lease import FabricConfig

log = logging.getLogger("repro.experiments.engine")


@dataclass
class SimJob:
    """One (trace, fresh prefetcher, config) simulation to run."""

    trace: Trace
    prefetcher: Prefetcher
    config: SystemConfig
    warmup_fraction: float = 0.2
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
    # Sampled execution (repro.sampling).  Unlike fastpath this IS part
    # of key() when enabled: sampled results are estimates, so they must
    # never alias exact results — or results sampled with other knobs.
    sampling: SamplingConfig | None = None
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
        ``sampling`` salts the key with its full knob fingerprint, again
        only when enabled, for the same backwards-compatibility reason.
        """
        if not self.config_parts:
            self.config_parts.extend((prefetcher_fingerprint(self.prefetcher),
                                      self.config.fingerprint()))
        parts = [
            CACHE_VERSION,
            self.trace.content_hash(),
            *self.config_parts,
            repr(self.warmup_fraction),
        ]
        if self.trace_events:
            parts.append("trace-events")
        if self.sampling is not None and self.sampling.enabled:
            parts.append(self.sampling.fingerprint())
        return fingerprint(parts)


def _simulate_payload(name: str, family: str, seed: int, arrays: TraceArrays,
                      prefetcher: Prefetcher, config: SystemConfig,
                      warmup_fraction: float,
                      trace_events: bool = False,
                      check_invariants: bool = False,
                      fastpath: bool = True,
                      sampling: SamplingConfig | None = None,
                      chaos_key: str | None = None) -> SimResult:
    """Worker entry point: rebuild the trace and run one simulation."""
    maybe_inject_chaos(chaos_key)
    trace = Trace.from_arrays(name, arrays, family=family, seed=seed)
    return simulate(trace, prefetcher, config, warmup_fraction,
                    trace_events=trace_events,
                    check_invariants=check_invariants or None,
                    fastpath=fastpath, sampling=sampling)


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
    #: Jobs executed in-process by the broker: a payload that could not
    #: be pickled, or the remainder of a batch whose every worker died
    #: (graceful degradation claims it as "broker-inline").
    inline_fallbacks: int = 0
    # ---- lease accounting ----
    #: Claimed leases reaped because their holder died or its heartbeat
    #: went stale (one per expiry, so a job can contribute several).
    lease_expired: int = 0
    #: Jobs completed by fabric workers, local or external (not inline).
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
            "inline_fallbacks": self.inline_fallbacks,
            "lease_expired": self.lease_expired,
            "fabric_completed": self.fabric_completed,
        }
        if self.event_totals:
            data["event_counters"] = self.event_totals
        return data


@dataclass
class _WorkItem:
    """One pending job plus everything needed to (re)submit it."""

    index: int
    job: SimJob
    key: str | None
    payload: tuple
    attempts: int = 0
    #: Indices of later jobs in the batch with the same key: one lease
    #: runs them all, and its result lands at each.
    twins: list[int] = field(default_factory=list)


@dataclass
class ExperimentEngine:
    """Runs :class:`SimJob` batches with workers, caching and fault recovery."""

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
    _stop: bool = field(default=False, init=False, repr=False)

    def request_stop(self) -> None:
        """Stop at the next completion boundary (signal-handler safe)."""
        self._stop = True

    def run_jobs(self, jobs: list[SimJob]) -> list[SimResult]:
        """Execute a batch; results align with ``jobs`` by index.

        Raises :class:`BatchFailed` after the batch completes if any job
        failed deterministically (immediately under ``fail_fast``), and
        :class:`RunInterrupted` when stopped — in both cases every
        completed result is already cached and journaled.
        """
        start = time.perf_counter()
        failures_before = len(self.failures)
        results: list[SimResult | None] = [None] * len(jobs)
        pending: list[tuple[int, SimJob, str | None]] = []
        # Leases are keyed, so every parallel batch is.
        need_key = (self.fabric is not None or self.workers > 1
                    or self.cache is not None or self.journal is not None
                    or chaos_enabled())
        for index, job in enumerate(jobs):
            key = job.key() if need_key else None
            if self.journal is not None and key is not None:
                replayed = self.journal.lookup(key)
                if replayed is not None:
                    results[index] = replayed
                    self.counters.journal_replayed += 1
                    continue
            if self.cache is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    results[index] = cached
                    self.counters.cache_hits += 1
                    continue
                self.counters.cache_misses += 1
            pending.append((index, job, key))

        try:
            if ((self.fabric is not None and pending)
                    or (self.workers > 1 and len(pending) > 1)):
                self._run_fabric(pending, results)
            else:
                self._run_serial(pending, results)
        except KeyboardInterrupt:
            # Bare Ctrl+C without the CLI's signal handler installed:
            # flush what completed and surface the resume hint.
            self._flush_journal()
            raise self._interrupted(results) from None
        finally:
            for result in results:
                if result is not None and result.event_counters:
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

    def _complete(self, results: list, item: _WorkItem,
                  result: SimResult) -> None:
        """One job finished: place, count, cache and journal its result."""
        results[item.index] = result
        for index in item.twins:
            results[index] = SimResult.from_dict(result.to_dict())
        self.counters.simulated += 1
        if audit_requested(item.job.check_invariants or None):
            self.counters.audited += 1
        if self.cache is not None and item.key is not None:
            self.cache.put(item.key, result)
        if self.journal is not None and item.key is not None:
            self.journal.record_done(item.key, result)

    def _fail(self, item: _WorkItem, kind: str, exc: BaseException) -> None:
        """One job is conclusively lost: record a structured failure."""
        failure = failure_from_exception(
            item.index, item.key, item.job.trace.name,
            item.job.prefetcher.name, kind, exc,
            attempts=max(1, item.attempts))
        self._register_failure(item, failure, exc)

    def _register_failure(self, item: _WorkItem, failure: JobFailure,
                          cause: BaseException | None) -> None:
        """Count, log and journal a structured failure of the item and of
        each twin (the broker reports failures in this form directly;
        ``cause`` is None when a worker's exception could not cross)."""
        for index in (item.index, *item.twins):
            record = replace(failure, index=index)
            log.warning("job %d (%s/%s) failed [%s after %d attempt(s)]: %s",
                        index, record.trace_name, record.prefetcher_name,
                        record.kind, record.attempts, record.message)
            self.counters.failed += 1
            self.failures.append(record)
        if self.journal is not None:
            self.journal.record_failure(failure.key, failure)
        if self.policy.fail_fast:
            raise cause if cause is not None else RemoteJobError(
                f"{failure.error_type}: {failure.message}")

    def _flush_journal(self) -> None:
        if self.journal is not None:
            self.journal.flush()

    def _interrupted(self, results: list) -> RunInterrupted:
        remaining = sum(1 for r in results if r is None)
        return RunInterrupted(
            self.journal.run_id if self.journal is not None else None,
            completed=len(results) - remaining, remaining=remaining)

    def _run_inline(self, results: list, item: _WorkItem) -> SimResult | None:
        """Simulate one job in this process: place its result, or record
        its failure and return None."""
        item.attempts += 1
        job = item.job
        try:
            result = simulate(job.trace, job.prefetcher, job.config,
                              job.warmup_fraction,
                              trace_events=job.trace_events,
                              check_invariants=job.check_invariants or None,
                              fastpath=job.fastpath, sampling=job.sampling)
        except Exception as exc:
            self._fail(item, KIND_RAISE, exc)
            return None
        self._complete(results, item, result)
        return result

    def _run_serial(self, pending: list[tuple[int, SimJob, str | None]],
                    results: list[SimResult | None]) -> None:
        for index, job, key in pending:
            if self._stop:
                self._flush_journal()
                raise self._interrupted(results)
            self._run_inline(results, _WorkItem(index, job, key, payload=()))

    # -------------------------------------------------------------- lease path

    def _run_fabric(self, pending: list[tuple[int, SimJob, str | None]],
                    results: list[SimResult | None]) -> None:
        """Run pending jobs as leases on the fabric broker.

        The broker publishes one lease per distinct key, forks the local
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
            on_result=lambda item, result: self._complete(
                results, item, result),
            on_failure=self._register_failure,
            inline=lambda item: self._run_inline(results, item),
            should_stop=lambda: self._stop,
            local_workers=self.workers if self.workers > 1 else 0)
        try:
            status = broker.run(self._work_items(pending))
        finally:
            self.fabric_census = broker.census_snapshot()
            if private is not None:
                shutil.rmtree(private, ignore_errors=True)
        if status == BATCH_PAUSED:
            self._flush_journal()
            raise self._interrupted(results)

    @staticmethod
    def _work_items(pending) -> list[_WorkItem]:
        """One work item per distinct key; repeats ride along as twins."""
        items: dict[str, _WorkItem] = {}
        for index, job, key in pending:
            if key in items:
                items[key].twins.append(index)
                continue
            payload = (job.trace.name, job.trace.family, job.trace.seed,
                       job.trace.arrays(), job.prefetcher, job.config,
                       job.warmup_fraction, job.trace_events,
                       job.check_invariants, job.fastpath, job.sampling, key)
            items[key] = _WorkItem(index, job, key, payload)
        return list(items.values())
