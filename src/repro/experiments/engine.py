"""Parallel, cached, fault-tolerant execution engine for ``simulate()`` batches.

The engine turns an experiment matrix (traces × prefetcher configs ×
system configs) into a flat list of :class:`SimJob`s and executes them:

1. **Replay** — each job is content-hashed (see
   :mod:`repro.experiments.cache`); a journaled result from a resumed
   run, or a checksummed cache entry, returns without simulating.
2. **Fan-out** — remaining jobs run serially (``workers <= 1``) or on a
   :class:`~concurrent.futures.ProcessPoolExecutor` with a sliding
   submission window.  Results are placed back by job index, and every
   job's prefetcher instance is constructed in the parent *in job order*
   before dispatch, so parallel runs are bit-identical to serial runs
   regardless of completion order.
3. **Write-back** — each result is persisted to the cache *and* the run
   journal the moment its job completes (not at batch end), so a crash
   or SIGINT loses at most the jobs in flight.

Fault tolerance (see :mod:`repro.experiments.faults` for the taxonomy):

* a **watchdog** enforces ``FaultPolicy.job_timeout`` per job, measured
  from when the job starts on a worker; an overdue job's pool is killed
  (stuck workers are terminated, not abandoned) and the job retries on a
  fresh pool, up to ``max_attempts``;
* a **pool crash** (``BrokenProcessPool`` after a worker segfault/OOM
  kill) rebuilds the pool with bounded exponential backoff and
  resubmits the unfinished jobs; after ``max_pool_rebuilds`` the
  remainder degrades — loudly, counted in the manifest — to in-process
  execution;
* a job that cannot be **pickled** falls back to in-process execution,
  as before;
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
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor, Future,
                                ProcessPoolExecutor)
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
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
from .faults import (KIND_POOL_CRASH, KIND_RAISE, KIND_TIMEOUT, BatchFailed,
                     FaultPolicy, JobFailure, JobTimeout, RunInterrupted,
                     RemoteJobError, chaos_enabled, failure_from_exception,
                     has_remote_traceback, maybe_inject_chaos)
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
    #: Job executions re-run because of a transport fault (timeout or
    #: pool crash) — includes innocent jobs resubmitted when their pool
    #: died under them.
    retried: int = 0
    #: Watchdog deadline expiries (one per overdue attempt).
    timed_out: int = 0
    #: Fresh pools built after a crash or a watchdog kill.
    pool_rebuilds: int = 0
    #: Jobs replayed from a resumed run's journal.
    journal_replayed: int = 0
    #: Jobs executed in-process because they could not cross the process
    #: boundary (pickling) or the pool-rebuild budget was exhausted —
    #: or, in fabric mode, because every worker died (graceful
    #: degradation claims the remainder as "broker-inline").
    inline_fallbacks: int = 0
    # ---- fabric (lease-based distribution) accounting ----
    #: Claimed leases reaped because their heartbeat went stale (one per
    #: expiry, so a job can contribute several).
    lease_expired: int = 0
    #: Expired leases republished at a bumped epoch for another worker.
    lease_reassigned: int = 0
    #: Jobs completed by external fabric workers (not inline fallback).
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
            "pool_rebuilds": self.pool_rebuilds,
            "journal_replayed": self.journal_replayed,
            "inline_fallbacks": self.inline_fallbacks,
            "lease_expired": self.lease_expired,
            "lease_reassigned": self.lease_reassigned,
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


@dataclass
class ExperimentEngine:
    """Runs :class:`SimJob` batches with workers, caching and fault recovery."""

    workers: int = 0
    cache: ResultCache | None = None
    counters: EngineCounters = field(default_factory=EngineCounters)
    policy: FaultPolicy = field(default_factory=FaultPolicy)
    journal: RunJournal | None = None
    #: Lease-based distributed execution (repro.fabric).  When set, the
    #: batch is published as durable leases under the journal's run
    #: directory and external ``pmp-repro fabric worker`` processes do
    #: the simulating; requires ``journal``.
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
        need_key = (self.cache is not None or self.journal is not None
                    or self.fabric is not None or chaos_enabled())
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
            if pending:
                if self.fabric is not None:
                    self._run_fabric(pending, results)
                elif self.workers > 1 and len(pending) > 1:
                    self._run_parallel(pending, results)
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
        self._register_failure(failure, exc)

    def _register_failure(self, failure: JobFailure,
                          cause: BaseException | None) -> None:
        """Count, log and journal a structured failure (fabric brokers
        report failures in this form directly — the original exception
        object never crossed the filesystem)."""
        log.warning("job %d (%s/%s) failed [%s after %d attempt(s)]: %s",
                    failure.index, failure.trace_name,
                    failure.prefetcher_name, failure.kind, failure.attempts,
                    failure.message)
        self.counters.failed += 1
        self.failures.append(failure)
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

    def _simulate_inline(self, job: SimJob) -> SimResult:
        return simulate(job.trace, job.prefetcher, job.config,
                        job.warmup_fraction, trace_events=job.trace_events,
                        check_invariants=job.check_invariants or None,
                        fastpath=job.fastpath, sampling=job.sampling)

    # ------------------------------------------------------------- serial path

    def _run_serial(self, pending: list[tuple[int, SimJob, str | None]],
                    results: list[SimResult | None]) -> None:
        for index, job, key in pending:
            if self._stop:
                self._flush_journal()
                raise self._interrupted(results)
            item = _WorkItem(index, job, key, payload=(), attempts=1)
            try:
                result = self._simulate_inline(job)
            except Exception as exc:
                self._fail(item, KIND_RAISE, exc)
                continue
            self._complete(results, item, result)

    # ------------------------------------------------------------- fabric path

    def _run_fabric(self, pending: list[tuple[int, SimJob, str | None]],
                    results: list[SimResult | None]) -> None:
        """Distribute pending jobs as durable leases (repro.fabric).

        The broker publishes every job under the journal's run directory
        and consumes completions back through the same ``_complete`` /
        ``_register_failure`` plumbing the in-process paths use, so
        caching, journaling and failure accounting are identical — and a
        fabric run's numbers are bit-identical to a serial run's.
        """
        from ..fabric.broker import FabricBroker
        from ..fabric.protocol import BATCH_PAUSED
        if self.journal is None:
            raise ValueError(
                "fabric execution requires a run journal (the lease "
                "directories live under the journal's run directory)")

        def inline(item: _WorkItem) -> dict | None:
            item.attempts += 1
            try:
                result = self._simulate_inline(item.job)
            except Exception as exc:
                self._fail(item, KIND_RAISE, exc)
                return None
            self._complete(results, item, result)
            return result.to_dict()

        broker = FabricBroker(
            run_dir=self.journal.directory, run_id=self.journal.run_id,
            config=self.fabric, policy=self.policy, counters=self.counters,
            on_result=lambda item, result: self._complete(
                results, item, result),
            on_failure=self._register_failure,
            inline=inline,
            should_stop=lambda: self._stop)
        try:
            status = broker.run(list(self._work_items(pending)))
        finally:
            self.fabric_census = broker.census_snapshot()
        if status == BATCH_PAUSED:
            self._flush_journal()
            raise self._interrupted(results)

    # ----------------------------------------------------------- parallel path

    def _work_items(self, pending) -> deque[_WorkItem]:
        items: deque[_WorkItem] = deque()
        for index, job, key in pending:
            payload = (job.trace.name, job.trace.family, job.trace.seed,
                       job.trace.arrays(), job.prefetcher, job.config,
                       job.warmup_fraction, job.trace_events,
                       job.check_invariants, job.fastpath, job.sampling, key)
            items.append(_WorkItem(index, job, key, payload))
        return items

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down *now*, terminating stuck or orphaned workers.

        A plain ``shutdown()`` would wait for a hung worker forever (and
        the interpreter's atexit hook would block on it even with
        ``wait=False``), so the watchdog terminates the worker processes
        directly and then reaps them.
        """
        procs = getattr(pool, "_processes", None)
        processes = list(procs.values()) if procs else []
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for proc in processes:
            try:
                proc.terminate()
            except Exception:
                pass
        for proc in processes:
            try:
                proc.join(timeout=5)
            except Exception:
                pass

    def _run_parallel(self, pending: list[tuple[int, SimJob, str | None]],
                      results: list[SimResult | None]) -> None:
        """Fan pending jobs out over a watchdogged process pool.

        Submission is windowed to the pool size so a job's wall-clock
        budget starts when it actually starts executing; results land by
        index, preserving bit-identical ordering semantics.
        """
        policy = self.policy
        queue = self._work_items(pending)
        inline: list[_WorkItem] = []
        pool_size = max(1, min(self.workers, len(queue)))
        crash_rebuilds = 0
        pool: ProcessPoolExecutor | None = None
        active: dict[Future, _WorkItem] = {}
        deadlines: dict[Future, float] = {}

        def requeue_or_fail(item: _WorkItem, kind: str,
                            exc: BaseException) -> None:
            if item.attempts >= policy.max_attempts:
                self._fail(item, kind, exc)
            else:
                queue.append(item)
                self.counters.retried += 1

        def fresh_pool() -> ProcessPoolExecutor:
            self.counters.pool_rebuilds += 1
            return ProcessPoolExecutor(
                max_workers=max(1, min(pool_size, len(queue))))

        def handle_crash(exc: BaseException) -> None:
            """A worker death broke the pool: recover or degrade."""
            nonlocal pool, crash_rebuilds
            for item in list(active.values()):
                item.attempts += 1
                requeue_or_fail(item, KIND_POOL_CRASH, exc)
            active.clear()
            deadlines.clear()
            if pool is not None:
                self._kill_pool(pool)
                pool = None
            crash_rebuilds += 1
            if self._stop:
                return  # the loop raises RunInterrupted next iteration
            if crash_rebuilds > policy.max_pool_rebuilds:
                log.warning(
                    "pool crashed %d times; rebuild budget exhausted — "
                    "running the remaining %d job(s) in-process",
                    crash_rebuilds, len(queue))
                return  # pool stays None: the loop degrades to inline
            if queue:
                backoff = policy.backoff(crash_rebuilds)
                log.warning("pool crash (%s); rebuilding in %.2fs "
                            "(%d job(s) outstanding)",
                            type(exc).__name__, backoff, len(queue))
                policy.sleep(backoff)
                pool = fresh_pool()

        try:
            pool = ProcessPoolExecutor(max_workers=pool_size)
            while queue or active:
                if self._stop:
                    self._flush_journal()
                    raise self._interrupted(results)
                if pool is None:
                    # Rebuild budget exhausted: degrade the remainder to
                    # in-process execution (visible in the manifest).
                    self.counters.inline_fallbacks += len(queue)
                    inline.extend(queue)
                    queue.clear()
                    break
                # Keep the submission window full.
                broken_on_submit: BaseException | None = None
                while queue and len(active) < pool_size:
                    item = queue.popleft()
                    try:
                        fut = pool.submit(_simulate_payload, *item.payload)
                    except BrokenExecutor as exc:
                        queue.appendleft(item)
                        broken_on_submit = exc
                        break
                    except Exception:  # local submit-side failure: ship
                        inline.append(item)  # the job in-process instead
                        self.counters.inline_fallbacks += 1
                        continue
                    active[fut] = item
                    if policy.job_timeout:
                        deadlines[fut] = time.monotonic() + policy.job_timeout
                if broken_on_submit is not None:
                    handle_crash(broken_on_submit)
                    continue
                if not active:
                    continue

                wait_timeout = None
                if deadlines:
                    wait_timeout = max(
                        0.0, min(deadlines.values()) - time.monotonic())
                done, _ = futures_wait(set(active), timeout=wait_timeout,
                                       return_when=FIRST_COMPLETED)

                crashed: BaseException | None = None
                for fut in done:
                    item = active.pop(fut)
                    deadlines.pop(fut, None)
                    exc = fut.exception()
                    if exc is None:
                        self._complete(results, item, fut.result())
                    elif isinstance(exc, BrokenExecutor):
                        crashed = exc
                        item.attempts += 1
                        requeue_or_fail(item, KIND_POOL_CRASH, exc)
                    elif has_remote_traceback(exc):
                        item.attempts += 1
                        self._fail(item, KIND_RAISE, exc)
                    else:
                        # Local failure shipping the job (e.g. pickling):
                        # run it in-process, as the engine always has.
                        inline.append(item)
                        self.counters.inline_fallbacks += 1

                if crashed is not None:
                    handle_crash(crashed)
                    continue

                if deadlines:
                    now = time.monotonic()
                    overdue = [fut for fut, when in deadlines.items()
                               if when <= now]
                    if overdue:
                        for fut in overdue:
                            item = active.pop(fut)
                            deadlines.pop(fut, None)
                            self.counters.timed_out += 1
                            item.attempts += 1
                            log.warning(
                                "watchdog: job %d (%s/%s) exceeded %.1fs "
                                "(attempt %d)", item.index,
                                item.job.trace.name, item.job.prefetcher.name,
                                policy.job_timeout, item.attempts)
                            requeue_or_fail(item, KIND_TIMEOUT, JobTimeout(
                                f"job exceeded {policy.job_timeout:.1f}s "
                                f"wall-clock budget"))
                        # The stuck worker holds a pool slot hostage, so
                        # the pool is killed; innocents go back to the
                        # queue head and rerun on the fresh pool.
                        for item in active.values():
                            queue.appendleft(item)
                            self.counters.retried += 1
                        active.clear()
                        deadlines.clear()
                        self._kill_pool(pool)
                        pool = fresh_pool() if queue else None
                        if pool is None:
                            break
        finally:
            if pool is not None:
                self._kill_pool(pool)

        for item in inline:
            if self._stop:
                self._flush_journal()
                raise self._interrupted(results)
            item.attempts += 1
            try:
                result = self._simulate_inline(item.job)
            except Exception as exc:
                self._fail(item, KIND_RAISE, exc)
                continue
            self._complete(results, item, result)
