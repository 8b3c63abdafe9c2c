"""Fault taxonomy and policy for the experiment engine.

A campaign-scale sweep (125 traces × many configs) dies three ways: a
job hangs forever, a worker process dies mid-job, or a simulation raises
deterministically.  Those are *different* faults and deserve different
treatment:

* **Transport failures** — the job never produced an answer because the
  machinery failed (a worker killed by a segfault or the OOM killer, a
  lease held past its deadline or gone silent).  Re-running the job can
  succeed, so the lease broker republishes the lease with bounded
  exponential backoff (:func:`backoff`), up to :data:`MAX_ATTEMPTS`
  attempts.  A job that cannot be pickled is a bug, not a fault: the
  broker raises ``TypeError`` naming it.
* **Deterministic failures** — the job's ``run()`` itself raised in the
  worker.  Re-running reproduces the same exception, so retrying is
  waste and (worse) hides the bug.  These become structured
  :class:`JobFailure` records carrying the original worker traceback;
  the batch keeps going unless ``fail_fast`` is set.

Every job, single-core or four-core, is named in these records by its
``label``.

The module also hosts the seedable **chaos injector** used by the chaos
CI job: with ``REPRO_CHAOS_SEED`` set, worker processes
deterministically hang, crash, or raise on a job's *first* attempt
(a file latch under ``REPRO_CHAOS_DIR`` arms each fault exactly once),
which exercises every recovery path of the engine on an otherwise
ordinary run.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time
import traceback as traceback_module
from dataclasses import dataclass
from pathlib import Path

log = logging.getLogger("repro.experiments.faults")

#: JobFailure.kind values.
KIND_RAISE = "raise"          # deterministic exception inside a job's run()
KIND_TIMEOUT = "timeout"      # lease held past its deadline, retries exhausted
KIND_LEASE_EXPIRED = "lease-expired"  # lease holder lost, retries exhausted

#: Total attempts per job (first run + retries) for transport faults.
MAX_ATTEMPTS = 3
#: Retry backoff: ``BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1)``
#: seconds, capped at ``BACKOFF_MAX``.
BACKOFF_BASE = 0.5
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 30.0


class JobTimeout(RuntimeError):
    """A leased job overran ``FaultPolicy.job_timeout`` on every attempt."""


class LeaseExpired(RuntimeError):
    """A lease lost its holder too many times.

    A lease expiry is the fabric's transport fault: the worker holding
    the claim died (or partitioned) without producing an answer, so the
    job itself is innocent.  The broker retries by reassignment up to
    :data:`MAX_ATTEMPTS`; this exception marks the exhaustion.
    """


class RemoteJobError(RuntimeError):
    """A fabric worker reported a deterministic failure of a job's ``run()``.

    Raised in the broker process under ``fail_fast`` when the original
    exception object is unavailable (only the worker's formatted
    traceback crossed the filesystem)."""


class BatchFailed(RuntimeError):
    """A batch finished, but some jobs failed terminally.

    Raised *after* the batch ran to completion (every other job's result
    is simulated, cached and journaled), so a rerun only re-executes the
    failed jobs.  ``results`` aligns with the submitted job list
    (``None`` in failed slots) and ``failures`` carries one
    :class:`JobFailure` per failed job.
    """

    def __init__(self, failures: list["JobFailure"], results: list) -> None:
        names = ", ".join(sorted({f.label for f in failures}))
        kinds = ", ".join(sorted({f.kind for f in failures}))
        super().__init__(
            f"{len(failures)} job(s) failed ({kinds}) on {names}; "
            "see .failures for tracebacks")
        self.failures = failures
        self.results = results


class RunInterrupted(RuntimeError):
    """A batch was stopped early (SIGINT/SIGTERM or ``request_stop``).

    Every job that completed before the stop is already in the journal
    (and the result cache), so ``--resume <run_id>`` skips it.
    """

    def __init__(self, run_id: str | None, completed: int,
                 remaining: int) -> None:
        hint = f"; resume with --resume {run_id}" if run_id else ""
        super().__init__(f"run interrupted: {completed} job(s) journaled, "
                         f"{remaining} remaining{hint}")
        self.run_id = run_id
        self.completed = completed
        self.remaining = remaining


@dataclass
class JobFailure:
    """Structured record of one job that produced no result."""

    index: int
    key: str
    #: The job's ``label``: ``trace/prefetcher``, or the four lanes'
    #: traces joined by ``+`` for a multicore job.
    label: str
    kind: str   # KIND_RAISE / KIND_TIMEOUT / KIND_LEASE_EXPIRED
    error_type: str
    message: str
    traceback: str
    attempts: int = 1

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "key": self.key,
            "label": self.label,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }


def failure_from_exception(index: int, key: str, label: str,
                           kind: str, exc: BaseException,
                           attempts: int = 1) -> JobFailure:
    """Build a :class:`JobFailure` carrying the exception's formatted
    traceback (with its chained causes)."""
    tb = "".join(traceback_module.format_exception(
        type(exc), exc, exc.__traceback__))
    return JobFailure(index=index, key=key, label=label, kind=kind,
                      error_type=type(exc).__name__, message=str(exc),
                      traceback=tb, attempts=attempts)


def lease_expiry_failure(index: int, key: str, label: str,
                         attempts: int, reason: str,
                         kind: str = KIND_LEASE_EXPIRED) -> JobFailure:
    """The structured record of a lease reaped until its retry budget ran
    out (``kind``: the last reap's cause, deadline or lost holder).

    Reaped leases carry no traceback (the worker hung or vanished rather
    than raised), so the record spells out the transport-vs-deterministic
    classification in its message instead.
    """
    error_type = "JobTimeout" if kind == KIND_TIMEOUT else "LeaseExpired"
    message = (f"lease reaped {attempts} time(s) without a result "
               f"(transport fault — job innocent): {reason}")
    return JobFailure(index=index, key=key, label=label, kind=kind,
                      error_type=error_type, message=message,
                      traceback=f"{error_type}: {message}\n",
                      attempts=attempts)


# ----------------------------------------------------------------- fault policy

@dataclass
class FaultPolicy:
    """The timeout and failure switches of one :class:`ExperimentEngine`
    (``--job-timeout`` and ``--fail-fast``)."""

    #: Per-lease wall-clock deadline in seconds, measured from when the
    #: broker first sees the job claimed (a queued job's clock does not
    #: run).  A claim held past it is reaped and retried.  ``None``
    #: disables the deadline; serial in-process runs have none.
    job_timeout: float | None = None
    #: Raise the first failure immediately instead of recording it and
    #: finishing the batch.
    fail_fast: bool = False


def backoff(attempt: int) -> float:
    """Delay before the ``attempt``-th retry of a reaped lease (1-based)."""
    return min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1))


# -------------------------------------------------------------- chaos injection
#
# The chaos injector lets CI (and tests) run an ordinary experiment
# command while worker processes deterministically misbehave.  All knobs
# are environment variables so no production call site changes:
#
#   REPRO_CHAOS_SEED          arm chaos; seeds the per-job fault draw
#   REPRO_CHAOS_RATE          fraction of jobs faulted (default 0.25)
#   REPRO_CHAOS_MODES         csv of hang,crash,raise (default hang,crash)
#   REPRO_CHAOS_HANG_SECONDS  hang duration (default 30)
#   REPRO_CHAOS_DIR           latch directory (default .repro-cache/chaos)
#
# Selection and mode are pure functions of (seed, job key), so two runs
# of the same suite fault the same jobs the same way.  A file latch arms
# each fault exactly once: the retried attempt runs clean, which is what
# lets the chaos smoke job demand bit-identical final numbers.

CHAOS_SEED_ENV = "REPRO_CHAOS_SEED"
CHAOS_RATE_ENV = "REPRO_CHAOS_RATE"
CHAOS_MODES_ENV = "REPRO_CHAOS_MODES"
CHAOS_HANG_ENV = "REPRO_CHAOS_HANG_SECONDS"
CHAOS_DIR_ENV = "REPRO_CHAOS_DIR"

DEFAULT_CHAOS_MODES = ("hang", "crash")


class ChaosError(RuntimeError):
    """The deterministic exception the chaos injector raises."""


def chaos_enabled() -> bool:
    """Chaos is armed for this process (seed env var set)."""
    return bool(os.environ.get(CHAOS_SEED_ENV))


def chaos_plan(key: str) -> str | None:
    """The fault mode drawn for this job key, or ``None`` (pure function)."""
    seed = os.environ.get(CHAOS_SEED_ENV)
    if not seed or not key:
        return None
    modes = [m.strip() for m in
             os.environ.get(CHAOS_MODES_ENV,
                            ",".join(DEFAULT_CHAOS_MODES)).split(",")
             if m.strip()]
    if not modes:
        return None
    rate = float(os.environ.get(CHAOS_RATE_ENV, "0.25"))
    draw = int(hashlib.sha256(f"{seed}:{key}".encode()).hexdigest(), 16)
    if (draw % 1_000_000) / 1_000_000 >= rate:
        return None
    return modes[(draw // 1_000_000) % len(modes)]


def _in_worker_process() -> bool:
    import multiprocessing
    return multiprocessing.parent_process() is not None


def maybe_inject_chaos(key: str) -> None:
    """Fire the planned fault of the job leased under ``key`` once, if
    chaos is armed.

    Only ever fires inside a worker process (``os._exit`` in the parent
    would kill the whole run), and only on the first attempt: the latch
    file is created before the fault so every retry runs clean.
    """
    if not chaos_enabled() or not _in_worker_process():
        return
    mode = chaos_plan(key)
    if mode is None:
        return
    latch_dir = Path(os.environ.get(CHAOS_DIR_ENV, ".repro-cache/chaos"))
    latch_dir.mkdir(parents=True, exist_ok=True)
    latch = latch_dir / f"{hashlib.sha256(key.encode()).hexdigest()[:32]}.fired"
    try:
        latch.touch(exist_ok=False)
    except FileExistsError:
        return  # already faulted once; run clean
    log.warning("chaos: injecting %s for job %s", mode, key[:12])
    if mode == "hang":
        time.sleep(float(os.environ.get(CHAOS_HANG_ENV, "30")))
    elif mode == "crash":
        os._exit(139)
    elif mode == "raise":
        raise ChaosError(f"chaos: injected failure for job {key[:12]}")
