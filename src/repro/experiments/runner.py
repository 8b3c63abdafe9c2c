"""Shared experiment plumbing: build traces once, run prefetcher matrices.

All per-table/per-figure experiment modules go through :class:`SuiteRunner`
so traces and baseline runs are computed once and reused across the
experiment matrix (baseline runs dominate cost otherwise).

The runner delegates execution to an :class:`ExperimentEngine`, which adds
three orthogonal capabilities:

* ``workers=N`` fans ``simulate()`` calls out to N local lease workers
  with deterministic job ordering — parallel results are bit-identical
  to serial ones (asserted by ``tests/test_parallel_runner.py``).
* ``cache=<dir>`` persists every result on disk keyed by a content hash of
  (trace stream, prefetcher state, full system config, warmup), so reruns
  of any experiment replay instantly and exactly.
* fault tolerance: ``job_timeout`` is the per-lease deadline,
  ``fail_fast`` turns deterministic job failures from end-of-batch
  :class:`BatchFailed` reports into immediate aborts, and ``journal``
  attaches a :class:`~repro.experiments.journal.RunJournal` so an
  interrupted run resumes with ``--resume <run-id>``.

Batch entry points (:meth:`matrix`, :meth:`suite_comparison`,
:meth:`nipc_sweep`, :meth:`nipc_grid`) flatten whole experiment matrices
into one engine batch, which is what keeps a worker pool busy instead of
synchronising after every 8-trace run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from ..memtrace.store import TraceStore
from ..memtrace.trace import Trace
from ..memtrace.workloads import WorkloadSpec, quick_suite
from ..prefetchers.base import NoPrefetcher, Prefetcher
from ..sampling.config import SamplingConfig
from ..scenarios.catalog import scale_defaults
from ..sim.params import SystemConfig
from ..sim.stats import SimResult, geomean
from .cache import ResultCache
from .engine import ExperimentEngine, SimJob
from .faults import FaultPolicy
from .journal import RunJournal
from .manifest import RunManifest, current_git_sha

if TYPE_CHECKING:  # imported lazily at runtime (repro.fabric imports us)
    from ..fabric.lease import FabricConfig

PrefetcherFactory = Callable[[], Prefetcher]

# The experiment trace length resolves through the scenario catalog's
# [defaults.scale] table (scenarios/catalog.toml) — one source of truth
# shared with the CLI default and the bench harness.
DEFAULT_ACCESSES = scale_defaults("experiment_accesses")


@dataclass
class SuiteRunner:
    """Runs prefetcher configurations over a workload suite with caching.

    ``workers=0`` (or 1) runs serially in-process; ``workers=N`` runs
    each batch on N forked lease workers.  ``cache`` may be a
    :class:`ResultCache` or a directory path; ``None`` disables the
    persistent cache (in-memory baseline memoisation still applies).
    """

    specs: Sequence[WorkloadSpec] = field(default_factory=quick_suite)
    accesses: int = DEFAULT_ACCESSES
    config: SystemConfig = field(default_factory=SystemConfig.default)
    warmup_fraction: float = 0.2
    store: TraceStore | None = None
    workers: int = 0
    cache: ResultCache | str | Path | None = None
    # Attach the opt-in EventTrace observer to every simulation; the
    # per-component counter totals land in the run manifest.
    trace_events: bool = False
    # Attach the invariant auditor to every simulation (also enabled
    # globally by REPRO_CHECK_INVARIANTS=1).  The audit count lands in
    # the run manifest.
    check_invariants: bool = False
    # Batch ordinary L1-hit runs through the vectorized fast path
    # (results are bit-identical either way; ``--no-fastpath`` on the
    # CLI forces every access through the event kernel).
    fastpath: bool = True
    # Per-lease wall-clock deadline in seconds (leased runs only; None
    # disables).  A claim held past it is reaped and retried.
    job_timeout: float | None = None
    # Raise the first deterministic job failure immediately instead of
    # finishing the batch and raising a BatchFailed summary.
    fail_fast: bool = False
    # Journal for crash-safe resume: a RunJournal instance, or a run
    # directory root (a fresh run id is generated).  None disables.
    journal: RunJournal | str | Path | None = None
    # Sampled execution (repro.sampling): when set and enabled, every job
    # simulates representative windows only and extrapolates, carrying
    # the plan and error bars in SimResult.sampling.  Results are
    # estimates, so the engine's cache keys are salted with the sampling
    # fingerprint — sampled and exact runs never alias.
    sampling: "SamplingConfig | None" = None
    # Open leased batches to external `pmp-repro fabric worker`
    # processes (repro.fabric): leases are published under the
    # journal's run directory.  Requires journal.
    fabric: "FabricConfig | None" = None

    def __post_init__(self) -> None:
        self._traces: list[Trace] | None = None
        # Baseline runs keyed by the FULL config fingerprint.  The old key
        # hashed only (DRAM rate, channels, LLC size); sweeps varying any
        # other field silently reused stale baselines.
        self._baselines: dict[str, list[SimResult]] = {}
        if isinstance(self.cache, (str, Path)):
            self.cache = ResultCache(self.cache)
        if isinstance(self.journal, (str, Path)):
            self.journal = RunJournal(self.journal)
        if self.fabric is not None and self.journal is None:
            raise ValueError("fabric execution requires a run journal "
                             "(drop --no-journal)")
        policy = FaultPolicy(job_timeout=self.job_timeout,
                             fail_fast=self.fail_fast)
        self.engine = ExperimentEngine(workers=self.workers, cache=self.cache,
                                       policy=policy, journal=self.journal,
                                       fabric=self.fabric)

    @property
    def traces(self) -> list[Trace]:
        """The materialised suite (built once, then cached)."""
        if self._traces is None:
            if self.store is not None:
                self._traces = self.store.build_all(list(self.specs),
                                                    self.accesses)
            else:
                self._traces = [spec.build(self.accesses)
                                for spec in self.specs]
        return self._traces

    # ------------------------------------------------------------ job plumbing

    def _jobs(self, factory: PrefetcherFactory,
              config: SystemConfig) -> list[SimJob]:
        """One fresh-prefetcher job per trace, in suite order.

        The jobs share one ``config_parts`` list, so the engine
        fingerprints the configuration once, not once per trace.
        """
        config_parts: list[str] = []
        return [SimJob(trace, factory(), config, self.warmup_fraction,
                       trace_events=self.trace_events,
                       check_invariants=self.check_invariants,
                       fastpath=self.fastpath,
                       sampling=self.sampling,
                       config_parts=config_parts)
                for trace in self.traces]

    def baselines(self, config: SystemConfig | None = None) -> list[SimResult]:
        """No-prefetcher runs (cached per full system configuration)."""
        cfg = config or self.config
        key = cfg.fingerprint()
        if key not in self._baselines:
            self._baselines[key] = self.engine.run_jobs(
                self._jobs(NoPrefetcher, cfg))
        return self._baselines[key]

    def run(self, factory: PrefetcherFactory,
            config: SystemConfig | None = None) -> list[SimResult]:
        """Simulate one prefetcher configuration over the suite."""
        cfg = config or self.config
        return self.engine.run_jobs(self._jobs(factory, cfg))

    def geomean_nipc(self, factory: PrefetcherFactory,
                     config: SystemConfig | None = None) -> float:
        """Suite-wide NIPC for one prefetcher configuration."""
        sweep = self.nipc_sweep([("only", factory)], config)
        return sweep[0][1]

    def matrix(self, factories: dict[str, PrefetcherFactory],
               config: SystemConfig | None = None) -> dict[str, list[SimResult]]:
        """Run several prefetchers over the whole suite (one engine batch)."""
        cfg = config or self.config
        names = list(factories)
        jobs: list[SimJob] = []
        for name in names:
            jobs.extend(self._jobs(factories[name], cfg))
        flat = self.engine.run_jobs(jobs)
        width = len(self.traces)
        return {name: flat[i * width:(i + 1) * width]
                for i, name in enumerate(names)}

    def suite_comparison(self, factories: dict[str, PrefetcherFactory],
                         config: SystemConfig | None = None,
                         ) -> tuple[dict[str, list[SimResult]], list[SimResult]]:
        """A prefetcher matrix plus its baselines, batched together.

        Baselines join the same engine batch when not already memoised, so
        a cold parallel run keeps every worker busy from the first job.
        """
        cfg = config or self.config
        key = cfg.fingerprint()
        names = list(factories)
        jobs: list[SimJob] = []
        for name in names:
            jobs.extend(self._jobs(factories[name], cfg))
        need_baselines = key not in self._baselines
        if need_baselines:
            jobs.extend(self._jobs(NoPrefetcher, cfg))
        flat = self.engine.run_jobs(jobs)
        width = len(self.traces)
        if need_baselines:
            self._baselines[key] = flat[len(names) * width:]
        matrix = {name: flat[i * width:(i + 1) * width]
                  for i, name in enumerate(names)}
        return matrix, self._baselines[key]

    def nipc_sweep(self, labelled: Sequence[tuple[object, PrefetcherFactory]],
                   config: SystemConfig | None = None) -> list[tuple[object, float]]:
        """Geomean NIPC for many configurations of one sweep, batched.

        Returns ``[(label, nipc)]`` in input order — the shape every
        ablation table (VIII–XI, V-E2/3) consumes.
        """
        cfg = config or self.config
        matrix, baselines = self.suite_comparison(
            {f"sweep-{i}": factory for i, (_, factory) in enumerate(labelled)},
            cfg)
        return [
            (label, geomean([r.nipc(b) for r, b in
                             zip(matrix[f"sweep-{i}"], baselines)]))
            for i, (label, _) in enumerate(labelled)
        ]

    def nipc_grid(self, factories: dict[str, PrefetcherFactory],
                  configs: Sequence[tuple[object, SystemConfig]],
                  ) -> dict[str, list[tuple[object, float]]]:
        """Geomean NIPC of each prefetcher at each system config.

        Flattens the full (config × prefetcher × trace) grid — plus one
        baseline suite per config — into a single engine batch.  This is
        the sensitivity-study shape (Fig 12a/12b).
        """
        names = list(factories)
        width = len(self.traces)
        jobs: list[SimJob] = []
        result_slots: dict[tuple[int, str], int] = {}
        baseline_slots: dict[str, int] = {}
        for position, (_, cfg) in enumerate(configs):
            for name in names:
                result_slots[(position, name)] = len(jobs)
                jobs.extend(self._jobs(factories[name], cfg))
            key = cfg.fingerprint()
            if key not in self._baselines and key not in baseline_slots:
                baseline_slots[key] = len(jobs)
                jobs.extend(self._jobs(NoPrefetcher, cfg))
        flat = self.engine.run_jobs(jobs)
        for key, slot in baseline_slots.items():
            self._baselines[key] = flat[slot:slot + width]

        out: dict[str, list[tuple[object, float]]] = {name: [] for name in names}
        for position, (label, cfg) in enumerate(configs):
            baselines = self._baselines[cfg.fingerprint()]
            for name in names:
                slot = result_slots[(position, name)]
                results = flat[slot:slot + width]
                out[name].append((label, geomean(
                    [r.nipc(b) for r, b in zip(results, baselines)])))
        return out

    # -------------------------------------------------------- observability

    def manifest(self, experiment: str) -> RunManifest:
        """A manifest snapshot of everything this runner has executed."""
        counters = self.engine.counters
        cache_dir = (str(self.cache.directory)
                     if isinstance(self.cache, ResultCache) else None)
        quarantined = (self.cache.corrupt
                       if isinstance(self.cache, ResultCache) else 0)
        journal = self.journal if isinstance(self.journal, RunJournal) else None
        return RunManifest(
            experiment=experiment,
            # A fresh journal already read the commit: spare a second
            # `git rev-parse`.
            git_sha=(journal and journal.git_sha) or current_git_sha(),
            config_fingerprint=self.config.fingerprint(),
            workers=self.workers,
            accesses=self.accesses,
            traces=[spec.name for spec in self.specs],
            jobs=counters.jobs,
            cache_hits=counters.cache_hits,
            cache_misses=counters.cache_misses,
            simulated=counters.simulated,
            wall_seconds=counters.wall_seconds,
            cache_dir=cache_dir,
            run_id=journal.run_id if journal else None,
            failed=counters.failed,
            retried=counters.retried,
            timed_out=counters.timed_out,
            quarantined=quarantined,
            extra=self._manifest_extra(counters),
        )

    def _manifest_extra(self, counters) -> dict:
        """The manifest's free-form section (event counters when traced)."""
        extra = {"batches": counters.batches,
                 "warmup_fraction": self.warmup_fraction}
        if self.sampling is not None and self.sampling.enabled:
            extra["sampling"] = self.sampling.to_dict()
        if counters.audited:
            # Every audited simulation completed, i.e. raised no
            # InvariantViolation (a violation aborts the run).
            extra["invariant_audit"] = {"simulations_audited": counters.audited,
                                        "violations": 0}
        if self.fabric is not None:
            extra["fabric"] = {
                "lease_ttl": self.fabric.lease_ttl,
                "inline_fallback": self.fabric.inline_fallback,
                "lease_expired": counters.lease_expired,
                "completed_by_workers": counters.fabric_completed,
                "inline_fallbacks": counters.inline_fallbacks,
                "workers": self.engine.fabric_census,
            }
        fault = {key: value for key, value in (
            ("lease_expired", counters.lease_expired),
            ("journal_replayed", counters.journal_replayed),
            ("inline_fallbacks", counters.inline_fallbacks),
        ) if value}
        if self.engine.failures:
            fault["failures"] = [f.to_dict() for f in self.engine.failures]
        if isinstance(self.cache, ResultCache) and self.cache.corrupt_events:
            fault["quarantine_events"] = list(self.cache.corrupt_events)
        if fault:
            extra["fault_tolerance"] = fault
        if counters.event_totals:
            extra["event_counters"] = {
                kind: dict(per_component)
                for kind, per_component in sorted(
                    counters.event_totals.items())}
        return extra

    def write_manifest(self, experiment: str,
                       directory: str | Path = ".repro-cache/manifests") -> Path:
        """Write this runner's manifest; returns the file path."""
        return self.manifest(experiment).write(directory)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0 for an empty sequence)."""
    return sum(values) / len(values) if values else 0.0
