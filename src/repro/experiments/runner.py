"""Shared experiment plumbing: build traces once, run prefetcher matrices.

All per-table/per-figure experiment modules go through :class:`SuiteRunner`,
which builds the suite's traces once and hands every request to one
:class:`ExperimentEngine`.  The engine runs each distinct job key once, so
the runner keeps no memo of its own: a baseline suite is an ordinary
``NoPrefetcher`` entry in every batch that needs it, simulated the first
time and reused from then on (baseline runs dominate cost otherwise).

The engine adds three orthogonal capabilities:

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

Every entry point (:meth:`run`, :meth:`baselines`, :meth:`geomean_nipc`,
:meth:`matrix`, :meth:`suite_comparison`, :meth:`nipc_sweep`,
:meth:`nipc_grid`) is a view over one (config × prefetcher × trace)
flattening run as a single engine batch, which is what keeps a worker
pool busy instead of synchronising after every 8-trace run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from ..memtrace.store import TraceStore
from ..memtrace.trace import Trace
from ..memtrace.workloads import WorkloadSpec, quick_suite
from ..prefetchers.base import NoPrefetcher, Prefetcher
from ..scenarios.catalog import scale_defaults
from ..sim.params import SystemConfig
from ..sim.stats import SimResult, geomean
from .cache import ResultCache
from .engine import ExperimentEngine, SimJob
from .faults import FaultPolicy
from .journal import RunJournal
from .manifest import RunManifest

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

    Every run uses the 20% warmup that ``SimJob`` keys, and
    ``SystemConfig.default()`` unless a call passes another ``config``
    (the Fig 12 sweeps).  ``workers=0`` (or 1) runs serially in-process;
    ``workers=N`` runs each batch on N forked lease workers.  ``cache``
    may be a :class:`ResultCache` or a directory path; ``None`` disables
    the persistent cache (the engine still runs each job key once).
    """

    specs: Sequence[WorkloadSpec] = field(default_factory=quick_suite)
    accesses: int = DEFAULT_ACCESSES
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
    # Open leased batches to external `pmp-repro fabric worker`
    # processes (repro.fabric): leases are published under the
    # journal's run directory.  Requires journal.
    fabric: "FabricConfig | None" = None

    def __post_init__(self) -> None:
        self._traces: list[Trace] | None = None
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
              config: SystemConfig | None) -> list[SimJob]:
        """One fresh-prefetcher job per trace, in suite order, at
        ``config`` (``None``: the default system).

        The jobs share one ``config_parts`` list, so the engine
        fingerprints the configuration once, not once per trace.
        """
        config = config or SystemConfig.default()
        config_parts: list[str] = []
        return [SimJob(trace, factory(), config,
                       trace_events=self.trace_events,
                       check_invariants=self.check_invariants,
                       fastpath=self.fastpath,
                       config_parts=config_parts)
                for trace in self.traces]

    def run(self, factory: PrefetcherFactory,
            config: SystemConfig | None = None) -> list[SimResult]:
        """Simulate one prefetcher configuration over the suite."""
        return self._grid([factory], [config])[0][0]

    def baselines(self, config: SystemConfig | None = None) -> list[SimResult]:
        """No-prefetcher runs over the suite (every NIPC's denominator)."""
        return self.run(NoPrefetcher, config)

    def geomean_nipc(self, factory: PrefetcherFactory,
                     config: SystemConfig | None = None) -> float:
        """Suite-wide NIPC for one prefetcher configuration."""
        return self._nipcs([factory], [config])[0][0]

    def matrix(self, factories: dict[str, PrefetcherFactory],
               config: SystemConfig | None = None) -> dict[str, list[SimResult]]:
        """Run several prefetchers over the whole suite (one engine batch)."""
        (suites,) = self._grid(list(factories.values()), [config])
        return dict(zip(factories, suites))

    def suite_comparison(self, factories: dict[str, PrefetcherFactory],
                         config: SystemConfig | None = None,
                         ) -> tuple[dict[str, list[SimResult]], list[SimResult]]:
        """A prefetcher matrix plus its baselines, batched together, so a
        cold parallel run keeps every worker busy from the first job."""
        (suites,) = self._grid([*factories.values(), NoPrefetcher], [config])
        return dict(zip(factories, suites)), suites[-1]

    def nipc_sweep(self, labelled: Sequence[tuple[object, PrefetcherFactory]],
                   config: SystemConfig | None = None) -> list[tuple[object, float]]:
        """Geomean NIPC for many configurations of one sweep, batched.

        Returns ``[(label, nipc)]`` in input order — the shape every
        ablation table (VIII–XI, V-E2/3) consumes.
        """
        (row,) = self._nipcs([factory for _, factory in labelled], [config])
        return [(label, nipc) for (label, _), nipc in zip(labelled, row)]

    def nipc_grid(self, factories: dict[str, PrefetcherFactory],
                  configs: Sequence[tuple[object, SystemConfig]],
                  ) -> dict[str, list[tuple[object, float]]]:
        """Geomean NIPC of each prefetcher at each system config, as one
        batch: the sensitivity-study shape (Fig 12a/12b)."""
        rows = self._nipcs(list(factories.values()),
                           [cfg for _, cfg in configs])
        return {name: [(label, row[column])
                       for (label, _), row in zip(configs, rows)]
                for column, name in enumerate(factories)}

    def _nipcs(self, factories: Sequence[PrefetcherFactory],
               configs: Sequence[SystemConfig | None]) -> list[list[float]]:
        """Geomean NIPC of each factory (columns) at each config (rows),
        each config's baseline suite batched last."""
        return [[geomean([r.nipc(b) for r, b in zip(results, suites[-1])])
                 for results in suites[:-1]]
                for suites in self._grid([*factories, NoPrefetcher], configs)]

    def _grid(self, factories: Sequence[PrefetcherFactory],
              configs: Sequence[SystemConfig | None],
              ) -> list[list[list[SimResult]]]:
        """Every factory over the suite at every config, as one engine
        batch: ``grid[config][factory]`` is one result per trace.

        Jobs go configs in order, each config's factories in order.
        """
        jobs = [job for cfg in configs for factory in factories
                for job in self._jobs(factory, cfg)]
        flat = iter(self.engine.run_jobs(jobs))
        width = len(self.traces)
        return [[[next(flat) for _ in range(width)] for _ in factories]
                for _ in configs]

    # -------------------------------------------------------- observability

    def manifest(self, experiment: str) -> RunManifest:
        """A manifest snapshot of everything this runner has executed."""
        counters = self.engine.counters
        cache_dir = (str(self.cache.directory)
                     if isinstance(self.cache, ResultCache) else None)
        journal = self.journal if isinstance(self.journal, RunJournal) else None
        return RunManifest(
            experiment=experiment,
            config_fingerprint=SystemConfig.default().fingerprint(),
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
            quarantined=len(self._quarantine_events()),
            extra=self._manifest_extra(counters),
        )

    def _manifest_extra(self, counters) -> dict:
        """The manifest's free-form section (event counters when traced)."""
        extra = {"batches": counters.batches,
                 "warmup_fraction": SimJob.warmup_fraction}
        if counters.audited:
            # Every audited simulation completed, i.e. raised no
            # InvariantViolation (a violation aborts the run).
            extra["invariant_audit"] = {"simulations_audited": counters.audited,
                                        "violations": 0}
        if self.fabric is not None:
            extra["fabric"] = {
                "lease_ttl": self.fabric.lease_ttl,
                "lease_expired": counters.lease_expired,
                "completed_by_workers": counters.fabric_completed,
                "workers": self.engine.fabric_census,
            }
        if counters.reused:
            extra["reused"] = counters.reused
        fault = {key: value for key, value in (
            ("lease_expired", counters.lease_expired),
            ("journal_replayed", counters.journal_replayed),
        ) if value}
        if self.engine.failures:
            fault["failures"] = [f.to_dict() for f in self.engine.failures]
        if self._quarantine_events():
            fault["quarantine_events"] = self._quarantine_events()
        if fault:
            extra["fault_tolerance"] = fault
        if counters.event_totals:
            extra["event_counters"] = {
                kind: dict(per_component)
                for kind, per_component in sorted(
                    counters.event_totals.items())}
        return extra

    def _quarantine_events(self) -> list[dict]:
        """The corrupt entries the cache and the journal quarantined."""
        return [event for store in (self.cache, self.journal)
                if store is not None for event in store.corrupt_events]

    def write_manifest(self, experiment: str,
                       directory: str | Path = ".repro-cache/manifests") -> Path:
        """Write this runner's manifest; returns the file path."""
        return self.manifest(experiment).write(directory)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0 for an empty sequence)."""
    return sum(values) / len(values) if values else 0.0
