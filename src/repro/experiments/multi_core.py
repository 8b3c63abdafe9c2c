"""Multi-core experiments (Fig 13, Table VII).

Homogeneous runs put the same trace on all four cores; heterogeneous runs
build the paper's Table VII MPKI-class mixes (all-low, all-medium,
all-high, and the three half/half combinations), with traces drawn
deterministically from the classified suite.

:func:`fig13` evaluates every (trace set × prefetcher) cell — plus one
shared baseline run per trace set — as one :class:`MulticoreJob` each.
Serially it runs them in order; with ``workers=N`` they are one batch on
the :class:`~repro.experiments.engine.ExperimentEngine`'s lease workers,
bound by the run's :class:`~repro.experiments.faults.FaultPolicy` like
any other parallel batch.  Results come back by job index, so parallel
numbers match serial ones exactly.  The trace sets share their traces:
each distinct spec is built once per figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..memtrace.trace import Trace, rebase
from ..memtrace.workloads import WorkloadSpec, classify_suite, quick_suite
from ..prefetchers import COMPETITORS
from ..prefetchers.base import NoPrefetcher, Prefetcher
from ..sim.engine import WARMUP_FRACTION
from ..sim.multicore import multicore_speedup, simulate_multicore
from ..sim.params import SystemConfig
from ..sim.stats import SimResult, geomean
from .cache import CACHE_VERSION, fingerprint, prefetcher_fingerprint
from .engine import ExperimentEngine
from .faults import FaultPolicy
from .report import format_table

PrefetcherFactory = Callable[[], Prefetcher]

TABLE_VII_MIXES = (
    ("all-low", ("low", "low", "low", "low")),
    ("all-medium", ("medium", "medium", "medium", "medium")),
    ("all-high", ("high", "high", "high", "high")),
    ("low+medium", ("low", "low", "medium", "medium")),
    ("low+high", ("low", "low", "high", "high")),
    ("medium+high", ("medium", "medium", "high", "high")),
)


def build_heterogeneous_mixes(specs: Sequence[WorkloadSpec] | None = None,
                              mixes_per_class: int = 1,
                              seed: int = 0) -> list[tuple[str, list[WorkloadSpec]]]:
    """Table VII: draw 4-trace mixes from the Low/Medium/High MPKI classes.

    Falls back to round-robin draws when a class is underpopulated in the
    given suite (possible for small subsets of the 125).
    """
    specs = specs or quick_suite()
    buckets = classify_suite(specs)
    rng = np.random.default_rng(seed)
    mixes: list[tuple[str, list[WorkloadSpec]]] = []
    for name, classes in TABLE_VII_MIXES:
        for _ in range(mixes_per_class):
            chosen = []
            for cls in classes:
                pool = buckets[cls] or list(specs)
                chosen.append(pool[int(rng.integers(0, len(pool)))])
            mixes.append((name, chosen))
    return mixes


@dataclass
class MulticoreJob:
    """One four-core simulation: a lane trace per core, one prefetcher
    factory for every core, and the shared system config.

    ``name`` is the prefetcher's Fig 13 column (``baseline`` for no
    prefetching).  The factory travels with the job, so a leased job's
    factory must pickle; the broker names the job if it does not.
    """

    traces: list[Trace]
    factory: PrefetcherFactory
    config: SystemConfig
    name: str
    #: The (prefetcher, config) fingerprints, shared by every job of one
    #: factory so each factory is fingerprinted once per figure (as
    #: ``SimJob.config_parts``).
    config_parts: list[str] = field(default_factory=list, repr=False,
                                    compare=False)
    #: The driver audits when ``REPRO_CHECK_INVARIANTS`` is set (as
    #: ``--check-invariants`` does), which is what the engine counts.
    check_invariants = None

    @property
    def label(self) -> str:
        return f"{'+'.join(trace.name for trace in self.traces)}/{self.name}"

    def key(self) -> str:
        """Content hash of this simulation: every lane's trace, the
        prefetcher and config fingerprints and the lanes' warmup."""
        if not self.config_parts:
            self.config_parts.extend((prefetcher_fingerprint(self.factory()),
                                      self.config.fingerprint()))
        return fingerprint([CACHE_VERSION, "multicore",
                            *(trace.content_hash() for trace in self.traces),
                            *self.config_parts, repr(WARMUP_FRACTION)])

    def run(self) -> list[SimResult]:
        return simulate_multicore(self.traces, self.factory, self.config)

    @staticmethod
    def encode(results: list[SimResult]) -> dict:
        return {"cores": [result.to_dict() for result in results]}

    @staticmethod
    def decode(data: dict) -> list[SimResult]:
        return [SimResult.from_dict(core) for core in data["cores"]]


def _core_trace_sets(set_specs: Sequence[Sequence[WorkloadSpec]],
                     accesses: int) -> list[list[Trace]]:
    """One trace list per set: the set's i-th spec rebased onto core i.

    Each distinct spec is built once and each (spec, core) pair rebased
    once; sets that place the same spec on the same core share that
    trace (the lanes only read it).  Rebasing gives every core a private
    address-space slot, so the same program on several cores runs as
    separate processes with no accidental LLC sharing.
    """
    cores_of: dict[WorkloadSpec, set[int]] = {}
    for specs in set_specs:
        for core, spec in enumerate(specs):
            cores_of.setdefault(spec, set()).add(core)
    traces: dict[tuple[WorkloadSpec, int], Trace] = {}
    for spec, cores in cores_of.items():
        trace = spec.build(accesses)
        for core in cores:
            traces[spec, core] = rebase(trace, core)
    return [[traces[spec, core] for core, spec in enumerate(specs)]
            for specs in set_specs]


def fig13(specs: Sequence[WorkloadSpec] | None = None,
          accesses: int = 15_000,
          prefetchers: dict[str, PrefetcherFactory] | None = None,
          workers: int = 0,
          policy: FaultPolicy | None = None) -> dict[str, dict[str, float]]:
    """Full Fig 13: homogeneous + heterogeneous speedups per prefetcher.

    Homogeneous sets put one spec on all four cores; heterogeneous sets
    are the Table VII mixes.  Each trace set's baseline is simulated once
    and shared across every prefetcher, and each (spec, core) trace is
    built once and shared across every set that uses it.  ``workers=N``
    runs the whole grid as one batch on N lease workers under
    ``policy`` (its job deadline and ``fail_fast``); a failed job raises
    :class:`~repro.experiments.faults.BatchFailed` once the batch ends.
    """
    prefetchers = prefetchers or dict(COMPETITORS)
    # One suite object for both halves, so a spec drawn into a mix is the
    # same object as its homogeneous set's spec and shares its traces.
    suite = list(specs) if specs else quick_suite()
    homogeneous_specs = suite if specs else suite[:4]
    mixes = build_heterogeneous_mixes(suite)
    config = SystemConfig.default().for_multicore(4)

    set_specs = ([[spec] * 4 for spec in homogeneous_specs]
                 + [list(mix_specs) for _, mix_specs in mixes])
    trace_sets = _core_trace_sets(set_specs, accesses)
    factories = {**prefetchers, "baseline": NoPrefetcher}
    config_parts: dict[str, list[str]] = {name: [] for name in factories}
    jobs = [MulticoreJob(traces, factory, config, name, config_parts[name])
            for traces in trace_sets for name, factory in factories.items()]
    if workers > 1:
        engine = ExperimentEngine(workers=workers,
                                  policy=policy or FaultPolicy())
        results = engine.run_jobs(jobs)
    else:
        results = [job.run() for job in jobs]
    width = len(factories)
    runs = {name: results[column::width]
            for column, name in enumerate(factories)}

    n_homo = len(homogeneous_specs)
    baselines = runs["baseline"]
    out: dict[str, dict[str, float]] = {}
    for name in prefetchers:
        speedups = [multicore_speedup(r, b)
                    for r, b in zip(runs[name], baselines)]
        out[name] = {
            "homogeneous": geomean(speedups[:n_homo]),
            "heterogeneous": geomean(speedups[n_homo:]),
        }
    return out


def fig13_report(results: dict[str, dict[str, float]]) -> str:
    """Render the Fig 13 per-prefetcher speedups."""
    rows = [(name, vals["homogeneous"], vals["heterogeneous"])
            for name, vals in results.items()]
    return format_table(["prefetcher", "homogeneous", "heterogeneous"], rows,
                        title="Fig 13 — 4-core normalized performance")
