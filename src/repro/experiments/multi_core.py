"""Multi-core experiments (Fig 13, Table VII).

Homogeneous runs put the same trace on all four cores; heterogeneous runs
build the paper's Table VII MPKI-class mixes (all-low, all-medium,
all-high, and the three half/half combinations), with traces drawn
deterministically from the classified suite.

:func:`fig13` evaluates every (trace set × prefetcher) cell — plus one
shared baseline run per trace set — as independent tasks, optionally
fanned out over a process pool (``workers=N``).  Task results are placed
back by index, so parallel numbers match serial ones exactly.  The trace
sets share their traces: each distinct spec is built once per figure.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np

from ..memtrace.trace import Trace, rebase
from ..memtrace.workloads import WorkloadSpec, classify_suite, quick_suite
from ..prefetchers import COMPETITORS
from ..prefetchers.base import NoPrefetcher, Prefetcher
from ..sim.multicore import multicore_speedup, simulate_multicore
from ..sim.params import SystemConfig
from ..sim.stats import geomean
from .faults import is_transport_failure
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


def _multicore_task(payload: list[tuple[str, str, int, tuple]],
                    factory: PrefetcherFactory,
                    config: SystemConfig) -> list:
    """Worker entry point: rebuild one trace set, run one multicore sim."""
    traces = [Trace.from_arrays(name, arrays, family=family, seed=seed)
              for name, family, seed, arrays in payload]
    return simulate_multicore(traces, factory, config)


def _run_trace_sets(trace_sets: Sequence[Sequence[Trace]],
                    factories: dict[str, PrefetcherFactory],
                    config: SystemConfig,
                    workers: int = 0) -> dict[str, list[list]]:
    """Per trace set: every prefetcher plus one shared baseline run.

    Returns ``{name: [per-set SimResult lists]}`` with the baseline under
    ``"baseline"``.  Tasks are independent, so with ``workers > 1`` the
    whole Fig 13 grid fans out at once.  Only *transport* failures — a
    task that cannot be pickled, or a pool that died under it — fall back
    to in-process execution; a deterministic exception raised inside the
    simulation propagates with its original worker traceback (silently
    re-running it would reproduce the same error, slower, or worse, hide
    a nondeterminism bug).
    """
    names = list(factories) + ["baseline"]
    tasks = [(set_index, name)
             for set_index in range(len(trace_sets)) for name in names]
    results: dict[tuple[int, str], list] = {}

    def factory_for(name: str) -> PrefetcherFactory:
        return NoPrefetcher if name == "baseline" else factories[name]

    if workers > 1 and len(tasks) > 1:
        # arrays() is memoised, so a trace shared by several sets is
        # packed once.
        payloads = [[(t.name, t.family, t.seed, t.arrays())
                     for t in trace_set] for trace_set in trace_sets]
        retry: list[tuple[int, str]] = []
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = {task: pool.submit(_multicore_task,
                                         payloads[task[0]],
                                         factory_for(task[1]), config)
                       for task in tasks}
            for task, future in futures.items():
                try:
                    results[task] = future.result()
                except Exception as exc:
                    if not is_transport_failure(exc):
                        raise
                    retry.append(task)
        for task in retry:
            results[task] = simulate_multicore(list(trace_sets[task[0]]),
                                               factory_for(task[1]), config)
    else:
        for set_index, name in tasks:
            results[(set_index, name)] = simulate_multicore(
                list(trace_sets[set_index]), factory_for(name), config)

    return {name: [results[(i, name)] for i in range(len(trace_sets))]
            for name in names}


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
          workers: int = 0) -> dict[str, dict[str, float]]:
    """Full Fig 13: homogeneous + heterogeneous speedups per prefetcher.

    Homogeneous sets put one spec on all four cores; heterogeneous sets
    are the Table VII mixes.  Each trace set's baseline is simulated once
    and shared across every prefetcher, and each (spec, core) trace is
    built once and shared across every set that uses it;
    ``workers=N`` distributes the whole grid.
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
    runs = _run_trace_sets(trace_sets, prefetchers, config, workers)

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
