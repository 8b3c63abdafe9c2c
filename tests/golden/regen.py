"""Regenerate the golden-trace fixture (``golden_stats.json``).

Run from the repo root after an *intentional* simulator or prefetcher
behaviour change::

    PYTHONPATH=src python tests/golden/regen.py

The fixture pins full :meth:`SimResult.to_dict` snapshots (every counter,
cycles bit-exact through JSON's repr round-trip) for two set-ups:

* ``traces``: single-core runs of small fixed-seed traces under the
  no-prefetch baseline, PMP and SPP, plus NIPC to 6 decimals, and a
  traced PMP run (``pmp+events``) that pins the event tracer's counters
  and its reset at the warmup boundary;
* ``multicore``: 4-core shared-LLC runs of a homogeneous set and a mixed
  set, each trace rebased onto its core, including per-lane warmups.

``tests/test_golden_traces.py`` fails on any drift, so refactors of the
simulation loop or ``prefetchers/pmp.py`` cannot silently change the
paper's numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "golden_stats.json"
ACCESSES = 4000
TRACE_NAMES = ("spec06-00", "ligra-00")
#: Single-core run name -> (prefetcher, trace_events).
TRACE_RUNS = {"none": ("none", False), "pmp": ("pmp", False),
              "spp": ("spp", False), "pmp+events": ("pmp", True)}

MULTICORE_ACCESSES = 1500
TRACE_SETS = {"homogeneous": ("spec06-00",) * 4,
              "mix": ("spec06-00", "spec17-02", "ligra-00", "parsec-00")}
#: Multicore run name -> (trace set, prefetcher, warmup fraction(s)).
MULTICORE_RUNS = {
    "homogeneous/none": ("homogeneous", "none", 0.2),
    "homogeneous/pmp": ("homogeneous", "pmp", 0.2),
    "mix/none": ("mix", "none", 0.2),
    "mix/pmp": ("mix", "pmp", 0.2),
    "mix/pmp/lane-warmups": ("mix", "pmp", (0.0, 0.2, 0.5, 0.8)),
}


def prefetcher_factories():
    from repro.prefetchers.base import NoPrefetcher
    from repro.prefetchers.pmp import PMP
    from repro.prefetchers.spp import SPP

    return {"none": NoPrefetcher, "pmp": PMP, "spp": SPP}


def suite_specs() -> dict:
    from repro.memtrace.workloads import full_suite

    return {spec.name: spec for spec in full_suite()}


def run_single(trace, name: str):
    """One single-core run of ``TRACE_RUNS[name]``."""
    from repro.sim.engine import simulate

    pf_name, trace_events = TRACE_RUNS[name]
    return simulate(trace, prefetcher_factories()[pf_name](),
                    trace_events=trace_events)


def multicore_trace_sets() -> dict:
    """Trace set name -> one trace per core, rebased onto that core."""
    from repro.memtrace.trace import rebase

    specs = suite_specs()
    built = {name: specs[name].build(MULTICORE_ACCESSES)
             for names in TRACE_SETS.values() for name in names}
    return {set_name: [rebase(built[name], core)
                       for core, name in enumerate(names)]
            for set_name, names in TRACE_SETS.items()}


def run_multicore(trace_sets: dict, name: str) -> list[dict]:
    """One 4-core run of ``MULTICORE_RUNS[name]``, serialized per core."""
    from repro.sim.multicore import simulate_multicore
    from repro.sim.params import SystemConfig

    set_name, pf_name, warmup = MULTICORE_RUNS[name]
    traces = trace_sets[set_name]
    config = SystemConfig.default().for_multicore(len(traces))
    results = simulate_multicore(traces, prefetcher_factories()[pf_name],
                                 config, warmup_fraction=warmup)
    return [result.to_dict() for result in results]


def compute() -> dict:
    by_name = suite_specs()
    golden: dict = {"accesses": ACCESSES, "traces": {}}
    for trace_name in TRACE_NAMES:
        trace = by_name[trace_name].build(ACCESSES)
        runs = {name: run_single(trace, name).to_dict()
                for name in TRACE_RUNS}
        baseline_ipc = (runs["none"]["instructions"] / runs["none"]["cycles"])
        for data in runs.values():
            ipc = data["instructions"] / data["cycles"]
            data["nipc6"] = round(ipc / baseline_ipc, 6)
        golden["traces"][trace_name] = runs

    trace_sets = multicore_trace_sets()
    golden["multicore"] = {name: run_multicore(trace_sets, name)
                           for name in MULTICORE_RUNS}
    return golden


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(compute(), indent=2, sort_keys=True))
    print(f"wrote {GOLDEN_PATH}")
