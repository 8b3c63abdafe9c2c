"""Macro benchmark: end-to-end ``simulate()`` accesses/sec.

Two pinned workload samples:

* **spec06-00** (``simulate_pmp``) — the MCF-like quick-suite trace the
  golden fixtures also pin, driven through the default system with the
  PMP prefetcher: the configuration the paper's headline numbers and
  every scaling PR care about.  Miss-heavy, so the event kernel
  dominates its cost.
* **hot-loop-00** (``simulate_hot_loop``) — a pinned L1-resident sweep
  (:func:`~repro.memtrace.synthetic.hot_loop`, deliberately *not* part
  of the evaluation suites) whose accesses are almost all ordinary L1
  hits: the regime the vectorized fast path batches, and therefore the
  record that demonstrates its speedup.

Each sample is deterministic in (name, seed, accesses): its content hash
and the simulation's final counters are recorded in the document's
``meta`` so a determinism drift is visible in the JSON itself, not just
in a failing comparison.  ``meta`` also records the ``fastpath`` mode
the numbers were measured in — the comparator treats it as part of the
workload shape, so a fastpath-on baseline refuses to gate a
``--no-fastpath`` rerun (and vice versa) instead of reporting the mode
switch as a perf change.
"""

from __future__ import annotations

from ..memtrace.trace import Trace
from ..memtrace.workloads import WorkloadSpec, compile_scenario
from ..prefetchers.pmp import make_pmp
from ..scenarios.catalog import cached_catalog, scale_defaults
from ..sim.engine import simulate
from .harness import BenchRecord, measure

MACRO_TRACE_NAME = "spec06-00"
MACRO_HOT_TRACE_NAME = "hot-loop-00"
MACRO_HOT_SEED = 20260807  # pinned: the hot sample derives from this
MACRO_ACCESSES = scale_defaults("bench_accesses")
MACRO_SMOKE_ACCESSES = scale_defaults("smoke_accesses")


def _pinned(name: str) -> WorkloadSpec:
    """Resolve a pinned bench workload through the scenario catalog."""
    catalog = cached_catalog()
    return compile_scenario(catalog.get(name), catalog.directory)


def build_macro_trace(accesses: int = MACRO_ACCESSES) -> Trace:
    """Materialise the pinned macro workload sample."""
    return _pinned(MACRO_TRACE_NAME).build(accesses)


def build_hot_trace(accesses: int = MACRO_ACCESSES) -> Trace:
    """Materialise the pinned hit-heavy (fast-path) workload sample."""
    return _pinned(MACRO_HOT_TRACE_NAME).build(accesses)


def _macro_record(name: str, trace: Trace, *, fastpath: bool, repeats: int,
                  profile_n: int) -> BenchRecord:
    """Measure simulate() throughput on one pinned sample."""

    def fn() -> None:
        simulate(trace, make_pmp(), fastpath=fastpath)

    # One extra run outside the timed region pins the simulation's
    # outcome: bit-identical code must reproduce these exact counters.
    result = simulate(trace, make_pmp(), fastpath=fastpath)
    meta = {
        "trace": trace.name,
        "accesses": len(trace),
        "prefetcher": "pmp",
        "fastpath": fastpath,
        "trace_content_hash": trace.content_hash(),
        "result_instructions": result.instructions,
        "result_cycles": result.cycles,
        "result_ipc": round(result.ipc, 9),
    }
    return measure(name, fn, number=1, repeats=repeats,
                   ops_per_call=float(len(trace)), units="accesses/s",
                   profile_n=profile_n, meta=meta)


def run_macro(*, accesses: int = MACRO_ACCESSES, repeats: int = 3,
              profile_n: int = 15, fastpath: bool = True) -> list[BenchRecord]:
    """Measure simulate() throughput on the pinned samples (2 records)."""
    return [
        _macro_record("simulate_pmp", build_macro_trace(accesses),
                      fastpath=fastpath, repeats=repeats,
                      profile_n=profile_n),
        _macro_record("simulate_hot_loop", build_hot_trace(accesses),
                      fastpath=fastpath, repeats=repeats,
                      profile_n=profile_n),
    ]
