"""Differential pin for the vectorized fast path.

``simulate(fastpath=True)`` (the default) batches runs of ordinary L1
hits through :mod:`repro.sim.fastpath`; ``fastpath=False`` forces every
access through the event kernel.  The contract is **bit-identity** — not
"close enough": every SimResult counter, the final residency/dirty
census at every level, the core's instruction/cycle state, and the
``--trace-events`` observer output must be exactly equal in both modes.
This suite drives that contract with hypothesis-generated streams, every
synthetic workload family, and a hit-heavy trace that proves the fast
path actually engages (a vacuously-passing differential would pin
nothing).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.memtrace.access import MemoryAccess
from repro.memtrace.trace import Trace
from repro.prefetchers.base import NoPrefetcher
from repro.prefetchers.pmp import PMP
from repro.prefetchers.spp import SPP
from repro.sim.engine import Run, simulate, warmup_boundary
from repro.sim.hierarchy import Hierarchy
from repro.sim.params import SystemConfig

from tests.test_differential import kernel_contents
from tests.test_invariants import random_traces, small_config

LEVEL_NAMES = ("l1d", "l2c", "llc")


def hot_loop_trace(accesses: int = 12_000, lines: int = 256,
                   seed: int = 7, write_every: int = 7,
                   max_gap: int = 4) -> Trace:
    """A small resident working set swept repeatedly: hit-heavy, so the
    fast path retires most of the trace in blocks."""
    rng = np.random.default_rng(seed)
    trace = Trace(f"hot-loop-{seed}", family="synthetic", seed=seed)
    base = 1 << 30
    gaps = rng.integers(0, max_gap + 1, size=accesses).tolist()
    for i in range(accesses):
        slot = i % lines
        trace.append(MemoryAccess(
            pc=0x400100 + 8 * (slot % 16), address=base + 64 * slot,
            is_write=slot % write_every == 0, gap=gaps[i]))
    return trace


def simulated_run(trace, prefetcher, config=None, *,
                  warmup_fraction: float = 0.2, **options) -> Run:
    """The :class:`Run` that ``simulate()`` builds, driven the way it
    drives it and kept, so tests can read its hierarchy, core, tracer
    and fast-path scanner after the run."""
    run = Run(trace, Hierarchy.build(config or SystemConfig.default(),
                                     prefetcher), **options)
    boundary = warmup_boundary(len(trace), warmup_fraction)
    run.advance(0, boundary)
    run.reset_measurement()
    run.advance(boundary, len(trace))
    run.finish()
    return run


def run_both(trace, prefetcher_factory, *, config=None,
             warmup_fraction: float = 0.2, trace_events: bool = False):
    """One trace through both modes; assert bit-identity everywhere.

    Returns the fastpath-on :class:`Run` so callers can additionally
    assert coverage (that blocks actually retired).
    """
    run_on, run_off = (
        simulated_run(trace, prefetcher_factory(), config,
                      warmup_fraction=warmup_fraction,
                      trace_events=trace_events, fastpath=fastpath)
        for fastpath in (True, False))

    assert run_on.snapshot().to_dict() == run_off.snapshot().to_dict()
    assert run_off.scanner is None  # escape hatch really off

    core_on, core_off = run_on.core, run_off.core
    assert core_on.instructions == core_off.instructions
    assert core_on.cycle == core_off.cycle

    for name in LEVEL_NAMES:
        storage_on = getattr(run_on.hierarchy, name)
        storage_off = getattr(run_off.hierarchy, name)
        assert kernel_contents(storage_on) == kernel_contents(storage_off), (
            f"{name} final census diverged")
        # Residency order is observable (it is the LRU order), so the
        # batched recency apply must reproduce it key-for-key.
        assert ([list(s) for s in storage_on._sets]
                == [list(s) for s in storage_off._sets]), (
            f"{name} LRU order diverged")

    if trace_events:
        tracer_on, tracer_off = run_on.tracer, run_off.tracer
        assert tracer_on.counter_snapshot() == tracer_off.counter_snapshot()
        assert tracer_on.log == tracer_off.log
        assert tracer_on.dropped_log_rows == tracer_off.dropped_log_rows
    return run_on


PREFETCHERS = st.sampled_from([NoPrefetcher, PMP, SPP])


@settings(max_examples=30, deadline=None)
@given(random_traces(max_len=300), PREFETCHERS, st.booleans())
def test_random_streams_bit_identical(trace, factory, events):
    run_both(trace, factory, config=small_config(), trace_events=events)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=16, max_value=96),
       st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=6),
       PREFETCHERS)
def test_hot_set_sweeps_bit_identical(lines, seed, max_gap, factory):
    # Dense repeated sweeps of a hot set: long eligible runs with the
    # occasional structural boundary (cold start, warmup reset).
    trace = hot_loop_trace(accesses=2_000, lines=lines, seed=seed,
                           max_gap=max_gap)
    run_both(trace, factory, config=small_config())


class TestWorkloadFamilies:
    """Every synthetic family through fastpath-on vs off (PMP attached)."""

    def _family(self, name):
        from repro.memtrace.workloads import full_suite
        spec = next(s for s in full_suite() if s.name == name)
        run_both(spec.build(4_000), PMP)

    def test_spec06(self):
        self._family("spec06-00")

    def test_spec17(self):
        self._family("spec17-02")

    def test_ligra(self):
        self._family("ligra-00")

    def test_parsec(self):
        self._family("parsec-00")


class TestCoverage:
    """The differential must not pass vacuously: on hit-heavy traces the
    fast path has to retire most accesses in blocks."""

    def test_hot_loop_mostly_fastpathed(self):
        trace = hot_loop_trace()
        scanner = run_both(trace, NoPrefetcher).scanner
        assert scanner.blocks_retired > 0
        assert scanner.accesses_fastpathed > len(trace) * 0.8

    def test_hot_loop_with_pmp_mostly_fastpathed(self):
        trace = hot_loop_trace()
        scanner = run_both(trace, PMP).scanner
        assert scanner.accesses_fastpathed > len(trace) * 0.8

    def test_event_trace_snapshot_with_truncation(self):
        # A max_events bound small enough that hit runs cross it:
        # the batched log expansion must truncate exactly like the
        # per-access recorder.
        from repro.sim import observers

        trace = hot_loop_trace(accesses=4_000)
        logs = []
        for fastpath in (True, False):
            orig_init = observers.EventTrace.__init__

            def tight_init(self, bus=None, max_events=500):
                orig_init(self, bus, max_events)

            observers.EventTrace.__init__ = tight_init
            try:
                run = simulated_run(trace, NoPrefetcher(), trace_events=True,
                                    fastpath=fastpath)
                logs.append((run.snapshot().to_dict(), run.tracer.log,
                             run.tracer.dropped_log_rows))
            finally:
                observers.EventTrace.__init__ = orig_init
        assert logs[0] == logs[1]

    def test_unsupported_prefetcher_disables_fastpath(self):
        class Opaque(NoPrefetcher):
            supports_hit_runs = False

        run = simulated_run(hot_loop_trace(accesses=1_000), Opaque())
        assert run.scanner is None

    def test_simulated_run_is_what_simulate_runs(self):
        trace = hot_loop_trace(accesses=2_000)
        for warmup_fraction in (0.0, 0.3):
            run = simulated_run(trace, PMP(), small_config(),
                                warmup_fraction=warmup_fraction,
                                trace_events=True)
            assert run.snapshot() == simulate(
                trace, PMP(), small_config(),
                warmup_fraction=warmup_fraction, trace_events=True)
