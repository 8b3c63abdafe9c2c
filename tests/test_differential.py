"""Differential testing: event kernel vs the functional reference model.

The kernel (`repro.sim.hierarchy`) earns its speed with heaps, pooled
transient events and per-level components; :class:`repro.sim.refmodel`
re-implements the same *semantics* with flat dicts and lists.  Driving
both with identical demand streams and asserting per-access agreement
means a kernel bug has to corrupt the boring model identically to hide —
aggregate-level tests (golden fixtures, invariants) can miss a wrong
latency that cancels out in the totals.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.memtrace.access import MemoryAccess
from repro.memtrace.trace import Trace
from repro.prefetchers.base import NoPrefetcher
from repro.sim.cache import DIRTY
from repro.sim.hierarchy import Hierarchy
from repro.sim.invariants import InvariantAuditor
from repro.sim.refmodel import RefModel

from tests.test_invariants import random_traces, small_config

LEVEL_NAMES = ("l1d", "l2c", "llc")


def kernel_contents(storage) -> dict[int, bool]:
    """Resident ``line -> dirty`` map of one kernel cache."""
    merged = {}
    for cache_set in storage._sets:
        for line, flags in cache_set.items():
            merged[line] = bool(flags & DIRTY)
    return merged


def run_both(trace, *, blocking: bool, audit: bool = False):
    """Drive kernel and reference with one schedule; assert lockstep."""
    config = small_config()
    hierarchy = Hierarchy.build(config, NoPrefetcher())
    auditor = InvariantAuditor(hierarchy, checkpoint_every=16,
                               deep_every=4) if audit else None
    reference = RefModel(config)

    cycle = 0.0
    for i, access in enumerate(trace.accesses):
        cycle += access.gap
        latency, l1_hit = hierarchy.demand_access(access.address, cycle,
                                                  access.is_write)
        ref_latency, ref_l1_hit = reference.access(access.address, cycle,
                                                   access.is_write)
        assert latency == ref_latency, (
            f"access {i}: kernel latency {latency}, reference {ref_latency}")
        assert l1_hit == ref_l1_hit, f"access {i}: hit level diverged"
        if auditor is not None:
            auditor.checkpoint(cycle)
        # Blocking mode serialises on every load; pipelined mode issues
        # at trace pace so fills stay in flight and demands merge with
        # their own outstanding misses through the MSHR.
        cycle += latency + 1 if blocking else 1

    hierarchy.flush_accounting(cycle)
    if auditor is not None:
        auditor.finalize(cycle)
    reference.drain()

    for index, name in enumerate(LEVEL_NAMES):
        stats = getattr(hierarchy, name).stats
        assert (stats.demand_accesses, stats.demand_hits,
                stats.demand_misses, stats.evictions) == \
            reference.level_counters(index), f"{name} counters diverged"
        assert kernel_contents(getattr(hierarchy, name)) == \
            reference.contents(index), f"{name} final contents diverged"

    assert hierarchy.dram.stats.demand_requests == reference.dram_demands
    assert (hierarchy.dram.stats.writeback_requests
            == reference.dram_writebacks)


@settings(max_examples=40, deadline=None)
@given(random_traces(max_len=300), st.booleans())
def test_kernel_matches_reference(trace, blocking):
    run_both(trace, blocking=blocking)


@settings(max_examples=10, deadline=None)
@given(random_traces(max_len=200))
def test_kernel_matches_reference_under_audit(trace):
    # The auditor must not perturb the kernel: lockstep still holds with
    # structural audits interleaved between accesses.
    run_both(trace, blocking=False, audit=True)


def _dense_trace(accesses: int, lines: int, seed: int,
                 write_fraction: float) -> Trace:
    """A working set sized to force evictions, back-invalidations and
    dirty drains through every level of the small config."""
    rng = np.random.default_rng(seed)
    trace = Trace(f"dense-{seed}")
    for _ in range(accesses):
        line = int(rng.integers(0, lines))
        trace.append(MemoryAccess(
            pc=0x400, address=line * 64,
            is_write=bool(rng.random() < write_fraction),
            gap=int(rng.integers(0, 40))))
    return trace


class TestDense:
    def test_eviction_heavy_read_write_mix(self):
        # ~4x the small config's LLC lines: constant capacity pressure.
        run_both(_dense_trace(6000, 4096, seed=7, write_fraction=0.3),
                 blocking=False)

    def test_blocking_write_storm(self):
        run_both(_dense_trace(3000, 2048, seed=11, write_fraction=0.9),
                 blocking=True)

    def test_small_hot_set_stays_resident(self):
        run_both(_dense_trace(2000, 64, seed=3, write_fraction=0.5),
                 blocking=False)
