"""Property tests for the fast-path block-boundary scanner.

The scanner (:class:`repro.sim.fastpath.FastPath`) must cut a candidate
block at *every* interesting boundary — a miss, a pending fill becoming
ready, a back-invalidation that removed a line it believed resident, a
core window stall — and a declined attempt must leave the machine
completely untouched.  These tests drive the scanner directly against a
hand-warmed hierarchy and compare the applied state field-for-field with
a pure event-driven replay of the same prefix, plus adversarial boundary
placements drawn by hypothesis.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.memtrace.access import MemoryAccess
from repro.memtrace.trace import Trace
from repro.prefetchers.base import NoPrefetcher
from repro.sim.cache import PREFETCHED
from repro.sim.core import Core
from repro.sim.fastpath import MIN_RUN, FastPath
from repro.sim.hierarchy import Hierarchy

from tests.test_invariants import small_config

BASE = 1 << 30


def make_trace(lines, gaps=None, writes=None) -> Trace:
    trace = Trace("scanner")
    n = len(lines)
    gaps = gaps or [0] * n
    writes = writes or [False] * n
    for line, gap, write in zip(lines, gaps, writes):
        trace.append(MemoryAccess(pc=0x400100, address=line * 64,
                                  is_write=write, gap=gap))
    return trace


def make_machine(trace, *, warm_lines=(), config=None):
    """A hierarchy/core pair with ``warm_lines`` resident at every level
    (installed at cycle 0, so no pending fills), plus a bound scanner."""
    config = config or small_config()
    prefetcher = NoPrefetcher()
    hierarchy = Hierarchy.build(config, prefetcher)
    for line in warm_lines:
        for level in hierarchy.levels:
            level.storage.fill_now(line, 0.0)
    core = Core(config.core)
    scanner = FastPath(trace, hierarchy, core, prefetcher)
    return hierarchy, core, scanner


def slow_drive(hierarchy, core, trace, start, count):
    """The engine's event-driven inner loop, verbatim, for a prefix."""
    for access in trace.accesses[start:start + count]:
        if access.gap:
            core.advance(access.gap)
        cycle = core.begin_load()
        hierarchy.set_view_cycle(cycle)
        latency, _ = hierarchy.demand_access(access.address, cycle,
                                             access.is_write)
        core.finish_load(latency)


def machine_state(hierarchy, core):
    """Everything a block apply may touch, in comparable form."""
    return {
        "cycle": core.cycle,
        "instructions": core.instructions,
        "inflight": list(core._inflight),
        "view_cycle": hierarchy._view_cycle,
        "l1_sets": [list(cache_set.items())
                    for cache_set in hierarchy.l1d._sets],
        "l1_stats": (hierarchy.l1d.stats.demand_accesses,
                     hierarchy.l1d.stats.demand_hits,
                     hierarchy.l1d.stats.demand_misses),
    }


WARM = [BASE // 64 + i for i in range(16)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scanner_prefix_matches_event_kernel(data):
    """Arbitrary hit sequences over a warm set (repeats, writes, gaps),
    optionally terminated by a miss: the scanner must consume exactly up
    to the boundary and leave the identical machine state the event
    kernel produces for that prefix — LRU order, dirty bits, clock,
    in-flight deque and stats included."""
    n = data.draw(st.integers(min_value=MIN_RUN, max_value=120))
    picks = data.draw(st.lists(st.integers(0, len(WARM) - 1),
                               min_size=n, max_size=n))
    gaps = data.draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    writes = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    add_miss = data.draw(st.booleans())

    lines = [WARM[p] for p in picks]
    if add_miss:
        lines.append(WARM[-1] + 1000)  # cold line: structural boundary
        gaps.append(data.draw(st.integers(0, 30)))
        writes.append(False)
    trace = make_trace(lines, gaps, writes)

    h_fast, core_fast, scanner = make_machine(trace, warm_lines=WARM)
    scanner._window = 4096  # defeat the adaptive first-window cap
    consumed = scanner.try_run(0, len(trace))
    assert consumed == n  # cut exactly at the miss (or take everything)

    h_slow, core_slow, _ = make_machine(trace, warm_lines=WARM)
    slow_drive(h_slow, core_slow, trace, 0, n)
    assert machine_state(h_fast, core_fast) == machine_state(h_slow, core_slow)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=5))
def test_pending_fill_cuts_block(ready_step, gap):
    """A fill whose data arrives mid-block bounds the run: with issue
    cycles t_j, the scanner may take only accesses with t_j strictly
    before the fill's ready cycle (sync fires on ``ready <= cycle``)."""
    n = 50
    trace = make_trace([WARM[i % len(WARM)] for i in range(n)],
                       gaps=[gap] * n)
    hierarchy, core, scanner = make_machine(trace, warm_lines=WARM)
    width = core.params.width
    # t_j = j * (1 + gap) / width; place the fill's readiness on the
    # grid or between points, both must cut strictly before it.
    ready = ready_step * (1 + gap) / width
    hierarchy.l1d.schedule_fill(WARM[-1] + 2000, ready)

    consumed = scanner.try_run(0, n)
    expected = min(n, ready_step)  # first j with t_j >= ready is excluded
    if expected < MIN_RUN:
        assert consumed == 0
    else:
        assert consumed == expected


def test_fill_ready_exactly_at_first_access_declines():
    trace = make_trace([WARM[i % len(WARM)] for i in range(20)])
    hierarchy, core, scanner = make_machine(trace, warm_lines=WARM)
    hierarchy.l1d.schedule_fill(WARM[-1] + 2000, 0.0)  # ready == t_0
    before = machine_state(hierarchy, core)
    assert scanner.try_run(0, 20) == 0
    assert machine_state(hierarchy, core) == before  # decline touched nothing


def test_run_shorter_than_min_run_declines_untouched():
    lines = [WARM[0], WARM[1], WARM[2], WARM[-1] + 999, WARM[3]]
    trace = make_trace(lines)
    hierarchy, core, scanner = make_machine(trace, warm_lines=WARM)
    before = machine_state(hierarchy, core)
    assert scanner.try_run(0, len(lines)) == 0
    assert machine_state(hierarchy, core) == before


def test_back_invalidation_invalidates_snapshot():
    """A back-invalidation one access before a block start must be seen:
    the residency snapshot is version-keyed, so a line removed between
    two scanner calls may not be treated as resident by the second."""
    victim = WARM[5]
    n = 24
    lines = [WARM[i % 4] for i in range(n)]
    lines[8] = victim  # mid-block access to the soon-dead line
    trace = make_trace(lines)
    hierarchy, core, scanner = make_machine(trace, warm_lines=WARM)

    # Build the snapshot while `victim` is still resident and eligible.
    assert scanner._snapshot().size == len(WARM)

    # Force an inclusive LLC eviction of `victim`: fill its LLC set with
    # conflicting lines until it is chosen, back-invalidating the L1/L2
    # copies exactly as a real fill boundary would.
    llc_level = hierarchy.levels[-1]
    llc = llc_level.storage
    conflict = victim + llc.num_sets
    while llc.contains(victim):
        llc_level.apply_fill(conflict, 0.0)
        conflict += llc.num_sets
    assert hierarchy.l1d.probe(victim) is None

    consumed = scanner.try_run(0, n)
    assert consumed == 8  # cut exactly before the invalidated line

    h_slow, core_slow, _ = make_machine(trace, warm_lines=WARM)
    for line in [c for c in range(victim + llc.num_sets, conflict,
                                  llc.num_sets)]:
        h_slow.levels[-1].apply_fill(line, 0.0)
    slow_drive(h_slow, core_slow, trace, 0, 8)
    assert machine_state(hierarchy, core) == machine_state(h_slow, core_slow)


def test_prefetched_bit_excludes_line():
    """A resident line with its prefetched bit set is not ordinary (the
    hit would publish PrefetchUseful), so it bounds the block; consuming
    the bit on the event path re-admits the line."""
    special = WARM[7]
    n = 20
    lines = [WARM[i % 4] for i in range(n)]
    lines[6] = special
    trace = make_trace(lines)
    hierarchy, core, scanner = make_machine(trace, warm_lines=WARM)
    l1_set = hierarchy.l1d._sets[special % hierarchy.l1d.num_sets]
    l1_set[special] |= PREFETCHED
    hierarchy.l1d.version += 1  # fill paths bump on prefetched installs

    assert scanner.try_run(0, n) == 6

    # The event kernel consumes the bit at access 6 ...
    slow_drive(hierarchy, core, trace, 6, 1)
    assert not hierarchy.l1d.probe(special) & PREFETCHED
    # ... after which the same line is eligible again.
    assert scanner.try_run(7, n) == n - 7


def test_core_window_stall_cuts_block():
    """With a tiny load queue the in-flight deque fills before it drains,
    so the scanner must stop exactly where begin_load would stall."""
    from dataclasses import replace
    config = small_config()
    config = replace(config, core=replace(config.core, lq_entries=4,
                                          rob_entries=1 << 20))
    n = 40
    trace = make_trace([WARM[i % len(WARM)] for i in range(n)])
    hierarchy, core, scanner = make_machine(trace, warm_lines=WARM,
                                            config=config)
    consumed = scanner.try_run(0, n)
    assert 0 < consumed < n

    h_slow, core_slow, _ = make_machine(trace, warm_lines=WARM,
                                        config=config)
    slow_drive(h_slow, core_slow, trace, 0, consumed)
    assert machine_state(hierarchy, core) == machine_state(h_slow, core_slow)
    # The next access really would have stalled: replaying it through the
    # event kernel pops the window open by advancing the clock.
    before = core_slow.cycle
    slow_drive(h_slow, core_slow, trace, consumed, 1)
    assert core_slow.cycle > before + 1 / core_slow.params.width


def test_warmup_limit_bounds_block():
    """The engine passes ``limit=warmup_end`` inside warmup; the scanner
    must never retire past the limit even when the run continues."""
    n = 60
    trace = make_trace([WARM[i % len(WARM)] for i in range(n)])
    _, _, scanner = make_machine(trace, warm_lines=WARM)
    assert scanner.try_run(0, 17) == 17
