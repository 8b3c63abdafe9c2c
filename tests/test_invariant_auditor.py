"""The invariant auditor must catch the bugs this kernel historically had.

Each test reverts one fixed bug by monkeypatching a faithful pre-fix
replica of the broken code path back into the kernel, then drives the
scenario that used to corrupt results silently and asserts the
:class:`~repro.sim.invariants.InvariantAuditor` raises the matching
:class:`~repro.sim.invariants.InvariantViolation`.  Every scenario is
first run against the *fixed* kernel to prove it audits clean — the
violation is evidence about the bug, not about the scenario.
"""

import pytest

from repro.memtrace.access import MemoryAccess
from repro.memtrace.trace import Trace
from repro.prefetchers.base import FillLevel, NoPrefetcher, PrefetchRequest
from repro.sim.cache import DIRTY, PREFETCHED
from repro.sim.engine import simulate
from repro.sim.events import BackInvalidation
from repro.sim.hierarchy import Hierarchy, SharedLLC
from repro.sim.invariants import (
    ENV_FLAG,
    InvariantAuditor,
    InvariantViolation,
    audit_requested,
)
from repro.sim.level import CacheLevel

from tests.test_fastpath_differential import simulated_run
from tests.test_invariants import small_config


def build_audited():
    hierarchy = Hierarchy.build(small_config(), NoPrefetcher())
    return hierarchy, InvariantAuditor(hierarchy)


def evict_from(level, line, start_cycle):
    """Fill conflicting lines until ``line`` is no longer resident."""
    i = 1
    while level.storage.contains(line):
        level.apply_fill(line + i * level.storage.num_sets, start_cycle + i)
        i += 1


# --------------------------------------------------------------- audit knob


class TestAuditRequested:
    def test_explicit_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        assert not audit_requested(False)
        monkeypatch.setenv(ENV_FLAG, "0")
        assert audit_requested(True)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        assert not audit_requested(None)
        monkeypatch.setenv(ENV_FLAG, "1")
        assert audit_requested(None)
        monkeypatch.setenv(ENV_FLAG, "0")
        assert not audit_requested(None)
        monkeypatch.setenv(ENV_FLAG, "")
        assert not audit_requested(None)


# --------------------------------------- bug 1: lost dirty back-invalidation


def _apply_fill_dropping_dirty_private(self, line, cycle, prefetched=False,
                                       is_write=False):
    """Pre-fix ``CacheLevel.apply_fill``: drains only when the LLC victim
    itself was dirty, silently losing dirty back-invalidated private
    copies (the historical dirty-writeback bug).  Same signature as the
    live method: the kernel passes the flags positionally."""
    inserted, victim, victim_flags = self.storage.fill_now(
        line, cycle, prefetched, is_write)
    if not inserted:
        return
    if prefetched:
        ev = self._ev_pfill
        ev.line = line
        ev.cycle = cycle
        for handler in self._pfill_handlers:
            handler(ev)
    if victim is None:
        return
    ev = self._ev_evict
    ev.line = victim
    ev.prefetched = (victim_flags & PREFETCHED) != 0
    ev.dirty = (victim_flags & DIRTY) != 0
    ev.cycle = cycle
    for handler in self._evict_handlers:
        handler(ev)
    if self.shared is not None:
        for cache, flags in self.shared.back_invalidate(victim):
            binv = BackInvalidation(cache.name, victim,
                                    (flags & PREFETCHED) != 0,
                                    (flags & DIRTY) != 0, cycle, cache.stats)
            for handler in self._binv_handlers:
                handler(binv)
    if victim_flags & PREFETCHED:
        self._publish_useless(victim, "evicted", cycle)
    if victim_flags & DIRTY:
        self._drain_dirty(victim, cycle)


class TestDirtyBackInvalidationLoss:
    def _scenario(self, hierarchy, auditor):
        latency, _ = hierarchy.demand_access(0x600000, 0.0, is_write=True)
        hierarchy._sync(latency + 1)
        line = 0x600000 >> 6
        assert hierarchy.l1d.probe(line) & DIRTY
        evict_from(hierarchy.levels[2], line, latency + 1)
        auditor.checkpoint(latency + 1000.0)

    def test_fixed_kernel_audits_clean(self):
        self._scenario(*build_audited())

    def test_auditor_catches_reverted_bug(self, monkeypatch):
        monkeypatch.setattr(CacheLevel, "apply_fill",
                            _apply_fill_dropping_dirty_private)
        with pytest.raises(InvariantViolation) as exc:
            self._scenario(*build_audited())
        assert exc.value.law == "dirty-conservation"
        # The violation is debuggable: it carries the dirty
        # back-invalidation that created the unmet obligation.
        assert any(kind == "BackInvalidation" and extra == "dirty"
                   for _, kind, _, _, extra in exc.value.recent_events)


# -------------------------------------- bug 2: shallow dirty-victim drain


def _drain_dirty_immediate_below_only(self, victim, cycle):
    """Pre-fix ``CacheLevel._drain_dirty``: probes only the immediate
    ``below`` level, so an L1 victim absent from L2 but resident in the
    inclusive LLC bypassed the LLC straight to DRAM."""
    below = self.below
    absorbed = False
    if below is not None and below.storage.mark_dirty(victim):
        absorbed = True
    if not absorbed:
        self.dram.writeback(victim, cycle)
    ev = self._ev_wb
    ev.line = victim
    ev.absorbed = absorbed
    ev.cycle = cycle
    for handler in self._wb_handlers:
        handler(ev)


class TestShallowDirtyDrain:
    def _scenario(self, hierarchy, auditor):
        # Dirty in L1, absent from L2, resident in the LLC: the drain
        # must walk the whole chain to find the LLC copy.
        line = 0x600000 >> 6
        hierarchy.l1d.fill_now(line, 0.0, is_write=True)
        hierarchy.llc.fill_now(line, 0.0)
        i = 1
        while hierarchy.l1d.contains(line):
            other = line + i * hierarchy.l1d.num_sets
            hierarchy.llc.fill_now(other, float(i))  # keep inclusion
            hierarchy.levels[0].apply_fill(other, float(i))
            i += 1
        auditor.checkpoint(50.0)
        auditor.audit_now(50.0, deep=True)
        assert hierarchy.llc.probe(line) & DIRTY
        assert hierarchy.dram.stats.writeback_requests == 0

    def test_fixed_kernel_audits_clean(self):
        self._scenario(*build_audited())

    def test_auditor_catches_reverted_bug(self, monkeypatch):
        monkeypatch.setattr(CacheLevel, "_drain_dirty",
                            _drain_dirty_immediate_below_only)
        with pytest.raises(InvariantViolation) as exc:
            self._scenario(*build_audited())
        assert exc.value.law == "inclusion"


# ------------------------------- bug 3: shared-counter reset mid-measurement


class TestSharedStatsReset:
    def _warm(self):
        hierarchy, auditor = build_audited()
        cycle = 0.0
        for i in range(32):
            latency, _ = hierarchy.demand_access(0x10000 + i * 64, cycle)
            cycle += latency + 1
            auditor.checkpoint(cycle)
        return hierarchy, auditor, cycle

    def test_coupled_reset_audits_clean(self):
        hierarchy, auditor, cycle = self._warm()
        hierarchy.reset_stats()
        auditor.on_reset()
        auditor.audit_now(cycle, deep=True)

    def test_auditor_catches_llc_reset(self):
        # The old multicore warmup called the full reset per lane, wiping
        # the shared LLC counters other cores were still measuring.
        hierarchy, auditor, cycle = self._warm()
        hierarchy.llc.stats.reset()
        with pytest.raises(InvariantViolation) as exc:
            auditor.audit_now(cycle)
        assert exc.value.law == "shared-monotonicity"

    def test_auditor_catches_dram_reset(self):
        hierarchy, auditor, cycle = self._warm()
        hierarchy.dram.stats.reset()
        with pytest.raises(InvariantViolation) as exc:
            auditor.audit_now(cycle)
        assert exc.value.law == "shared-monotonicity"


# ----------------------------------------- bug 4: zero-cycle flush events


class TestFlushCycleStamp:
    def _setup(self):
        hierarchy, auditor = build_audited()
        cycle = 0.0
        for i in range(8):
            latency, _ = hierarchy.demand_access(0x20000 + i * 64, cycle)
            cycle += latency + 1
            auditor.checkpoint(cycle)
        # A never-used prefetched line that the end-of-run flush resolves.
        pline = 0x900000 >> 6
        hierarchy.levels[2].apply_fill(pline, cycle)
        hierarchy.levels[0].apply_fill(pline, cycle, prefetched=True)
        return hierarchy, auditor, cycle

    def test_final_cycle_flush_audits_clean(self):
        hierarchy, auditor, cycle = self._setup()
        hierarchy.flush_accounting(cycle)
        auditor.finalize(cycle)

    def test_auditor_catches_zero_cycle_flush(self):
        # Pre-fix behaviour: callers flushed with the default cycle, so
        # flush events landed at time zero on event timelines.
        hierarchy, auditor, _ = self._setup()
        with pytest.raises(InvariantViolation) as exc:
            hierarchy.flush_accounting()
        assert exc.value.law == "flush-cycle"


# ------------------------------ bug 5: uncanceled fills breaking inclusion


def _back_invalidate_without_cancel(self, line):
    """Pre-fix ``SharedLLC.back_invalidate``: removes resident private
    copies but leaves in-flight private fills of the line to land after
    the LLC already evicted it."""
    removed = []
    for cache in self._private:
        flags = cache.invalidate(line)
        if flags is not None:
            removed.append((cache, flags))
    return removed


class TestInFlightFillCancellation:
    def _scenario(self, hierarchy, auditor):
        llc_level = hierarchy.levels[2]
        llc = hierarchy.llc
        line = 0x40
        # Fill the LLC set so `line` is the LRU victim of the next fill.
        for i in range(llc.ways):
            llc_level.apply_fill(line + i * llc.num_sets, 0.0)
        # `line` is in flight to the L1D when the LLC evicts it.
        hierarchy.l1d.mshr_allocate(line, 500.0)
        hierarchy.l1d.schedule_fill(line, 500.0)
        llc_level.apply_fill(line + llc.ways * llc.num_sets, 1.0)
        hierarchy.levels[0].sync(600.0)
        auditor.audit_now(600.0, deep=True)
        assert not hierarchy.l1d.contains(line)

    def test_fixed_kernel_audits_clean(self):
        self._scenario(*build_audited())

    def test_auditor_catches_reverted_bug(self, monkeypatch):
        monkeypatch.setattr(SharedLLC, "back_invalidate",
                            _back_invalidate_without_cancel)
        with pytest.raises(InvariantViolation) as exc:
            self._scenario(*build_audited())
        assert exc.value.law == "inclusion"


# ------------------------------------------- census and set capacity laws


class TestCensusAndCapacity:
    def test_dirty_prefetched_line_counts_in_census(self):
        hierarchy, auditor = build_audited()
        line = 0x600000 >> 6
        hierarchy.issue_prefetch(PrefetchRequest(line << 6, FillLevel.L2C),
                                 0.0)
        hierarchy._sync(1e6)
        # As when the line absorbs a dirty L1 victim before any demand.
        assert hierarchy.l2c.mark_dirty(line)
        assert hierarchy.l2c.probe(line) == PREFETCHED | DIRTY
        auditor.audit_now(1e6)

    def test_stray_prefetched_bit_breaks_census(self):
        hierarchy, auditor = build_audited()
        latency, _ = hierarchy.demand_access(0x600000, 0.0)
        hierarchy._sync(latency + 1)
        line = 0x600000 >> 6
        hierarchy.l1d._sets[line % hierarchy.l1d.num_sets][line] |= PREFETCHED
        with pytest.raises(InvariantViolation) as exc:
            auditor.audit_now(latency + 1)
        assert exc.value.law == "prefetch-census"

    def test_overfull_set_breaks_capacity(self):
        hierarchy, auditor = build_audited()
        l1d = hierarchy.l1d
        for i in range(l1d.ways + 1):
            l1d._sets[0][i * l1d.num_sets] = 0
        with pytest.raises(InvariantViolation) as exc:
            auditor.audit_now(0.0)
        assert exc.value.law == "set-capacity"


# ------------------------- fast-path block exits are auditor checkpoints


class TestFastPathUnderAudit:
    """``REPRO_CHECK_INVARIANTS=1`` runs must exercise the fast path: the
    auditor treats every retired hit run as a checkpoint (structural laws
    run at the block exit), and a corrupted block-exit reconciliation is
    caught before the next access executes."""

    def _hot_machine(self):
        from repro.prefetchers.base import NoPrefetcher
        from repro.sim.core import Core
        from repro.sim.fastpath import FastPath

        config = small_config()
        prefetcher = NoPrefetcher()
        hierarchy = Hierarchy.build(config, prefetcher)
        auditor = InvariantAuditor(hierarchy)
        warm = [(1 << 24) + i for i in range(16)]
        for line in warm:
            for level in hierarchy.levels:
                level.storage.fill_now(line, 0.0)
        trace = Trace("audited-hot")
        for i in range(64):
            trace.append(MemoryAccess(pc=0x400, address=warm[i % 16] * 64,
                                      is_write=i % 5 == 0, gap=0))
        core = Core(config.core)
        scanner = FastPath(trace, hierarchy, core, prefetcher)
        return hierarchy, auditor, scanner

    def test_block_exit_runs_structural_audit(self):
        hierarchy, auditor, scanner = self._hot_machine()
        before = auditor.structural_audits
        consumed = scanner.try_run(0, 64)
        assert consumed > 0
        assert auditor.structural_audits == before + 1
        assert auditor._accesses == consumed  # shadow clock absorbed the block

    def test_audited_fastpath_run_is_bit_identical(self):
        import numpy as np
        rng = np.random.default_rng(11)
        trace = Trace("audited-fastpath")
        # 40 lines fit the small config's 64-line L1D: sweep phases give
        # long hit runs, cold phases force the event kernel in between.
        hot = [(1 << 22) + i for i in range(40)]
        for i in range(4_000):
            if (i // 400) % 2 == 0 or rng.random() < 0.9:
                address = hot[i % 40] * 64
            else:
                address = int(rng.integers(0, 1 << 20)) * 64
            trace.append(MemoryAccess(pc=0x400, address=address,
                                      is_write=bool(rng.random() < 0.2),
                                      gap=int(rng.integers(0, 8))))
        config = small_config()
        run = simulated_run(trace, NoPrefetcher(), config,
                            check_invariants=True)
        assert run.scanner.accesses_fastpathed > 0  # the audit saw real blocks
        audited = run.snapshot()
        plain = simulate(trace, config=config, check_invariants=False)
        slow = simulate(trace, config=config, check_invariants=True,
                        fastpath=False)
        assert audited == plain == slow

    def test_auditor_catches_corrupted_block_exit_reconciliation(self,
                                                                 monkeypatch):
        """Regression fixture: a block-exit reconciliation that loses one
        access (the classic off-by-one between the vector apply and the
        stats rollup) must trip stats-conservation at the block exit
        itself, not some later checkpoint."""
        from repro.sim.observers import LevelStatsObserver

        def _skewed_hit_run(self, event):
            stats, mirror = self._routes[event.level]
            stats.demand_accesses += event.count - 1  # drops one access
            stats.demand_hits += event.count - 1
            if mirror is not None:
                mirror.demand_accesses += event.count - 1
                mirror.demand_hits += event.count - 1

        monkeypatch.setattr(LevelStatsObserver, "_on_hit_run",
                            _skewed_hit_run)
        hierarchy, auditor, scanner = self._hot_machine()
        with pytest.raises(InvariantViolation) as exc:
            scanner.try_run(0, 64)
        assert exc.value.law == "stats-conservation"
        # The block-exit record is in the debug ring: the violation is
        # attributable to the hit run that carried it.
        assert any(kind == "HitRunRetired"
                   for _, kind, _, _, _ in exc.value.recent_events)

    def test_clean_reconciliation_audits_clean(self):
        # The fixture above proves detection; this proves the scenario.
        hierarchy, auditor, scanner = self._hot_machine()
        consumed = scanner.try_run(0, 64)
        assert consumed > 0
        auditor.audit_now(10.0, deep=True)


# ------------------------------------------------------- pure observation


def test_audited_run_is_pure_observation():
    """An audited simulation produces bit-identical results."""
    import numpy as np
    rng = np.random.default_rng(5)
    trace = Trace("audit-identity")
    for _ in range(2500):
        trace.append(MemoryAccess(
            pc=0x400, address=int(rng.integers(0, 4096)) * 64,
            is_write=bool(rng.random() < 0.3),
            gap=int(rng.integers(0, 30))))
    config = small_config()
    plain = simulate(trace, config=config, check_invariants=False)
    audited = simulate(trace, config=config, check_invariants=True)
    assert plain == audited
