"""Unit behaviour of the comparison prefetchers (DSPatch, Bingo, SPP+PPF,
Pythia, Design B) and the next-line baseline."""

from repro.prefetchers.base import FillLevel, NullSystemView
from repro.prefetchers.bingo import Bingo
from repro.prefetchers.design_b import DesignB
from repro.prefetchers.dspatch import DSPatch
from repro.prefetchers.pythia import Pythia
from repro.prefetchers.simple import NextLine
from repro.prefetchers.spp import SPP, SPPWithPPF, advance_signature

VIEW = NullSystemView()
REGION = 0x5000_0000


def line_addr(region, offset):
    return region + offset * 64


def teach_regions(prefetcher, pc, trigger, deltas, regions,
                  region_bytes=4096):
    for i in range(regions):
        region = REGION + i * region_bytes
        prefetcher.on_access(pc, region + trigger * 64, 0.0, False, VIEW)
        for delta in deltas:
            offset = trigger + delta
            prefetcher.on_access(pc, region + offset * 64, 0.0, False, VIEW)
        prefetcher.on_evict(region + trigger * 64)


class TestDSPatch:
    def test_replays_learned_pattern(self):
        dspatch = DSPatch()
        teach_regions(dspatch, 0x400, 2, (1, 3), regions=8)
        fresh = REGION + 500 * 4096
        requests = dspatch.on_access(0x400, line_addr(fresh, 2), 0.0, False, VIEW)
        targets = {r.address for r in requests}
        assert line_addr(fresh, 3) in targets

    def test_and_merge_shrinks_to_common_subset(self):
        dspatch = DSPatch()
        teach_regions(dspatch, 0x400, 0, (1, 2, 3), regions=4)
        teach_regions(dspatch, 0x400, 0, (1,), regions=4)
        entry = dspatch.table.get(dspatch._key(0x400))
        # AccP (AND) keeps only the always-present offsets: trigger + 1.
        assert entry.accp & (1 << 1)
        assert not entry.accp & (1 << 3)

    def test_or_merge_grows_to_superset(self):
        dspatch = DSPatch()
        teach_regions(dspatch, 0x400, 0, (1,), regions=3)
        teach_regions(dspatch, 0x400, 0, (5,), regions=3)
        entry = dspatch.table.get(dspatch._key(0x400))
        assert entry.covp & (1 << 1) and entry.covp & (1 << 5)

    def test_bandwidth_switch_changes_level(self):
        class BusyView(NullSystemView):
            def dram_utilization(self):
                return 0.9

        dspatch = DSPatch()
        teach_regions(dspatch, 0x400, 0, (1, 2), regions=8)
        fresh = REGION + 900 * 4096
        idle = dspatch.on_access(0x400, line_addr(fresh, 0), 0.0, False, VIEW)
        fresh2 = REGION + 901 * 4096
        busy = dspatch.on_access(0x400, line_addr(fresh2, 0), 0.0, False,
                                 BusyView())
        assert any(r.level == FillLevel.L2C for r in idle)
        assert all(r.level == FillLevel.L1D for r in busy)


class TestBingo:
    def test_pc_address_exact_match_goes_l1(self):
        bingo = Bingo()
        # Same region revisited: the PC+Address long feature recurs.
        for _ in range(3):
            for offset in (4, 5, 7):
                bingo.on_access(0x400, REGION + offset * 64, 0.0, False, VIEW)
            bingo.on_evict(REGION + 4 * 64)
        requests = bingo.on_access(0x400, REGION + 4 * 64, 0.0, False, VIEW)
        assert requests
        assert all(r.level == FillLevel.L1D for r in requests)

    def test_pc_offset_fallback_votes(self):
        bingo = Bingo(region_bytes=4096)
        teach_regions(bingo, 0x400, 4, (1, 3), regions=10)
        fresh = REGION + 7_000 * 4096
        requests = bingo.on_access(0x400, line_addr(fresh, 4), 0.0, False, VIEW)
        targets = {r.address for r in requests}
        assert line_addr(fresh, 5) in targets
        assert line_addr(fresh, 7) in targets

    def test_region_size_default_is_2kb(self):
        assert Bingo().pattern_length == 32

    def test_max_fill_level_caps_placement(self):
        from repro.prefetchers.bingo import make_bingo_at_llc
        bingo = make_bingo_at_llc()
        for _ in range(3):
            for offset in (4, 5, 7):
                bingo.on_access(0x400, REGION + offset * 64, 0.0, False, VIEW)
            bingo.on_evict(REGION + 4 * 64)
        requests = bingo.on_access(0x400, REGION + 4 * 64, 0.0, False, VIEW)
        assert requests
        assert all(r.level == FillLevel.LLC for r in requests)


class TestSPP:
    def test_signature_advances(self):
        sig = advance_signature(0, 3)
        assert sig != 0
        assert advance_signature(sig, 3) != sig

    def test_stride_lookahead(self):
        spp = SPP()
        page = 0x6000_0000
        requests = []
        for i in range(30):
            requests = spp.on_access(0x400, page + i * 2 * 64, 0.0, False, VIEW)
        targets = {(r.address - page) // 64 for r in requests}
        current = 29 * 2
        assert current + 2 in targets  # next stride-2 line predicted

    def test_lookahead_stays_in_page(self):
        spp = SPP()
        page = 0x6000_0000
        for i in range(40):
            requests = spp.on_access(0x400, page + (i * 2 % 64) * 64, 0.0,
                                     False, VIEW)
            for r in requests:
                assert r.address & ~0xFFF == page

    def test_shuffled_orders_break_signatures(self):
        """The paper's bit-vector-vs-delta argument (Section VI-B):
        shuffling per-visit access order starves the signature path."""
        import numpy as np

        def run(shuffled):
            rng = np.random.default_rng(0)
            spp = SPP()
            page_base = 0x6000_0000
            proposals = 0
            for visit in range(50):
                page = page_base + (visit % 10) * 4096
                deltas = list(range(1, 11))
                if shuffled:
                    deltas = list(1 + rng.permutation(10))
                for offset in [0] + deltas:
                    proposals += len(spp.on_access(
                        0x400, page + int(offset) * 64, 0.0, False, VIEW))
            return proposals

        assert run(shuffled=True) < run(shuffled=False) * 0.5


class TestPPF:
    def test_perceptron_learns_to_reject(self):
        ppf = SPPWithPPF()
        features = ppf._features(0x400, 0x1000, 0x1040, 0, 0.9)
        before = ppf._score(features)
        ppf._remember(0x1040, features)
        ppf._train(0x1040, up=False)
        # Re-remember and retrain to push weights down.
        for _ in range(5):
            ppf._remember(0x1040, features)
            ppf._train(0x1040, up=False)
        assert ppf._score(features) < before

    def test_feedback_roundtrip(self):
        ppf = SPPWithPPF(tau_l1d=0, tau_l2c=-100)
        page = 0x7000_0000
        for i in range(20):
            ppf.on_access(0x400, page + i * 64, 0.0, False, VIEW)
        # Feedback on any remembered line must not raise.
        ppf.on_prefetch_useful(page + 5 * 64, FillLevel.L1D)
        ppf.on_prefetch_useless(page + 6 * 64, FillLevel.L1D)


class TestPythia:
    def test_one_prefetch_per_access_max(self):
        pythia = Pythia()
        page = 0x8000_0000
        for i in range(100):
            requests = pythia.on_access(0x400, page + i * 64, 0.0, False, VIEW)
            assert len(requests) <= 1

    def test_reward_changes_q_values(self):
        pythia = Pythia(epsilon=0.0)
        page = 0x8000_0000
        target = None
        for i in range(50):
            requests = pythia.on_access(0x400, page + (i % 32) * 64, 0.0,
                                        False, VIEW)
            if requests:
                target = requests[0].address
                pythia.on_prefetch_useful(target, FillLevel.L2C)
        assert target is not None
        assert any(q > 0.5 for row in pythia._q for q in row)

    def test_deterministic_given_seed(self):
        def run():
            pythia = Pythia(seed=42)
            page = 0x8000_0000
            out = []
            for i in range(50):
                out.extend(r.address for r in pythia.on_access(
                    0x400, page + (i * 3 % 64) * 64, 0.0, False, VIEW))
            return out

        assert run() == run()

    def test_stays_in_page(self):
        pythia = Pythia()
        page = 0x8000_0000
        for i in range(200):
            for r in pythia.on_access(0x400, page + (i % 64) * 64, 0.0,
                                      False, VIEW):
                assert r.address & ~0xFFF == page


class TestDesignB:
    def test_counts_identical_patterns_only(self):
        design_b = DesignB(ways=8, t_l1d=3, t_l2c=2)
        teach_regions(design_b, 0x400, 2, (1, 3), regions=6)
        fresh = REGION + 800 * 4096
        requests = design_b.on_access(0x400, line_addr(fresh, 2), 0.0, False, VIEW)
        targets = {r.address for r in requests}
        assert line_addr(fresh, 3) in targets

    def test_similar_but_distinct_patterns_thrash(self):
        """Variants occupy separate ways — the Table VIII weakness."""
        design_b = DesignB(ways=4, t_l1d=3, t_l2c=2)
        # Six distinct variants with the same trigger: more than ways.
        for variant in range(6):
            teach_regions(design_b, 0x400, 2, (1, 3 + variant), regions=2)
        entry_set = design_b._sets[2]
        assert len(entry_set) <= 4


class TestSimpleBaselines:
    def test_next_line(self):
        nl = NextLine(degree=2)
        requests = nl.on_access(0x400, 0x1000, 0.0, False, VIEW)
        assert [r.address for r in requests] == [0x1040, 0x1080]
