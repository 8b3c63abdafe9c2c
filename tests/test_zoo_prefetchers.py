"""Unit tests for the PR-10 zoo ports: Pangloss, Gaze, Triangel.

Engine-level behaviour only; cross-cutting contracts (determinism,
legality, fastpath) are covered for every registered engine by
``tests/test_prefetcher_conformance.py``.
"""

from repro.prefetchers.base import FillLevel, NullSystemView
from repro.prefetchers.gaze import Gaze
from repro.prefetchers.pangloss import Pangloss
from repro.prefetchers.triangel import Triangel

VIEW = NullSystemView()
PAGE = 0xC000_0000


def feed(prefetcher, offsets, page=PAGE, hit=False, pc=0x400):
    requests = []
    for offset in offsets:
        requests = prefetcher.on_access(pc, page + offset * 64, 0.0,
                                        hit, VIEW)
    return requests


class TestPangloss:
    def test_learns_a_delta_chain(self):
        p = Pangloss(degree=4)
        # Train the +2 self-transition hard, then check the chain walk.
        feed(p, list(range(0, 40, 2)))
        requests = feed(p, [0, 2], page=PAGE + 0x10000)
        targets = {(r.address - (PAGE + 0x10000)) // 64 for r in requests}
        assert {4, 6, 8, 10} == targets

    def test_alternating_deltas_follow_the_markov_chain(self):
        p = Pangloss(degree=2)
        offsets = [0]
        for i in range(20):
            offsets.append(offsets[-1] + (1 if i % 2 == 0 else 3))
        feed(p, offsets)
        requests = feed(p, [0, 1], page=PAGE + 0x20000)
        # After delta +1 the chain predicts +3 then +1.
        targets = [(r.address - (PAGE + 0x20000)) // 64 for r in requests]
        assert targets == [4, 5]

    def test_stays_inside_the_page(self):
        p = Pangloss(degree=8)
        feed(p, list(range(0, 64, 2)))
        for r in feed(p, [58, 60], page=PAGE + 0x30000):
            assert r.address & ~0xFFF == PAGE + 0x30000

    def test_hits_are_transparent(self):
        p = Pangloss()
        feed(p, list(range(0, 20, 2)))
        before = (len(p._rows), len(p._pages))
        assert feed(p, [0, 2, 4], page=PAGE + 0x40000, hit=True) == []
        assert (len(p._rows), len(p._pages)) == before

    def test_tables_are_bounded(self):
        p = Pangloss(delta_sets=8, page_entries=16)
        for i in range(200):
            feed(p, [i % 64, (i * 7) % 64, (i * 13) % 64],
                 page=PAGE + (i % 64) * 4096)
        assert len(p._rows) <= 8
        assert len(p._pages) <= 16

    def test_low_probability_transitions_are_not_chased(self):
        p = Pangloss(degree=4, probability_threshold=0.9)
        # Three successors for delta +1 → max probability ~1/3 < 0.9.
        feed(p, [0, 1, 3], page=PAGE)
        feed(p, [0, 1, 5], page=PAGE + 0x1000)
        feed(p, [0, 1, 7], page=PAGE + 0x2000)
        assert feed(p, [0, 1], page=PAGE + 0x3000) == []


class TestGaze:
    def _teach(self, g, offsets, page):
        feed(g, offsets, page=page)
        g.on_evict(page)  # end the generation → learn the footprint

    def test_predicts_on_second_access_with_pair_key(self):
        g = Gaze()
        footprint = [0, 3, 5, 9, 11]
        for i in range(3):
            self._teach(g, footprint, PAGE + i * 0x1000)
        fresh = PAGE + 0x40000
        assert feed(g, [0], page=fresh) == []  # trigger: no prediction yet
        requests = feed(g, [3], page=fresh)    # pair (0,3) → replay
        targets = {(r.address - fresh) // 64 for r in requests}
        assert targets == {5, 9, 11}

    def test_different_second_offset_is_a_different_pattern(self):
        g = Gaze()
        for i in range(3):
            self._teach(g, [0, 3, 5, 9], PAGE + i * 0x1000)
        for i in range(3):
            self._teach(g, [0, 7, 20, 40], PAGE + 0x10000 + i * 0x1000)
        fresh = PAGE + 0x40000
        feed(g, [0], page=fresh)
        requests = feed(g, [7], page=fresh)
        targets = {(r.address - fresh) // 64 for r in requests}
        assert targets == {20, 40}

    def test_near_targets_fill_l1d_far_fill_l2c(self):
        g = Gaze(near_degree=2)
        for i in range(3):
            self._teach(g, [0, 1, 2, 3, 40, 50], PAGE + i * 0x1000)
        fresh = PAGE + 0x40000
        feed(g, [0], page=fresh)
        requests = feed(g, [1], page=fresh)
        by_level = {}
        for r in requests:
            by_level.setdefault(r.level, set()).add((r.address - fresh) // 64)
        assert by_level[FillLevel.L1D] == {2, 3}       # nearest two
        assert by_level[FillLevel.L2C] == {40, 50}     # the rest

    def test_hit_run_consume_declines_promotions(self):
        g = Gaze()
        fresh = PAGE + 0x50000
        assert g.hit_run_consume(0x400, fresh)          # trigger: consumable
        assert not g.hit_run_consume(0x400, fresh + 3 * 64)  # promotion
        # Declining must not have mutated: the region is still FT-resident
        # with its original trigger.
        filt = g.capture.filter_table.get(fresh, touch=False)
        assert filt is not None and filt.trigger_offset == 0


class TestTriangel:
    def _miss_rounds(self, t, lines, rounds, pc=0x400):
        requests = []
        for _ in range(rounds):
            for line in lines:
                requests = t.on_access(pc, line * 64, 0.0, False, VIEW)
        return requests

    def test_learns_temporal_successors_with_lookahead(self):
        t = Triangel(lookahead=2)
        lines = [0x111, 0x9999, 0x5050, 0x2222, 0x777]
        self._miss_rounds(t, lines, rounds=4)
        requests = t.on_access(0x400, lines[0] * 64, 0.0, False, VIEW)
        targets = [r.address // 64 for r in requests]
        assert targets == [lines[1], lines[2]]  # successor + its successor

    def test_hits_are_transparent(self):
        t = Triangel()
        self._miss_rounds(t, [0x111, 0x222, 0x333], rounds=3)
        snapshot = (dict(t._next), dict(t._units), len(t._sampler))
        assert t.on_access(0x400, 0x111 * 64, 0.0, True, VIEW) == []
        assert (dict(t._next), dict(t._units), len(t._sampler)) == snapshot

    def test_useless_feedback_lowers_the_pc_score(self):
        from repro.memtrace.access import hash_pc
        t = Triangel(lookahead=1)
        lines = [0x111, 0x9999, 0x5050]
        self._miss_rounds(t, lines, rounds=4)
        key = hash_pc(0x400, 12)
        [request] = t.on_access(0x400, lines[0] * 64, 0.0, False, VIEW)
        before = t._units[key][1]
        t.on_prefetch_useless(request.address, FillLevel.L2C)
        assert t._units[key][1] == max(0, before - 2)

    def test_low_score_pc_neither_trains_nor_issues(self):
        from repro.memtrace.access import hash_pc
        t = Triangel(lookahead=1)
        lines = [0x111, 0x9999, 0x5050]
        self._miss_rounds(t, lines, rounds=4)
        key = hash_pc(0x400, 12)
        line, _ = t._units[key]
        t._units[key] = (line, 0)  # feedback drove the sampler score out
        table_before = dict(t._next)
        assert t.on_access(0x400, 0x7777 * 64, 0.0, False, VIEW) == []
        assert t._next == table_before  # no metadata written either

    def test_metadata_partition_is_bounded(self):
        t = Triangel(metadata_lines=32, train_units=8, sampler_entries=8)
        for i in range(500):
            t.on_access(0x400 + (i % 16) * 4, (0x1000 + i) * 64, 0.0,
                        False, VIEW)
        assert len(t._next) <= 32
        assert len(t._units) <= 8
        assert len(t._sampler) <= 8

    def test_useful_feedback_is_attributed_once(self):
        t = Triangel(lookahead=1)
        lines = [0x111, 0x9999]
        self._miss_rounds(t, lines, rounds=4)
        [request] = t.on_access(0x400, lines[0] * 64, 0.0, False, VIEW)
        assert request.address // 64 == lines[1]
        t.on_prefetch_useful(request.address, FillLevel.L2C)
        assert (request.address >> 6) not in t._issued_by  # popped
