"""Synthetic generators: determinism and the pattern structure they promise."""

import numpy as np

from repro.memtrace import synthetic as syn
from repro.memtrace.access import MemoryAccess, offset_of, region_of
from repro.memtrace.trace import Trace
from repro.prefetchers.sms import PatternCaptureFramework


def records(columns):
    """A generator's four columns as named records."""
    return list(map(MemoryAccess, *(column.tolist() for column in columns)))


def capture_all(accesses):
    framework = PatternCaptureFramework(4096, ft_sets=8, ft_ways=16,
                                        at_sets=8, at_ways=16)
    patterns = []
    for access in accesses:
        _, _, done = framework.observe(access.pc, access.address)
        patterns.extend(done)
    patterns.extend(framework.drain())
    return patterns


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = syn.stream(np.random.default_rng(5), 500)
        b = syn.stream(np.random.default_rng(5), 500)
        assert records(a) == records(b)

    def test_different_seed_different_trace(self):
        a = syn.pattern_replay(np.random.default_rng(1), 500)
        b = syn.pattern_replay(np.random.default_rng(2), 500)
        assert records(a) != records(b)

    def test_exact_lengths(self):
        for gen in (syn.stream, syn.backward_scan, syn.neighborhood_walk,
                    syn.pointer_chase, syn.pattern_replay, syn.graph_traversal):
            columns = gen(np.random.default_rng(0), 321)
            assert [len(column) for column in columns] == [321] * 4


class TestStream:
    def test_sequential_lines(self):
        accesses = records(syn.stream(np.random.default_rng(0), 100))
        lines = [a.cacheline for a in accesses]
        assert lines == list(range(lines[0], lines[0] + 100))

    def test_region_patterns_are_all_ones(self):
        accesses = records(syn.stream(np.random.default_rng(0), 1000))
        full = [p for p in capture_all(accesses)
                if p.bit_vector.bit_count() == 64]
        assert full  # interior regions are fully covered
        assert all(p.trigger_offset == 0 for p in full)


class TestBackwardScan:
    def test_walks_downward(self):
        accesses = records(syn.backward_scan(np.random.default_rng(0), 100))
        lines = [a.cacheline for a in accesses]
        assert all(b - a in (-1,) or b > a + 32 for a, b in zip(lines, lines[1:]))

    def test_big_trigger_offsets(self):
        accesses = records(syn.backward_scan(np.random.default_rng(0), 2000))
        patterns = capture_all(accesses)
        # Entering from above means triggers concentrate at region tops.
        high = [p for p in patterns if p.trigger_offset >= 48]
        assert len(high) > len(patterns) * 0.8


class TestStrided:
    def test_constant_stride(self):
        accesses = records(syn.strided(np.random.default_rng(0), 100, stride=3))
        lines = [a.cacheline for a in accesses]
        assert all(b - a == 3 for a, b in zip(lines, lines[1:]))


class TestPatternReplay:
    def test_anchored_patterns_recur_across_regions(self):
        accesses = records(syn.pattern_replay(np.random.default_rng(3), 4000, noise=0.0))
        patterns = capture_all(accesses)
        from collections import Counter
        census = Counter(p.anchored() for p in patterns)
        top_share = sum(c for _, c in census.most_common(12)) / len(patterns)
        assert top_share > 0.7  # a small library dominates (Observation 1)

    def test_offset_set_stable_but_order_varies(self):
        rng = np.random.default_rng(4)
        library = [(0, [1, 2, 3, 4, 5, 6])]
        accesses = records(syn.pattern_replay(rng, 400, library=library, noise=0.0))
        by_region: dict[int, list[int]] = {}
        for access in accesses:
            by_region.setdefault(region_of(access.address), []).append(
                offset_of(access.address))
        orders = [tuple(offsets) for offsets in by_region.values()
                  if len(offsets) == 7]
        assert len({frozenset(o) for o in orders}) == 1  # same set
        assert len(set(orders)) > 1                      # different orders

    def test_noise_perturbs_patterns(self):
        rng = np.random.default_rng(5)
        library = [(0, list(range(1, 10)))]
        accesses = records(syn.pattern_replay(rng, 2000, library=library, noise=0.3))
        patterns = capture_all(accesses)
        distinct = {p.anchored() for p in patterns}
        assert len(distinct) > 3  # variants, not exact clones


class TestIrregular:
    def test_pointer_chase_patterns_rarely_repeat(self):
        accesses = records(syn.pointer_chase(np.random.default_rng(6), 3000))
        patterns = capture_all(accesses)
        from collections import Counter
        census = Counter(p.anchored() for p in patterns)
        singles = sum(1 for c in census.values() if c == 1)
        assert singles / max(1, len(census)) > 0.5

    def test_graph_traversal_mixes_segments(self):
        accesses = records(syn.graph_traversal(np.random.default_rng(7), 2000))
        pcs = {a.pc for a in accesses}
        assert len(pcs) == 3  # vertex, edge and data access sites


class TestCompose:
    def test_total_length(self):
        rng = np.random.default_rng(8)
        parts = [(syn.stream, {}, 0.5), (syn.pointer_chase, {}, 0.5)]
        out = syn.compose(rng, parts, 1000)
        assert [len(column) for column in out] == [1000] * 4

    def test_epochs_change_mix(self):
        rng = np.random.default_rng(9)
        parts = [(syn.stream, {"segment": 0}, 0.9),
                 (syn.pointer_chase, {"segment": 5}, 0.1)]
        out = records(syn.compose(rng, parts, 2000, epochs=2))
        first = [a for a in out[:1000] if a.pc == 0x400100]
        second = [a for a in out[1000:] if a.pc == 0x400100]
        # The rotated weights flip the dominant phase between epochs.
        assert len(first) != len(second)

    def test_build_trace_wrapper(self):
        trace = syn.build_trace("x", "fam", 11,
                                [(syn.stream, {}, 1.0)], total=200)
        assert isinstance(trace, Trace)
        assert trace.name == "x" and len(trace) == 200
