"""Motivation analytics: census (Fig 2), PCR/PDR (Table I), ICDD (Fig 4),
heat maps (Fig 5)."""

import numpy as np

from repro.analysis.heatmap import (
    diagonal_mass,
    heatmap,
    render_ascii,
    row_concentration,
)
from repro.analysis.patterns import capture_patterns, census
from repro.analysis.redundancy import (
    bingo_redundancy,
    feature_pc,
    feature_pc_address,
    feature_trigger_offset,
    pcr_pdr,
)
from repro.analysis.similarity import (
    average_icdd,
    f6_trigger_offset,
    icdd,
)
from repro.memtrace import synthetic as syn
from repro.memtrace.trace import Trace
from repro.prefetchers.sms import CapturedPattern


def make_pattern(region=0, pc=0x400, trigger=0, bits=0b11, length=64):
    return CapturedPattern(region=region, pc=pc, trigger_offset=trigger,
                           bit_vector=bits | (1 << trigger), length=length)


class TestCensus:
    def test_counts_anchored_patterns(self):
        patterns = [make_pattern(region=i * 4096, trigger=0, bits=0b111)
                    for i in range(5)]
        patterns.append(make_pattern(region=99 * 4096, trigger=0, bits=0b1001))
        result = census(patterns)
        assert result.total_occurrences == 6
        assert result.distinct_patterns == 2
        assert result.top_share(1) == 5 / 6

    def test_anchoring_merges_shifted_copies(self):
        # The same shape at different trigger offsets is one pattern.
        a = make_pattern(trigger=0, bits=0b11)
        b = make_pattern(trigger=5, bits=0b11 << 5)
        assert census([a, b]).distinct_patterns == 1

    def test_singleton_share(self):
        patterns = [make_pattern(bits=0b11), make_pattern(bits=0b11),
                    make_pattern(bits=0b101)]
        assert census(patterns).singleton_share() == 0.5

    def test_empty(self):
        result = census([])
        assert result.top_share(10) == 0.0
        assert result.singleton_share() == 0.0


class TestRedundancy:
    def test_pcr_counts_collisions(self):
        # Two distinct patterns under one feature value.
        patterns = [make_pattern(bits=0b11), make_pattern(bits=0b101)]
        result = pcr_pdr(patterns, feature_trigger_offset)
        assert result.pcr == 2.0
        assert result.pdr == 1.0

    def test_pdr_counts_duplicates(self):
        # The same pattern under two feature values (different PCs).
        patterns = [make_pattern(pc=0x400, bits=0b11),
                    make_pattern(pc=0x800, bits=0b11)]
        result = pcr_pdr(patterns, feature_pc)
        assert result.pdr == 2.0
        assert result.pcr == 1.0

    def test_fine_feature_shifts_redundancy_to_pdr(self):
        """Observation 2: PC+Address gets low PCR / high PDR relative to
        Trigger Offset on region-recurring patterns."""
        patterns = [make_pattern(region=i * 4096, trigger=0, bits=0b1110)
                    for i in range(50)]
        coarse = pcr_pdr(patterns, feature_trigger_offset)
        fine = pcr_pdr(patterns, feature_pc_address)
        assert fine.pcr <= coarse.pcr
        assert fine.pdr >= coarse.pdr

    def test_bingo_redundancy_counts(self):
        patterns = [make_pattern(region=i * 4096, bits=0b111) for i in range(10)]
        redundant_share, top_share = bingo_redundancy(patterns)
        assert redundant_share == 0.9   # 9 of 10 entries hold a duplicate
        assert top_share == 1.0

    def test_empty_population(self):
        result = pcr_pdr([], feature_pc)
        assert result.pcr == 0.0 and result.pdr == 0.0


class TestICDD:
    def test_identical_vectors_have_zero_icdd(self):
        vectors = np.ones((5, 8))
        assert icdd(vectors) == 0.0

    def test_spread_vectors_have_positive_icdd(self):
        vectors = np.eye(4)
        assert icdd(vectors) > 0.0

    def test_paper_formula(self):
        # Two opposite unit vectors: centroid at midpoint, distance 1
        # each, ICDD = 2 * mean = 2.
        vectors = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert abs(icdd(vectors) - 2.0) < 1e-9

    def test_average_icdd_prefers_tight_clusters(self):
        tight = [make_pattern(trigger=t, bits=0b11 << t) for t in range(8)] * 4
        loose = []
        rng = np.random.default_rng(0)
        for i in range(32):
            bits = int(rng.integers(1, 1 << 16))
            loose.append(make_pattern(trigger=0, bits=bits))
        assert average_icdd(tight, f6_trigger_offset) < \
            average_icdd(loose, f6_trigger_offset)

    def test_empty(self):
        assert average_icdd([], f6_trigger_offset) == 0.0


class TestHeatmaps:
    def test_shape_and_counts(self):
        patterns = [make_pattern(trigger=3, bits=0b11000)]
        matrix = heatmap(patterns, f6_trigger_offset)
        assert matrix.shape == (64, 64)
        assert matrix[3].sum() == 2  # bits {3, 4} land in row 3

    def test_row_concentration_extremes(self):
        concentrated = np.zeros((8, 8))
        concentrated[2, :] = 5
        spread = np.ones((8, 8))
        assert row_concentration(concentrated) > row_concentration(spread)
        assert row_concentration(np.zeros((4, 4))) == 0.0

    def test_diagonal_mass(self):
        matrix = np.eye(16, dtype=np.int64)
        assert diagonal_mass(matrix, band=1) == 1.0
        off = np.zeros((16, 16), dtype=np.int64)
        off[0, 15] = 10
        assert diagonal_mass(off, band=1) == 0.0

    def test_render_ascii(self):
        matrix = np.arange(16).reshape(4, 4)
        art = render_ascii(matrix)
        assert len(art.splitlines()) == 4
        assert render_ascii(np.zeros((2, 2))) == "(empty heat map)"


class TestEndToEnd:
    def test_capture_patterns_on_synthetic_trace(self):
        trace = Trace.from_arrays("s", syn.stream(np.random.default_rng(0), 2000))
        patterns = capture_patterns(trace)
        assert patterns
        assert all(p.length == 64 for p in patterns)

    def test_mcf_like_trace_shows_trigger_offset_structure(self):
        """The Fig 5a/5c contrast: trigger-offset maps of a backward-scan
        trace concentrate mass; hashed PC+Address maps scatter it."""
        from repro.analysis.heatmap import heatmap_for_trace
        trace = Trace.from_arrays("mcf", syn.backward_scan(np.random.default_rng(0), 4000))
        by_offset = heatmap_for_trace(trace, "Trigger Offset")
        by_pc_addr = heatmap_for_trace(trace, "PC+Address")
        assert row_concentration(by_offset) > row_concentration(by_pc_addr)


class TestFig3Example:
    def test_toy_numbers(self):
        from repro.analysis.redundancy import fig3_example
        values = fig3_example()
        # Feature value A holds one pattern, B holds two: mean PCR 1.5;
        # pattern 1101 sits under two values, 0101 under one: mean PDR 1.5.
        assert values["mean_pcr"] == 1.5
        assert values["mean_pdr"] == 1.5
        assert values["pcr_of_B"] == 2.0


class TestEventHeatmap:
    def test_buckets_by_region_and_offset(self):
        from repro.analysis.heatmap import event_heatmap
        # Region 0 offsets 0 and 1, region 1 offset 0 (64 lines / region).
        log = [(0.0, "PrefetchUseless", "L1D", 0),
               (1.0, "PrefetchUseless", "L1D", 1),
               (2.0, "PrefetchUseless", "L1D", 64),
               (3.0, "CacheAccess", "L1D", 2)]
        matrix = event_heatmap(log, kind="PrefetchUseless")
        assert matrix.shape == (64, 64)
        assert matrix[0, 0] == 1 and matrix[0, 1] == 1 and matrix[1, 0] == 1
        assert matrix.sum() == 3            # the CacheAccess row is filtered

    def test_unfiltered_counts_everything_and_renders(self):
        from repro.analysis.heatmap import event_heatmap, render_ascii
        log = [(0.0, "CacheAccess", "L1D", i) for i in range(10)]
        matrix = event_heatmap(log)
        assert matrix.sum() == 10
        assert render_ascii(matrix)         # drawable like the Fig 5 maps

    def test_simulated_event_log_feeds_heatmap(self):
        from repro.analysis.heatmap import event_heatmap
        from repro.prefetchers.base import NoPrefetcher
        from repro.sim.hierarchy import Hierarchy
        from repro.sim.observers import EventTrace
        from repro.sim.params import SystemConfig
        h = Hierarchy.build(SystemConfig.default(), NoPrefetcher())
        tracer = EventTrace(h.bus)
        cycle = 0.0
        for i in range(500):
            latency, _ = h.demand_access(i * 64, cycle)
            cycle += latency + 1
        assert event_heatmap(tracer.log, kind="CacheAccess").sum() == \
            tracer.total("CacheAccess")
