"""SMS pattern capture framework (Section II-B) and rotation helpers."""

from hypothesis import given, strategies as st

from repro.prefetchers.sms import (
    CapturedPattern,
    PatternCaptureFramework,
    SetAssociativeTable,
    rotate_left,
    rotate_right,
)

REGION = 0x1000_0000  # 4KB-aligned


def line_addr(region, offset):
    return region + offset * 64


class TestRotation:
    def test_anchor_moves_trigger_to_bit_zero(self):
        bits = (1 << 5) | (1 << 9)
        anchored = rotate_left(bits, 5, 64)
        assert anchored & 1
        assert anchored >> 4 & 1  # offset 9 -> index 4

    def test_wraparound(self):
        bits = 1 << 2
        anchored = rotate_left(bits, 5, 8)
        assert anchored == 1 << 5  # (2 - 5) mod 8

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=63))
    def test_rotate_roundtrip(self, bits, amount):
        assert rotate_right(rotate_left(bits, amount, 64), amount, 64) == bits

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=63))
    def test_rotation_preserves_popcount(self, bits, amount):
        assert rotate_left(bits, amount, 64).bit_count() == bits.bit_count()


class TestSetAssociativeTable:
    def test_insert_and_get(self):
        table = SetAssociativeTable(2, 2)
        table.insert(REGION, "a")
        assert table.get(REGION) == "a"

    def test_lru_eviction(self):
        table = SetAssociativeTable(1, 2)
        table.insert(0 << 12, "a")
        table.insert(1 << 12, "b")
        table.get(0 << 12)  # touch: a becomes MRU
        victim = table.insert(2 << 12, "c")
        assert victim == (1 << 12, "b")

    def test_len_counts_all_sets(self):
        table = SetAssociativeTable(4, 2)
        for i in range(6):
            table.insert(i << 12, i)
        assert len(table) == 6

    def test_rejects_empty_geometry(self):
        import pytest
        with pytest.raises(ValueError):
            SetAssociativeTable(0, 4)


class TestCaptureFlow:
    def test_first_access_is_trigger(self):
        capture = PatternCaptureFramework()
        is_trigger, offset, completed = capture.observe(0x400, line_addr(REGION, 7))
        assert is_trigger and offset == 7 and completed == []

    def test_second_access_promotes_to_accumulation(self):
        capture = PatternCaptureFramework()
        capture.observe(0x400, line_addr(REGION, 7))
        is_trigger, _, _ = capture.observe(0x400, line_addr(REGION, 9))
        assert not is_trigger
        assert REGION in capture.accumulation_table

    def test_same_offset_stays_in_filter(self):
        capture = PatternCaptureFramework()
        capture.observe(0x400, line_addr(REGION, 7))
        capture.observe(0x400, line_addr(REGION, 7))
        assert REGION not in capture.accumulation_table
        assert REGION in capture.filter_table

    def test_accumulation_records_all_offsets(self):
        capture = PatternCaptureFramework()
        for offset in (3, 5, 8, 13):
            capture.observe(0x400, line_addr(REGION, offset))
        pattern = capture.end_region(REGION)
        assert pattern is not None
        assert pattern.offsets() == [3, 5, 8, 13]
        assert pattern.trigger_offset == 3

    def test_end_region_on_filter_only_returns_nothing(self):
        capture = PatternCaptureFramework()
        capture.observe(0x400, line_addr(REGION, 3))
        assert capture.end_region(REGION) is None
        assert REGION not in capture.filter_table

    def test_capacity_eviction_completes_pattern(self):
        capture = PatternCaptureFramework(at_sets=1, at_ways=2)
        for i in range(3):
            region = REGION + i * 4096
            capture.observe(0x400, line_addr(region, 0))
            _, _, completed = capture.observe(0x400, line_addr(region, 1))
            if i < 2:
                assert completed == []
        assert len(completed) == 1
        assert completed[0].region == REGION

    def test_drain_flushes_everything(self):
        capture = PatternCaptureFramework()
        for i in range(4):
            region = REGION + i * 4096
            capture.observe(0x400, line_addr(region, 0))
            capture.observe(0x400, line_addr(region, 2))
        patterns = capture.drain()
        assert len(patterns) == 4
        assert len(capture.accumulation_table) == 0

    def test_anchored_bit_zero_always_set(self):
        capture = PatternCaptureFramework()
        for offset in (11, 13, 60):
            capture.observe(0x400, line_addr(REGION, offset))
        pattern = capture.end_region(REGION)
        assert pattern.anchored() & 1

    def test_region_generation_restarts_after_end(self):
        capture = PatternCaptureFramework()
        capture.observe(0x400, line_addr(REGION, 1))
        capture.observe(0x400, line_addr(REGION, 2))
        capture.end_region(REGION)
        is_trigger, offset, _ = capture.observe(0x400, line_addr(REGION, 5))
        assert is_trigger and offset == 5


def test_captured_pattern_offsets_roundtrip():
    pattern = CapturedPattern(region=REGION, pc=0x400, trigger_offset=2,
                              bit_vector=(1 << 2) | (1 << 9), length=64)
    assert pattern.offsets() == [2, 9]
    assert pattern.anchored() == (1 << 0) | (1 << 7)
