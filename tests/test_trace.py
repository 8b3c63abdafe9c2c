"""Trace container, statistics and on-disk formats."""

from repro.memtrace.access import MemoryAccess
from repro.memtrace.trace import Trace


def make_trace(n=100, name="t"):
    trace = Trace(name)
    for i in range(n):
        trace.append(MemoryAccess(pc=0x400 + (i % 4) * 8,
                                  address=0x10000 + i * 64,
                                  is_write=(i % 5 == 0), gap=i % 9))
    return trace


class TestContainer:
    def test_len_iter_getitem(self):
        trace = make_trace(10)
        assert len(trace) == 10
        assert list(trace)[3] == trace[3]

    def test_instruction_count(self):
        trace = Trace("t")
        trace.append(MemoryAccess(pc=1, address=64, gap=9))
        trace.append(MemoryAccess(pc=1, address=128, gap=0))
        assert trace.instruction_count == 11

    def test_unique_counts(self):
        trace = Trace("t")
        for _ in range(3):
            trace.append(MemoryAccess(pc=1, address=0x40))
        trace.append(MemoryAccess(pc=1, address=0x5000))
        assert trace.unique_cachelines() == 2
        assert trace.unique_regions() == 2
        assert trace.footprint_bytes() == 128

    def test_slice(self):
        trace = make_trace(10)
        sub = trace.slice(2, 5)
        assert len(sub) == 3
        assert sub[0] == trace[2]


class TestMPKI:
    def test_repeating_accesses_have_low_mpki(self):
        trace = Trace("hot")
        for i in range(5000):
            trace.append(MemoryAccess(pc=1, address=(i % 8) * 64, gap=10))
        assert trace.estimated_mpki() < 1.0

    def test_streaming_accesses_have_high_mpki(self):
        trace = Trace("cold")
        for i in range(5000):
            trace.append(MemoryAccess(pc=1, address=i * 64, gap=10))
        assert trace.estimated_mpki() > 20

    def test_class_boundaries(self):
        trace = Trace("x")
        assert trace.mpki_class(7.0) == "low"
        assert trace.mpki_class(15.0) == "medium"
        assert trace.mpki_class(25.0) == "high"


class TestIO:
    def test_binary_roundtrip(self, tmp_path):
        trace = make_trace(64)
        path = tmp_path / "trace.bin"
        trace.save_binary(path)
        loaded = Trace.load_binary(path)
        assert loaded.name == trace.name
        assert loaded.accesses == trace.accesses

    def test_pickles_as_its_packed_arrays(self):
        import pickle
        trace = make_trace(64, name="p")
        trace.family, trace.seed = "fam", 7
        loaded = pickle.loads(pickle.dumps(trace))
        assert (loaded.name, loaded.family, loaded.seed) == ("p", "fam", 7)
        assert loaded.accesses == trace.accesses
        assert loaded.content_hash() == trace.content_hash()

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTATRACE" * 4)
        import pytest
        with pytest.raises(ValueError):
            Trace.load_binary(path)


class TestRebase:
    def test_rebase_shifts_into_private_slot(self):
        from repro.memtrace.trace import rebase
        trace = make_trace(10)
        shifted = rebase(trace, slot=2)
        assert shifted.name.endswith("@2")
        offset = 3 << 44
        for original, moved in zip(trace.accesses, shifted.accesses):
            assert moved.address == original.address + offset
            assert moved.pc == original.pc
            assert moved.gap == original.gap

    def test_rebased_slots_never_alias(self):
        from repro.memtrace.trace import rebase
        trace = make_trace(50)
        a = {x.cacheline for x in rebase(trace, 0).accesses}
        b = {x.cacheline for x in rebase(trace, 1).accesses}
        assert not a & b
