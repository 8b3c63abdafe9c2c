"""ChampSim trace format adapter."""

import io
import lzma

import numpy as np
import pytest

from repro.memtrace import synthetic as syn
from repro.memtrace.access import MemoryAccess
from repro.memtrace.champsim import (
    RECORD_BYTES,
    ChampSimFormatError,
    iter_records,
    pack_record,
    read_champsim,
    resolve_sources,
    roundtrip,
    write_champsim,
)
from repro.memtrace.trace import Trace


class TestRecordFormat:
    def test_record_is_64_bytes(self):
        assert len(pack_record(0x400000)) == RECORD_BYTES == 64

    def test_operand_limits(self):
        with pytest.raises(ValueError):
            pack_record(0, destination_memory=(1, 2, 3))
        with pytest.raises(ValueError):
            pack_record(0, source_memory=(1, 2, 3, 4, 5))

    def test_iter_records_parses_operands(self):
        stream = io.BytesIO(
            pack_record(0x400, source_memory=(0x1000, 0x2000)) +
            pack_record(0x404, destination_memory=(0x3000,)) +
            pack_record(0x408))
        records = list(iter_records(stream))
        assert records == [(0x400, [0x1000, 0x2000], []),
                           (0x404, [], [0x3000]),
                           (0x408, [], [])]

    def test_truncated_record_rejected(self):
        stream = io.BytesIO(b"\x00" * 30)
        with pytest.raises(ValueError):
            list(iter_records(stream))


class _DribbleStream(io.BytesIO):
    """Returns at most `drip` bytes per read — a compressed-stream stand-in."""

    def __init__(self, data: bytes, drip: int) -> None:
        super().__init__(data)
        self.drip = drip
        self.reads = 0
        self.bytes_served = 0

    def read(self, size=-1):
        self.reads += 1
        chunk = super().read(min(size, self.drip) if size and size > 0
                             else self.drip)
        self.bytes_served += len(chunk)
        return chunk


class TestFormatErrors:
    def test_error_carries_source_and_offsets(self):
        stream = io.BytesIO(pack_record(0x400) + b"\x00" * 17)
        with pytest.raises(ChampSimFormatError) as excinfo:
            list(iter_records(stream, source="bad.trace"))
        err = excinfo.value
        assert err.source == "bad.trace"
        assert err.record_index == 1
        assert err.byte_offset == RECORD_BYTES
        assert "bad.trace" in str(err) and "record 1" in str(err)

    def test_format_error_is_a_value_error(self):
        assert issubclass(ChampSimFormatError, ValueError)

    def test_truncated_file_names_the_path(self, tmp_path):
        path = tmp_path / "cut.champsim"
        path.write_bytes(pack_record(0x1, source_memory=(0x40,)) + b"\xff" * 5)
        with pytest.raises(ChampSimFormatError) as excinfo:
            read_champsim(path)
        assert excinfo.value.source == str(path)

    def test_short_reads_are_accumulated(self):
        data = b"".join(pack_record(0x400, source_memory=(i * 64,))
                        for i in range(1, 6))
        stream = _DribbleStream(data, drip=7)
        records = list(iter_records(stream))
        assert [r[1] for r in records] == [[i * 64] for i in range(1, 6)]

    def test_decode_is_bounded_by_the_window(self):
        # 1000 records on disk, a 10-instruction window: the decoder must
        # stop pulling bytes right after the window instead of draining
        # the stream (the property that makes 200M-instruction traces
        # affordable).
        data = b"".join(pack_record(0x400, source_memory=(i * 64,))
                        for i in range(1, 1001))
        stream = _DribbleStream(data, drip=RECORD_BYTES)
        trace = read_champsim(stream, skip_instructions=2,
                              max_instructions=10)
        assert len(trace) == 10
        # skip(2) + window(10) + the one look-ahead record that exceeds
        # the window, plus the empty read iter_records never issues here.
        assert stream.bytes_served <= 13 * RECORD_BYTES


class TestXz:
    def test_xz_paths_decompress_transparently(self, tmp_path):
        records = b"".join(pack_record(0x400, source_memory=(i * 64,))
                           for i in range(1, 8))
        path = tmp_path / "trace.champsimtrace.xz"
        with lzma.open(path, "wb") as fh:
            fh.write(records)
        trace = read_champsim(path)
        assert [a.address for a in trace.accesses] == \
            [i * 64 for i in range(1, 8)]

    def test_truncated_xz_payload_rejected(self, tmp_path):
        path = tmp_path / "cut.xz"
        with lzma.open(path, "wb") as fh:
            fh.write(pack_record(0x1) + b"\x00" * 10)
        with pytest.raises(ChampSimFormatError):
            read_champsim(path)


class TestResolveSources:
    def test_single_file(self, tmp_path):
        path = tmp_path / "a.champsim"
        path.write_bytes(pack_record(0x1))
        assert resolve_sources(path) == [path]

    def test_directory_expands_sorted(self, tmp_path):
        for name in ("b.trace", "a.champsim", "notes.txt"):
            (tmp_path / name).write_bytes(b"")
        files = resolve_sources(tmp_path)
        assert [p.name for p in files] == ["a.champsim", "b.trace"]

    def test_glob_expands(self, tmp_path):
        for name in ("m1.trace", "m2.trace", "other.bin"):
            (tmp_path / name).write_bytes(b"")
        files = resolve_sources(tmp_path / "m*.trace")
        assert [p.name for p in files] == ["m1.trace", "m2.trace"]

    def test_relative_paths_anchor_at_base_dir(self, tmp_path):
        (tmp_path / "t.trace").write_bytes(b"")
        assert resolve_sources("t.trace", base_dir=tmp_path) == \
            [tmp_path / "t.trace"]

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ChampSimFormatError):
            resolve_sources(tmp_path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ChampSimFormatError):
            resolve_sources(tmp_path / "nope.trace")


class TestConversion:
    def test_gaps_accumulate_nonmemory_instructions(self):
        stream = io.BytesIO(
            pack_record(0x1) + pack_record(0x2) + pack_record(0x3) +
            pack_record(0x400, source_memory=(0x1000,)))
        trace = read_champsim(stream)
        assert len(trace) == 1
        assert trace[0].gap == 3
        assert trace[0].pc == 0x400 and not trace[0].is_write

    def test_stores_marked_as_writes(self):
        stream = io.BytesIO(pack_record(0x400, destination_memory=(0x1000,)))
        trace = read_champsim(stream)
        assert trace[0].is_write

    def test_multi_operand_instruction(self):
        stream = io.BytesIO(pack_record(
            0x400, source_memory=(0x1000, 0x2000), destination_memory=(0x3000,)))
        trace = read_champsim(stream)
        assert len(trace) == 3
        assert trace[0].gap == 0 and trace[1].gap == 0

    def test_window_selection(self):
        records = b"".join(pack_record(0x400, source_memory=(i * 64,))
                           for i in range(1, 11))
        trace = read_champsim(io.BytesIO(records), skip_instructions=3,
                              max_instructions=4)
        assert [a.address for a in trace.accesses] == [4 * 64, 5 * 64,
                                                       6 * 64, 7 * 64]

    def test_file_path_roundtrip(self, tmp_path):
        trace = Trace("t")
        trace.append(MemoryAccess(pc=0x400, address=0x1000, gap=2))
        path = tmp_path / "trace.champsim"
        written = write_champsim(trace, path)
        assert written == 3  # 2 filler + 1 memory record
        assert path.stat().st_size == 3 * RECORD_BYTES
        loaded = read_champsim(path)
        assert loaded.accesses == trace.accesses


class TestRoundtrip:
    def test_synthetic_trace_roundtrips(self):
        rng = np.random.default_rng(0)
        trace = Trace.from_arrays("s", syn.pattern_replay(rng, 500))
        back = roundtrip(trace)
        assert back.accesses == trace.accesses

    def test_roundtrip_preserves_instruction_count(self):
        rng = np.random.default_rng(1)
        trace = Trace.from_arrays("s", syn.stream(rng, 200))
        back = roundtrip(trace)
        assert back.instruction_count == trace.instruction_count

    def test_converted_trace_simulates(self):
        from repro import PMP
        from repro.sim.engine import simulate
        rng = np.random.default_rng(2)
        trace = Trace.from_arrays("s", syn.stream(rng, 3000))
        back = roundtrip(trace)
        result = simulate(back, PMP())
        assert result.ipc > 0
