"""ChampSim trace adapter: run the real DPC/Pythia traces on this simulator.

The paper's evaluation inputs are ChampSim instruction traces (DPC-2/DPC-3
SPEC traces and the Pythia artifact's Ligra/PARSEC traces).  They are not
redistributable, but users who hold them can convert with this module and
drive every experiment in this repo on the authors' actual inputs.

ChampSim's trace format is a flat stream of fixed-size little-endian
records (one per instruction)::

    uint64 ip;                      // program counter
    uint8  is_branch, branch_taken;
    uint8  destination_registers[2];
    uint8  source_registers[4];
    uint64 destination_memory[2];   // store addresses (0 = unused)
    uint64 source_memory[4];        // load addresses  (0 = unused)

i.e. 8 + 2 + 2 + 4 + 16 + 32 = 64 bytes per record.  Traces ship
xz-compressed; ``.xz`` paths are opened through :mod:`lzma`
automatically (or pass any binary file object yourself).

Conversion policy: each memory operand becomes one access row;
instructions without memory operands accumulate into the next access's
``gap`` (the non-memory instruction count the timing model charges).

Decoding is streaming and bounded-memory: records are consumed one
64-byte chunk at a time and windowed reads (``skip_instructions`` /
``max_instructions`` / ``max_accesses``) stop pulling bytes at the
window's end, so a 200M-instruction trace costs only its window.
Malformed inputs raise a structured :class:`ChampSimFormatError` (a
:class:`ValueError`) carrying the source name, byte offset and record
index of the defect.
"""

from __future__ import annotations

import io
import lzma
import struct
from pathlib import Path
from typing import BinaryIO, Iterator

from .trace import Row, Trace

RECORD_BYTES = 64
_RECORD = struct.Struct("<Q2B2B4B2Q4Q")

NUM_DESTINATION_MEMORY = 2
NUM_SOURCE_MEMORY = 4

# Path suffixes recognised by directory ingestion (resolve_sources).
TRACE_SUFFIXES = (".champsim", ".champsimtrace", ".trace", ".xz", ".bin")


class ChampSimFormatError(ValueError):
    """A ChampSim input stream is truncated or structurally corrupt."""

    def __init__(self, message: str, *, source: str = "<stream>",
                 record_index: int | None = None,
                 byte_offset: int | None = None) -> None:
        self.source = source
        self.record_index = record_index
        self.byte_offset = byte_offset
        context = source
        if record_index is not None:
            context += f", record {record_index}"
        if byte_offset is not None:
            context += f", byte {byte_offset}"
        super().__init__(f"{context}: {message}")


def open_champsim(path: str | Path) -> BinaryIO:
    """Open a trace file for reading, decompressing ``.xz`` transparently."""
    path = Path(path)
    if path.suffix == ".xz":
        return lzma.open(path, "rb")
    return path.open("rb")


def resolve_sources(path: str | Path,
                    base_dir: str | Path | None = None) -> list[Path]:
    """Expand a scenario's champsim source path into concrete trace files.

    ``path`` may be a single file, a directory (every file with a
    recognised trace suffix, sorted), or a glob pattern.  Relative paths
    resolve against ``base_dir`` (the catalog directory for catalog
    scenarios).  This is the bulk-ingestion front door: a directory of
    DPC traces becomes one workload per file.
    """
    raw = Path(path)
    if not raw.is_absolute() and base_dir is not None:
        raw = Path(base_dir) / raw
    if raw.is_dir():
        files = sorted(p for p in raw.iterdir()
                       if p.is_file() and p.suffix in TRACE_SUFFIXES)
        if not files:
            raise ChampSimFormatError(
                "directory holds no trace files "
                f"(recognised suffixes: {', '.join(TRACE_SUFFIXES)})",
                source=str(raw))
        return files
    if any(ch in raw.name for ch in "*?["):
        files = sorted(raw.parent.glob(raw.name))
        if not files:
            raise ChampSimFormatError("glob matched no trace files",
                                      source=str(raw))
        return files
    if not raw.is_file():
        raise ChampSimFormatError("no such trace file", source=str(raw))
    return [raw]


def pack_record(ip: int, *, is_branch: bool = False, branch_taken: bool = False,
                destination_memory: tuple[int, ...] = (),
                source_memory: tuple[int, ...] = ()) -> bytes:
    """Build one 64-byte ChampSim record (used by the writer and tests)."""
    if len(destination_memory) > NUM_DESTINATION_MEMORY:
        raise ValueError("at most 2 destination memory operands")
    if len(source_memory) > NUM_SOURCE_MEMORY:
        raise ValueError("at most 4 source memory operands")
    dmem = list(destination_memory) + [0] * (NUM_DESTINATION_MEMORY -
                                             len(destination_memory))
    smem = list(source_memory) + [0] * (NUM_SOURCE_MEMORY - len(source_memory))
    return _RECORD.pack(ip, int(is_branch), int(branch_taken),
                        0, 0, 0, 0, 0, 0, *dmem, *smem)


def iter_records(stream: BinaryIO, *, source: str = "<stream>",
                 ) -> Iterator[tuple[int, list[int], list[int]]]:
    """Yield (ip, load addresses, store addresses) per instruction record.

    Streams one record at a time (bounded memory regardless of input
    size) and raises :class:`ChampSimFormatError` on a truncated tail or
    a record the struct layer rejects.
    """
    index = 0
    while True:
        chunk = stream.read(RECORD_BYTES)
        if not chunk:
            return
        # Compressed streams may return short reads mid-file; keep
        # pulling until the record is complete or the stream truly ends.
        while len(chunk) < RECORD_BYTES:
            more = stream.read(RECORD_BYTES - len(chunk))
            if not more:
                raise ChampSimFormatError(
                    f"truncated record ({len(chunk)} of {RECORD_BYTES} "
                    "bytes)", source=source, record_index=index,
                    byte_offset=index * RECORD_BYTES)
            chunk += more
        try:
            fields = _RECORD.unpack(chunk)
        except struct.error as exc:  # pragma: no cover — 64B always unpacks
            raise ChampSimFormatError(f"undecodable record: {exc}",
                                      source=source, record_index=index,
                                      byte_offset=index * RECORD_BYTES,
                                      ) from exc
        ip = fields[0]
        dmem = [a for a in fields[8:10] if a]
        smem = [a for a in fields[10:14] if a]
        yield ip, smem, dmem
        index += 1


def read_champsim(source: str | Path | BinaryIO, *, name: str = "champsim",
                  max_instructions: int | None = None,
                  skip_instructions: int = 0,
                  max_accesses: int | None = None) -> Trace:
    """Convert a ChampSim trace (raw records) into a :class:`Trace`.

    ``skip_instructions`` / ``max_instructions`` select a window the way
    the paper does (50M warmup + 200M measured), and ``max_accesses``
    keeps only the window's first accesses; decoding stops pulling bytes
    once the window is satisfied.  ``.xz`` paths are decompressed
    automatically.
    """
    if isinstance(source, (str, Path)):
        stream: BinaryIO = open_champsim(source)
        close = True
        label = str(source)
    else:
        stream, close = source, False
        label = getattr(source, "name", "<stream>") or "<stream>"
    try:
        rows: list[Row] = []
        gap = 0
        seen = 0
        for ip, loads, stores in iter_records(stream, source=str(label)):
            seen += 1
            if seen <= skip_instructions:
                continue
            if max_instructions is not None and \
                    seen > skip_instructions + max_instructions:
                break
            operands = [(addr, False) for addr in loads] + \
                       [(addr, True) for addr in stores]
            if not operands:
                gap += 1
                continue
            # The instruction itself plus accumulated non-memory work is
            # charged to its first operand; extra operands are free.
            for address, is_write in operands:
                rows.append((ip, address, is_write, gap))
                gap = 0
            if max_accesses is not None and len(rows) >= max_accesses:
                del rows[max_accesses:]
                break
        trace = Trace(name=name, family="champsim")
        trace.extend(rows)
        return trace
    finally:
        if close:
            stream.close()


def write_champsim(trace: Trace, destination: str | Path | BinaryIO) -> int:
    """Write a :class:`Trace` as ChampSim records; returns instructions written.

    Each access becomes one record with the operand in the load (or store)
    slot, preceded by ``gap`` no-memory filler records — the inverse of
    :func:`read_champsim`, enabling round-trips and letting this repo's
    synthetic workloads drive the real ChampSim.
    """
    if isinstance(destination, (str, Path)):
        stream: BinaryIO = open(destination, "wb")
        close = True
    else:
        stream, close = destination, False
    written = 0
    try:
        for pc, address, is_write, gap in zip(trace.pcs, trace.addresses,
                                              trace.writes, trace.gaps):
            for _ in range(gap):
                stream.write(pack_record(pc))
                written += 1
            if is_write:
                stream.write(pack_record(pc, destination_memory=(address,)))
            else:
                stream.write(pack_record(pc, source_memory=(address,)))
            written += 1
        return written
    finally:
        if close:
            stream.close()


def roundtrip(trace: Trace) -> Trace:
    """write_champsim → read_champsim in memory (testing/validation)."""
    buffer = io.BytesIO()
    write_champsim(trace, buffer)
    buffer.seek(0)
    return read_champsim(buffer, name=trace.name)
