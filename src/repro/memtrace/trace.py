"""Trace containers and on-disk formats.

A :class:`Trace` is an ordered list of :class:`MemoryAccess` records plus
metadata (name, benchmark family, seed).  Traces can be saved either as a
compact binary format (numpy-backed, the default for the generated suite)
or as JSONL for inspection.

The container also computes the summary statistics the paper uses to
classify workloads: accesses per kilo-instruction, unique cachelines/regions
touched, and an LLC-miss-proxy MPKI estimated with a small direct-mapped
filter (cheap, deterministic, good enough for Low/Medium/High bucketing).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .access import DEFAULT_REGION_BYTES, MemoryAccess, region_of

_BINARY_MAGIC = b"PMPTRC01"

TraceArrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass
class Trace:
    """An ordered memory-access trace with metadata."""

    name: str
    accesses: list[MemoryAccess] = field(default_factory=list)
    family: str = "synthetic"
    seed: int = 0

    def __len__(self) -> int:
        return len(self.accesses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self.accesses)

    def __getitem__(self, index: int) -> MemoryAccess:
        return self.accesses[index]

    def append(self, access: MemoryAccess) -> None:
        """Append one access."""
        self.accesses.append(access)

    def extend(self, accesses: Iterable[MemoryAccess]) -> None:
        """Append many accesses."""
        self.accesses.extend(accesses)

    @property
    def instruction_count(self) -> int:
        """Total instructions represented (memory ops + gaps)."""
        return sum(a.gap + 1 for a in self.accesses)

    def unique_cachelines(self) -> int:
        """Number of distinct cachelines touched."""
        return len({a.cacheline for a in self.accesses})

    def unique_regions(self, region_bytes: int = DEFAULT_REGION_BYTES) -> int:
        """Number of distinct regions touched."""
        return len({region_of(a.address, region_bytes) for a in self.accesses})

    def footprint_bytes(self) -> int:
        """Approximate data footprint (unique cachelines × 64B)."""
        return self.unique_cachelines() * 64

    def estimated_mpki(self, filter_lines: int = 32768) -> float:
        """Misses-per-kilo-instruction under a direct-mapped line filter.

        A 32K-line direct-mapped filter approximates a 2MB LLC; the paper
        buckets traces into Low (5–10], Medium (10–20], High (>20) MPKI.
        """
        table = np.full(filter_lines, -1, dtype=np.int64)
        misses = 0
        for access in self.accesses:
            line = access.cacheline
            slot = line % filter_lines
            if table[slot] != line:
                misses += 1
                table[slot] = line
        instructions = max(1, self.instruction_count)
        return misses / instructions * 1000.0

    def mpki_class(self, mpki: float | None = None) -> str:
        """Paper's Table VII bucketing: 'low', 'medium', or 'high'."""
        value = self.estimated_mpki() if mpki is None else mpki
        if value <= 10:
            return "low"
        if value <= 20:
            return "medium"
        return "high"

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace covering accesses[start:stop] (shares records)."""
        out = Trace(name=f"{self.name}[{start}:{stop}]", family=self.family, seed=self.seed)
        out.accesses = self.accesses[start:stop]
        return out

    # -------------------------------------------------------- array codecs

    def to_arrays(self) -> TraceArrays:
        """Pack the access stream into four compact numpy arrays.

        The (pcs, addresses, writes, gaps) tuple is the trace's canonical
        wire format: the binary file format, the content hash, and the
        parallel-runner task payloads all build on it.
        """
        pcs = np.fromiter((a.pc for a in self.accesses), dtype=np.uint64, count=len(self))
        addrs = np.fromiter((a.address for a in self.accesses), dtype=np.uint64, count=len(self))
        writes = np.fromiter((a.is_write for a in self.accesses), dtype=np.uint8, count=len(self))
        gaps = np.fromiter((a.gap for a in self.accesses), dtype=np.uint32, count=len(self))
        return pcs, addrs, writes, gaps

    def arrays(self) -> TraceArrays:
        """Memoised :meth:`to_arrays`: the one packing that the fast-path
        scanner, :meth:`content_hash` and the parallel job payloads share.

        Built once per trace and cached; like :meth:`content_hash`, a
        trace whose arrays have been materialised must not be mutated
        afterwards (``simulate()`` reads the stream through this, so the
        cached arrays going stale would desynchronise the fast path from
        ``accesses``).
        """
        cached = getattr(self, "_arrays", None)
        if cached is None or len(cached[0]) != len(self.accesses):
            cached = self.to_arrays()
            self._arrays = cached
        return cached

    @classmethod
    def from_arrays(cls, name: str, arrays: TraceArrays,
                    family: str = "synthetic", seed: int = 0) -> "Trace":
        """Rebuild a trace from :meth:`to_arrays` output."""
        pcs, addrs, writes, gaps = arrays
        trace = cls(name=name, family=family, seed=seed)
        # .tolist() converts to native ints in one C pass — much cheaper
        # than a Python-level int()/bool() per element.
        trace.accesses = [
            MemoryAccess(pc=pc, address=address,
                         is_write=bool(write), gap=gap)
            for pc, address, write, gap in zip(
                pcs.tolist(), addrs.tolist(), writes.tolist(), gaps.tolist())
        ]
        return trace

    def content_hash(self) -> str:
        """SHA-256 over the full access stream plus identifying metadata.

        This is the trace's identity for the persistent result cache: two
        traces with the same hash produce bit-identical simulations.  The
        hash is memoised — traces handed to the experiment engine must not
        be mutated afterwards.
        """
        cached = getattr(self, "_content_hash", None)
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        digest.update(json.dumps({"name": self.name, "family": self.family,
                                  "seed": self.seed,
                                  "length": len(self)}).encode("utf-8"))
        for array in self.arrays():
            digest.update(array.tobytes())
        self._content_hash = digest.hexdigest()
        return self._content_hash

    # ------------------------------------------------------------------ I/O

    def save_binary(self, path: str | Path) -> None:
        """Write the compact numpy-backed binary format."""
        path = Path(path)
        pcs, addrs, writes, gaps = self.to_arrays()
        header = json.dumps({"name": self.name, "family": self.family, "seed": self.seed})
        with path.open("wb") as fh:
            fh.write(_BINARY_MAGIC)
            header_bytes = header.encode("utf-8")
            fh.write(len(header_bytes).to_bytes(4, "little"))
            fh.write(header_bytes)
            fh.write(len(self).to_bytes(8, "little"))
            for array in (pcs, addrs, writes, gaps):
                fh.write(array.tobytes())

    @classmethod
    def load_binary(cls, path: str | Path) -> "Trace":
        """Read a trace written by :meth:`save_binary`."""
        path = Path(path)
        with path.open("rb") as fh:
            magic = fh.read(len(_BINARY_MAGIC))
            if magic != _BINARY_MAGIC:
                raise ValueError(f"{path}: not a PMP trace file")
            header_len = int.from_bytes(fh.read(4), "little")
            meta = json.loads(fh.read(header_len).decode("utf-8"))
            count = int.from_bytes(fh.read(8), "little")
            pcs = np.frombuffer(fh.read(count * 8), dtype=np.uint64)
            addrs = np.frombuffer(fh.read(count * 8), dtype=np.uint64)
            writes = np.frombuffer(fh.read(count * 1), dtype=np.uint8)
            gaps = np.frombuffer(fh.read(count * 4), dtype=np.uint32)
        return cls.from_arrays(meta["name"], (pcs, addrs, writes, gaps),
                               family=meta["family"], seed=meta["seed"])

    def save_jsonl(self, path: str | Path) -> None:
        """Write a human-inspectable JSONL format (one access per line)."""
        path = Path(path)
        with path.open("w") as fh:
            fh.write(json.dumps({"name": self.name, "family": self.family,
                                 "seed": self.seed}) + "\n")
            for a in self.accesses:
                fh.write(json.dumps([a.pc, a.address, int(a.is_write), a.gap]) + "\n")

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "Trace":
        """Read a trace written by :meth:`save_jsonl`."""
        path = Path(path)
        with path.open() as fh:
            meta = json.loads(fh.readline())
            trace = cls(name=meta["name"], family=meta["family"], seed=meta["seed"])
            for line in fh:
                pc, address, is_write, gap = json.loads(line)
                trace.append(MemoryAccess(pc=pc, address=address,
                                          is_write=bool(is_write), gap=gap))
        return trace


def rebase(trace: Trace, slot: int) -> Trace:
    """Shift a trace into a private address-space slot (multi-core runs).

    The paper's multi-programmed mixes run the same traces as separate
    processes: identical virtual addresses must not alias in the shared
    LLC.  Slots are 2^44 bytes apart, far above any generator segment.
    """
    offset = (slot + 1) << 44
    out = Trace(name=f"{trace.name}@{slot}", family=trace.family,
                seed=trace.seed)
    out.accesses = [
        MemoryAccess(pc=a.pc, address=a.address + offset,
                     is_write=a.is_write, gap=a.gap)
        for a in trace.accesses]
    return out


def interleave(traces: Sequence[Trace], chunk: int = 64) -> Trace:
    """Round-robin interleave several traces (used to build mixed workloads)."""
    out = Trace(name="+".join(t.name for t in traces), family="mix")
    cursors = [0] * len(traces)
    remaining = sum(len(t) for t in traces)
    while remaining:
        for i, trace in enumerate(traces):
            take = min(chunk, len(trace) - cursors[i])
            if take <= 0:
                continue
            out.extend(trace.accesses[cursors[i]:cursors[i] + take])
            cursors[i] += take
            remaining -= take
    return out
