"""Trace containers and on-disk formats.

A :class:`Trace` is an ordered access stream plus metadata (name,
benchmark family, seed).  It stores the stream as four parallel columns,
``pcs``, ``addresses``, ``writes`` and ``gaps``: the simulator's access
loop, the content hash and the packed wire format all read columns, so a
:class:`MemoryAccess` record is built only when one is asked for.  Traces
are saved in a compact numpy-backed binary format, and pickle as their
packed arrays.

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
from typing import Iterable, Iterator

import numpy as np

from .access import CACHELINE_BITS, DEFAULT_REGION_BYTES, MemoryAccess

_BINARY_MAGIC = b"PMPTRC01"

TraceArrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: One access as a ``(pc, address, is_write, gap)`` row; a
#: :class:`MemoryAccess` is one.
Row = tuple[int, int, bool, int]


@dataclass
class Trace:
    """An ordered memory-access trace with metadata, stored as columns.

    ``pcs``, ``addresses`` and ``gaps`` hold ints and ``writes`` holds
    bools, one entry per access.  Change them only through
    :meth:`append` and :meth:`extend`, which also drop the memoised
    :meth:`arrays` and :meth:`content_hash`.
    """

    name: str
    family: str = "synthetic"
    seed: int = 0
    pcs: list[int] = field(default_factory=list, repr=False)
    addresses: list[int] = field(default_factory=list, repr=False)
    writes: list[bool] = field(default_factory=list, repr=False)
    gaps: list[int] = field(default_factory=list, repr=False)
    _arrays: TraceArrays | None = field(default=None, init=False,
                                        repr=False, compare=False)
    _content_hash: str | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return map(MemoryAccess, self.pcs, self.addresses, self.writes,
                   self.gaps)

    def __getitem__(self, index: int) -> MemoryAccess:
        return MemoryAccess(self.pcs[index], self.addresses[index],
                            self.writes[index], self.gaps[index])

    @property
    def accesses(self) -> list[MemoryAccess]:
        """The stream as records, built afresh on every call."""
        return list(self)

    def append(self, access: Row) -> None:
        """Append one ``(pc, address, is_write, gap)`` row."""
        self.extend((access,))

    def extend(self, rows: Iterable[Row]) -> None:
        """Append many ``(pc, address, is_write, gap)`` rows."""
        columns = tuple(zip(*rows))
        if not columns:
            return
        pcs, addresses, writes, gaps = columns
        self.pcs.extend(pcs)
        self.addresses.extend(addresses)
        self.writes.extend(map(bool, writes))
        self.gaps.extend(gaps)
        self._arrays = self._content_hash = None

    @property
    def instruction_count(self) -> int:
        """Total instructions represented (memory ops + gaps)."""
        return len(self) + sum(self.gaps)

    def unique_cachelines(self) -> int:
        """Number of distinct cachelines touched."""
        return len({address >> CACHELINE_BITS for address in self.addresses})

    def unique_regions(self, region_bytes: int = DEFAULT_REGION_BYTES) -> int:
        """Number of distinct regions touched."""
        mask = ~(region_bytes - 1)
        return len({address & mask for address in self.addresses})

    def footprint_bytes(self) -> int:
        """Approximate data footprint (unique cachelines × 64B)."""
        return self.unique_cachelines() * 64

    def estimated_mpki(self, filter_lines: int = 32768) -> float:
        """Misses-per-kilo-instruction under a direct-mapped line filter.

        A 32K-line direct-mapped filter approximates a 2MB LLC; the paper
        buckets traces into Low (5–10], Medium (10–20], High (>20) MPKI.
        """
        table = [-1] * filter_lines
        misses = 0
        for address in self.addresses:
            line = address >> CACHELINE_BITS
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

    # -------------------------------------------------------- array codecs

    def to_arrays(self) -> TraceArrays:
        """Pack the four columns into compact numpy arrays.

        The (pcs, addresses, writes, gaps) tuple is the trace's canonical
        wire format: the binary file format, the content hash, and the
        pickled form (:meth:`__reduce__`) all build on it.
        """
        return (np.array(self.pcs, dtype=np.uint64),
                np.array(self.addresses, dtype=np.uint64),
                np.array(self.writes, dtype=np.uint8),
                np.array(self.gaps, dtype=np.uint32))

    def arrays(self) -> TraceArrays:
        """Memoised :meth:`to_arrays`: the one packing that the fast-path
        scanner, :meth:`content_hash`, :meth:`save_binary` and the pickled
        form share.  :meth:`append` and :meth:`extend` drop the memo."""
        if self._arrays is None:
            self._arrays = self.to_arrays()
        return self._arrays

    @classmethod
    def from_arrays(cls, name: str, arrays: TraceArrays,
                    family: str = "synthetic", seed: int = 0) -> "Trace":
        """Rebuild a trace from :meth:`to_arrays` output."""
        pcs, addresses, writes, gaps = arrays
        # .tolist() converts each column to native ints (and bools) in one
        # C pass.
        return cls(name=name, family=family, seed=seed, pcs=pcs.tolist(),
                   addresses=addresses.tolist(),
                   writes=writes.astype(bool).tolist(), gaps=gaps.tolist())

    def __reduce__(self):
        """Pickle as the packed arrays that :meth:`content_hash` already
        built, which a worker unpacks with one ``.tolist()`` per column."""
        return (Trace.from_arrays,
                (self.name, self.arrays(), self.family, self.seed))

    def content_hash(self) -> str:
        """SHA-256 over the full access stream plus identifying metadata.

        This is the trace's identity for the persistent result cache: two
        traces with the same hash produce bit-identical simulations.  The
        hash is memoised; :meth:`append` and :meth:`extend` drop the memo.
        """
        if self._content_hash is not None:
            return self._content_hash
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
        pcs, addrs, writes, gaps = self.arrays()
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
        """Read a trace written by :meth:`save_binary`.

        Raises ``ValueError`` on a file that is not one, or that ends
        before the access count in its header says it should.
        """
        path = Path(path)

        def read(fh, size: int) -> bytes:
            data = fh.read(size)
            if len(data) != size:
                raise ValueError(f"{path}: truncated PMP trace file")
            return data

        with path.open("rb") as fh:
            magic = fh.read(len(_BINARY_MAGIC))
            if magic != _BINARY_MAGIC:
                raise ValueError(f"{path}: not a PMP trace file")
            header_len = int.from_bytes(read(fh, 4), "little")
            meta = json.loads(read(fh, header_len).decode("utf-8"))
            count = int.from_bytes(read(fh, 8), "little")
            pcs = np.frombuffer(read(fh, count * 8), dtype=np.uint64)
            addrs = np.frombuffer(read(fh, count * 8), dtype=np.uint64)
            writes = np.frombuffer(read(fh, count * 1), dtype=np.uint8)
            gaps = np.frombuffer(read(fh, count * 4), dtype=np.uint32)
        return cls.from_arrays(meta["name"], (pcs, addrs, writes, gaps),
                               family=meta["family"], seed=meta["seed"])


def rebase(trace: Trace, slot: int) -> Trace:
    """Shift a trace into a private address-space slot (multi-core runs).

    The paper's multi-programmed mixes run the same traces as separate
    processes: identical virtual addresses must not alias in the shared
    LLC.  Slots are 2^44 bytes apart, far above any generator segment.
    """
    offset = (slot + 1) << 44
    return Trace(name=f"{trace.name}@{slot}", family=trace.family,
                 seed=trace.seed, pcs=list(trace.pcs),
                 addresses=[address + offset for address in trace.addresses],
                 writes=list(trace.writes), gaps=list(trace.gaps))
