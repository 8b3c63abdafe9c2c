"""Memory access records and region/offset arithmetic.

An access carries the program counter of the load/store, the byte address
it touches, whether it is a store, and the number of non-memory
instructions retired since the previous memory access (``gap``), which the
timing model uses to charge pipeline cycles between memory operations.  A
:class:`MemoryAccess` is that ``(pc, address, is_write, gap)`` row with
named fields; a :class:`~repro.memtrace.trace.Trace` stores its rows as
four columns and builds records only when asked for one.

Addresses are decomposed the same way the paper does: a *region* is an
aligned block of memory (4KB by default, matching pages), a *cacheline* is
64 bytes, and the *offset* of an access is the index of its cacheline within
its region (0..63 for 4KB regions).  The offset of the first access to a
region is the paper's *trigger offset*.
"""

from __future__ import annotations

from typing import NamedTuple

CACHELINE_BYTES = 64
CACHELINE_BITS = 6
DEFAULT_REGION_BYTES = 4096
PAGE_BYTES = 4096


class MemoryAccess(NamedTuple):
    """One memory instruction in a trace: a ``(pc, address, is_write, gap)``
    row with named fields.

    Attributes:
        pc: program counter of the load/store instruction.
        address: byte address accessed.
        is_write: True for stores; prefetchers in this repo train on loads,
            matching the paper ("The training process performs on L1D loads").
        gap: non-memory instructions retired since the previous access.
    """

    pc: int
    address: int
    is_write: bool = False
    gap: int = 0

    @property
    def cacheline(self) -> int:
        """Cacheline-granular address (byte address >> 6)."""
        return self.address >> CACHELINE_BITS

    def region(self, region_bytes: int = DEFAULT_REGION_BYTES) -> int:
        """Aligned region base address containing this access."""
        return self.address & ~(region_bytes - 1)

    def offset(self, region_bytes: int = DEFAULT_REGION_BYTES) -> int:
        """Cacheline offset of this access within its region."""
        return (self.address & (region_bytes - 1)) >> CACHELINE_BITS


def region_of(address: int, region_bytes: int = DEFAULT_REGION_BYTES) -> int:
    """Aligned region base for a byte address."""
    return address & ~(region_bytes - 1)


def offset_of(address: int, region_bytes: int = DEFAULT_REGION_BYTES) -> int:
    """Cacheline offset of a byte address within its region."""
    return (address & (region_bytes - 1)) >> CACHELINE_BITS


def lines_per_region(region_bytes: int = DEFAULT_REGION_BYTES) -> int:
    """Number of cachelines in a region — the paper's pattern length."""
    if region_bytes % CACHELINE_BYTES != 0:
        raise ValueError(f"region size {region_bytes} not a multiple of {CACHELINE_BYTES}")
    return region_bytes // CACHELINE_BYTES


def line_address(region: int, offset: int) -> int:
    """Byte address of cacheline `offset` inside `region`."""
    return region + (offset << CACHELINE_BITS)


def hash_pc(pc: int, bits: int) -> int:
    """Fold a PC down to `bits` bits the way small hardware tables do.

    XOR-folds successive `bits`-wide chunks of the PC so that high bits
    still influence the index (a plain mask would alias all loads in a
    small code footprint onto their low bits only).
    """
    mask = (1 << bits) - 1
    value = pc >> 2  # instruction alignment carries no information
    folded = 0
    while value:
        folded ^= value & mask
        value >>= bits
    return folded & mask
