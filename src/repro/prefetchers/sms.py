"""SMS-style pattern capture framework (paper Section II-B).

The framework is the front end PMP, Bingo, DSPatch, Gaze, Design B and
the motivation analyses all share.  It watches L1D loads and produces one *bit-vector
pattern* per region generation:

1. the first access to a region allocates a **Filter Table** (FT) entry
   recording the PC and the *trigger offset*;
2. a second access at a different offset promotes the region to the
   **Accumulation Table** (AT) with a two-bit pattern;
3. further accesses set more bits;
4. the pattern completes when the region's data leaves the cache (we hook
   L1D evictions) or when its AT entry is evicted for capacity.

Completed patterns are delivered to the owner as :class:`CapturedPattern`
records.  Bit vectors are Python ints (bit ``i`` = offset ``i`` accessed).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memtrace.access import CACHELINE_BITS, lines_per_region


@dataclass(frozen=True, slots=True)
class CapturedPattern:
    """One completed region generation."""

    region: int
    pc: int
    trigger_offset: int
    bit_vector: int
    length: int

    def offsets(self) -> list[int]:
        """Accessed offsets, ascending."""
        return [i for i in range(self.length) if self.bit_vector >> i & 1]

    def anchored(self) -> int:
        """Bit vector left-circular-shifted by the trigger offset.

        After anchoring, bit 0 is always set (the trigger itself) and bit
        ``i`` means "offset trigger+i (mod length) was accessed" — the form
        PMP's counter vectors merge (Fig 6a).
        """
        return rotate_left(self.bit_vector, self.trigger_offset, self.length)


def rotate_left(bits: int, amount: int, length: int) -> int:
    """Left circular shift of a `length`-bit vector.

    Anchoring convention: ``rotate_left(bv, trigger)`` moves the trigger
    bit to position 0, so anchored position i corresponds to absolute
    offset (trigger + i) mod length.
    """
    amount %= length
    mask = (1 << length) - 1
    return ((bits >> amount) | (bits << (length - amount))) & mask


def rotate_right(bits: int, amount: int, length: int) -> int:
    """Inverse of :func:`rotate_left`."""
    return rotate_left(bits, length - (amount % length), length)


class SetAssociativeTable:
    """Small LRU set-associative table keyed by an integer (region address)."""

    def __init__(self, sets: int, ways: int) -> None:
        if sets <= 0 or ways <= 0:
            raise ValueError("sets and ways must be positive")
        self.sets = sets
        self.ways = ways
        # Plain dicts as LRU stacks (insertion order = recency order):
        # cheaper probes than OrderedDict on the per-access capture path.
        self._data: list[dict[int, object]] = [{} for _ in range(sets)]

    def _set_for(self, key: int) -> dict[int, object]:
        return self._data[(key >> 12) % self.sets]

    def get(self, key: int, *, touch: bool = True):
        """Fetch by key, touching LRU unless touch=False."""
        entry_set = self._data[(key >> 12) % self.sets]
        if not touch:
            return entry_set.get(key)
        value = entry_set.pop(key, None)
        if value is not None:
            entry_set[key] = value  # re-insert at the MRU end
        return value

    def insert(self, key: int, value) -> tuple[int, object] | None:
        """Insert; returns the (key, value) evicted for capacity, if any."""
        entry_set = self._set_for(key)
        victim = None
        if key in entry_set:
            del entry_set[key]
        elif len(entry_set) >= self.ways:
            victim_key = next(iter(entry_set))
            victim = (victim_key, entry_set.pop(victim_key))
        entry_set[key] = value
        return victim

    def pop(self, key: int):
        """Remove and return an entry, or None."""
        return self._set_for(key).pop(key, None)

    def __contains__(self, key: int) -> bool:
        return key in self._set_for(key)

    def __len__(self) -> int:
        return sum(len(s) for s in self._data)


@dataclass(slots=True)
class _FilterEntry:
    pc: int
    trigger_offset: int


@dataclass(slots=True)
class _AccumulationEntry:
    pc: int
    trigger_offset: int
    bit_vector: int


class PatternCaptureFramework:
    """Filter Table + Accumulation Table, PMP-sized by default (Table III)."""

    def __init__(self, region_bytes: int = 4096, *,
                 ft_sets: int = 8, ft_ways: int = 8,
                 at_sets: int = 2, at_ways: int = 16) -> None:
        self.region_bytes = region_bytes
        self.pattern_length = lines_per_region(region_bytes)
        self.filter_table = SetAssociativeTable(ft_sets, ft_ways)
        self.accumulation_table = SetAssociativeTable(at_sets, at_ways)
        # region_of/offset_of masks, precomputed: observe() runs once per
        # trace access and the helper calls were measurable.
        self._offset_mask = region_bytes - 1
        self._region_mask = ~(region_bytes - 1)

    def observe(self, pc: int, address: int) -> tuple[bool, int, list[CapturedPattern]]:
        """Feed one L1D load.

        Returns ``(is_trigger, trigger_offset_or_offset, completed)`` where
        ``is_trigger`` marks the first access of a new region generation
        (the access PMP predicts on) and ``completed`` holds patterns
        finished by capacity evictions this step.
        """
        region = address & self._region_mask
        offset = (address & self._offset_mask) >> CACHELINE_BITS
        completed: list[CapturedPattern] = []

        acc: _AccumulationEntry | None = self.accumulation_table.get(region)  # type: ignore[assignment]
        if acc is not None:
            acc.bit_vector |= 1 << offset
            return False, offset, completed

        filt: _FilterEntry | None = self.filter_table.get(region)  # type: ignore[assignment]
        if filt is not None:
            if offset == filt.trigger_offset:
                return False, offset, completed  # same line again: still filtering
            self.filter_table.pop(region)
            entry = _AccumulationEntry(
                pc=filt.pc, trigger_offset=filt.trigger_offset,
                bit_vector=(1 << filt.trigger_offset) | (1 << offset))
            victim = self.accumulation_table.insert(region, entry)
            if victim is not None:
                completed.append(self._finish(victim[0], victim[1]))
            return False, offset, completed

        victim = self.filter_table.insert(region, _FilterEntry(pc=pc, trigger_offset=offset))
        # A region silently aged out of the FT produced no multi-access
        # pattern; SMS drops it, and so do we.
        return True, offset, completed

    def observe_nontrigger(self, pc: int, address: int
                           ) -> tuple[bool, int, list[CapturedPattern]]:
        """:meth:`observe` minus the trigger path (fast-path hit runs).

        Feeds the access only when its region already has an FT or AT
        entry, performing exactly the mutations :meth:`observe` would
        (bit accumulation, FT→AT promotion with its capacity victim, the
        same LRU touches).  Returns ``(consumed, offset, completed)``;
        ``consumed=False`` means the access would have been a trigger and
        **nothing was touched** — the caller decides whether to commit it
        via :meth:`insert_trigger` or fall back to :meth:`observe` on the
        event-driven path.
        """
        region = address & self._region_mask
        offset = (address & self._offset_mask) >> CACHELINE_BITS
        completed: list[CapturedPattern] = []

        acc: _AccumulationEntry | None = self.accumulation_table.get(region)  # type: ignore[assignment]
        if acc is not None:
            acc.bit_vector |= 1 << offset
            return True, offset, completed

        filt: _FilterEntry | None = self.filter_table.get(region)  # type: ignore[assignment]
        if filt is not None:
            if offset == filt.trigger_offset:
                return True, offset, completed
            self.filter_table.pop(region)
            entry = _AccumulationEntry(
                pc=filt.pc, trigger_offset=filt.trigger_offset,
                bit_vector=(1 << filt.trigger_offset) | (1 << offset))
            victim = self.accumulation_table.insert(region, entry)
            if victim is not None:
                completed.append(self._finish(victim[0], victim[1]))
            return True, offset, completed

        return False, offset, completed

    def insert_trigger(self, pc: int, address: int, offset: int) -> None:
        """Commit the trigger-path FT insert :meth:`observe_nontrigger`
        withheld (the FT capacity victim is silently dropped, exactly as
        in :meth:`observe`)."""
        region = address & self._region_mask
        self.filter_table.insert(region,
                                 _FilterEntry(pc=pc, trigger_offset=offset))

    def end_region(self, region: int) -> CapturedPattern | None:
        """Data from `region` was evicted: finish its accumulation, if any."""
        entry = self.accumulation_table.pop(region)
        if entry is None:
            self.filter_table.pop(region)
            return None
        return self._finish(region, entry)

    def _finish(self, region: int, entry) -> CapturedPattern:
        return CapturedPattern(
            region=region, pc=entry.pc, trigger_offset=entry.trigger_offset,
            bit_vector=entry.bit_vector, length=self.pattern_length)

    def drain(self) -> list[CapturedPattern]:
        """Flush every in-flight accumulation (end of trace / analysis)."""
        completed = []
        for entry_set in self.accumulation_table._data:
            for region, entry in entry_set.items():
                completed.append(self._finish(region, entry))
            entry_set.clear()
        for entry_set in self.filter_table._data:
            entry_set.clear()
        return completed

