"""Set-associative cache storage: LRU, prefetch bits, MSHRs, prefetch
queues and *deferred fills*.

A miss (demand or prefetch) does not insert its line immediately: the fill
is scheduled on a pending :class:`FillQueue` and applied — evicting its
victim — only when the data actually arrives (its ``ready`` cycle).  Demands
that touch the line while the fill is in flight merge with it through the
MSHR rather than re-requesting memory.  Applying fills lazily keeps
eviction timing honest: a prefetch issued 200 cycles early must not
shrink the cache for those 200 cycles.

This module is pure mechanics.  A :class:`Cache` mutates arrays, reports
what happened (hit/miss, victim chosen, prefetched bit consumed) and owns
a passive :class:`CacheStats` counter block — but it never *accounts*:
all counter updates and prefetcher feedback flow through typed events
published by the owning :class:`~repro.sim.level.CacheLevel` component
and applied by bus subscribers (see :mod:`repro.sim.observers`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .params import CacheParams

# Resident line state is a plain int of flags, held directly as the value
# in the line's set dict (``line -> flags``).  A clean, non-prefetched
# line has flags 0, which is falsy: test residency with ``is None`` or
# ``in``, never by truthiness.
PREFETCHED = 1
DIRTY = 2


class FillQueue:
    """Pending fills ordered by readiness, with a per-line index.

    Each fill is one mutable list record, ``[ready, seq, line,
    prefetched, is_write, canceled]``, that is both the heap entry and
    the per-line index entry.  The heap orders records by ``(ready,
    seq)``, which keeps every comparison in C, and the unique, monotonic
    ``seq`` pops same-cycle fills in insertion order; those two fields
    never change, the flags after them change in place.  The index lets
    the demand merge path find a line's in-flight fills in O(1).  A
    back-invalidated fill is flagged ``canceled`` and skipped when it
    pops (removing from a heap's middle is O(n)).
    """

    __slots__ = ("_heap", "_by_line", "_seq")

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._by_line: dict[int, list[list]] = {}
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, ready: float, line: int, prefetched: bool = False,
             is_write: bool = False) -> None:
        """Queue one fill."""
        seq = self._seq
        self._seq = seq + 1
        fill = [ready, seq, line, prefetched, is_write, False]
        heapq.heappush(self._heap, fill)
        bucket = self._by_line.get(line)
        if bucket is None:
            self._by_line[line] = [fill]
        else:
            bucket.append(fill)

    def pop_ready(self, cycle: float) -> list[list]:
        """Remove and return every live fill whose data has arrived by
        ``cycle``, in heap order."""
        out: list[list] = []
        heap = self._heap
        by_line = self._by_line
        while heap and heap[0][0] <= cycle:
            fill = heapq.heappop(heap)
            if fill[5]:  # canceled
                continue
            line = fill[2]
            bucket = by_line[line]
            if len(bucket) == 1:
                del by_line[line]
            else:
                bucket.remove(fill)
            out.append(fill)
        return out

    def cancel_line(self, line: int) -> list[list]:
        """Cancel every in-flight fill of ``line`` (back-invalidation).

        The fills are dropped from the per-line index and flagged so the
        readiness heap skips them when they pop; returns what was
        canceled so the cache can release the matching MSHR entry.
        """
        bucket = self._by_line.pop(line, None)
        if bucket is None:
            return []
        for fill in bucket:
            fill[5] = True  # canceled
        return bucket

    def live_count(self) -> int:
        """Pending fills excluding canceled heap residue."""
        return sum(len(bucket) for bucket in self._by_line.values())

    def strip_prefetch_flag(self, line: int) -> None:
        """Demote in-flight fills of ``line`` to demand fills (O(1) lookup)."""
        for fill in self._by_line.get(line, ()):
            fill[3] = False  # prefetched

    def mark_write(self, line: int) -> None:
        """A store merged with ``line``'s in-flight fills: they install
        the line dirty."""
        for fill in self._by_line.get(line, ()):
            fill[4] = True  # is_write


@dataclass
class CacheStats:
    """Per-level counters for the Fig 9 / Fig 10 metrics.

    Owned by the storage (so shared-LLC counters are naturally shared
    across cores) but mutated only by the stats observer subscribed to
    the hierarchy's event bus.
    """

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_fills: int = 0
    useful_prefetches: int = 0
    useless_prefetches: int = 0
    late_prefetch_hits: int = 0
    evictions: int = 0

    def accuracy(self) -> float:
        """Useful / (useful + useless); 0 when no prefetches resolved."""
        total = self.useful_prefetches + self.useless_prefetches
        return self.useful_prefetches / total if total else 0.0

    def reset(self) -> None:
        """Zero every counter."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)


class Cache:
    """One set-associative level's storage. Addresses are cacheline ints."""

    def __init__(self, params: CacheParams, name: str = "cache") -> None:
        self.params = params
        self.name = name
        self.num_sets = params.num_sets
        self.ways = params.ways
        # Plain dicts of ``line -> flags`` double as LRU stacks: insertion
        # order is recency order (hits re-insert, the victim is the first
        # key; other flag updates assign in place).  Probes on a plain
        # dict are measurably cheaper than OrderedDict's per access.
        self._sets: list[dict[int, int]] = [
            {} for _ in range(self.num_sets)]
        # Bumped whenever the *eligibility-relevant* state changes: which
        # lines are resident and which carry a prefetched bit.  The
        # fast-path scanner (repro.sim.fastpath) caches a sorted array of
        # hit-eligible lines keyed by this counter; LRU reordering and
        # dirty-bit changes deliberately do not bump it.
        self.version = 0
        self.stats = CacheStats()
        # Outstanding misses: line -> (completion cycle, is_prefetch).
        self._mshr: dict[int, tuple[float, bool]] = {}
        self._mshr_capacity = params.mshr_entries
        # Companion min-heap of (completion, line) with lazy deletion:
        # released or overwritten entries stay in the heap until popped
        # and are skipped when the dict disagrees.  Pruning pops only
        # the completed prefix instead of scanning every entry.
        self._mshr_heap: list[tuple[float, int]] = []
        # Lower bound on the earliest outstanding completion; lets prune
        # skip its pops when no entry can possibly have completed.  May go
        # stale-low after a release (costing a few wasted pops), never
        # high.
        self._mshr_min = float("inf")
        # Fills whose data has not arrived yet, ordered by readiness.
        self.fills = FillQueue()
        # In-flight prefetch-queue occupancy (entries free at issue time),
        # kept as a min-heap so pruning pops expired entries instead of
        # rebuilding the whole list on every headroom query.
        self._pq: list[float] = []

    # ------------------------------------------------------------- residency

    def contains(self, line: int) -> bool:
        """Presence check with no LRU side effects."""
        return line in self._sets[line % self.num_sets]

    def resident_or_pending(self, line: int) -> bool:
        """True when the line is resident or its miss is outstanding.

        One call instead of ``contains`` + ``mshr_pending`` — this is
        the prefetch admission check, run per level per candidate.
        """
        return line in self._sets[line % self.num_sets] or line in self._mshr

    def probe(self, line: int) -> int | None:
        """A resident line's flags, without touching LRU; None if absent."""
        return self._sets[line % self.num_sets].get(line)

    def access(self, line: int, cycle: float,
               is_write: bool = False) -> tuple[bool, bool]:
        """Demand lookup (resident lines only — callers sync pending fills
        first and handle in-flight merges through the MSHR).

        Returns ``(hit, used_prefetch)``: ``used_prefetch`` is True when
        the hit consumed a still-set prefetched bit (the bit is cleared,
        so a prefetch resolves useful exactly once).
        """
        cache_set = self._sets[line % self.num_sets]
        flags = cache_set.pop(line, None)
        if flags is None:
            return False, False
        if is_write:
            flags |= DIRTY
        if flags & PREFETCHED:
            cache_set[line] = flags & DIRTY  # re-insert at the MRU end
            self.version += 1
            return True, True
        cache_set[line] = flags
        return True, False

    def fill_now(self, line: int, cycle: float, prefetched: bool = False,
                 is_write: bool = False,
                 ) -> tuple[bool, int | None, int | None]:
        """Apply a fill immediately (data is here).

        Returns ``(inserted, victim, victim_flags)``.  A refill of a
        resident line only refreshes recency (and never re-marks a
        demand-fetched line as a prefetch): ``inserted`` is False and no
        victim is chosen.  A plain tuple, not a result object — this runs
        once per applied fill.
        """
        cache_set = self._sets[line % self.num_sets]
        existing = cache_set.pop(line, None)
        if existing is not None:
            cache_set[line] = existing  # refresh recency
            return False, None, None
        victim = None
        victim_flags = None
        if len(cache_set) >= self.ways:
            victim = next(iter(cache_set))
            victim_flags = cache_set.pop(victim)
        cache_set[line] = prefetched | is_write << 1  # PREFETCHED | DIRTY
        self.version += 1
        return True, victim, victim_flags

    def mark_dirty(self, line: int) -> bool:
        """Dirty a resident line in place, keeping its LRU slot; False
        when the line is not resident."""
        cache_set = self._sets[line % self.num_sets]
        flags = cache_set.get(line)
        if flags is None:
            return False
        cache_set[line] = flags | DIRTY
        return True

    def schedule_fill(self, line: int, ready: float, prefetched: bool = False,
                      is_write: bool = False) -> None:
        """Queue a fill to be applied when its data arrives.

        Inlines :meth:`FillQueue.push` (same invariants, same module):
        every miss schedules one fill per level, making this one of the
        hottest calls in a miss-heavy run.
        """
        fills = self.fills
        seq = fills._seq
        fills._seq = seq + 1
        fill = [ready, seq, line, prefetched, is_write, False]
        heapq.heappush(fills._heap, fill)
        by_line = fills._by_line
        bucket = by_line.get(line)
        if bucket is None:
            by_line[line] = [fill]
        else:
            bucket.append(fill)

    def invalidate(self, line: int) -> int | None:
        """Remove a line (inclusive back-invalidation).  Returns the
        removed line's flags when it was present, else None."""
        flags = self._sets[line % self.num_sets].pop(line, None)
        if flags is not None:
            self.version += 1
        return flags

    def cancel_fills(self, line: int) -> bool:
        """Cancel in-flight fills of a back-invalidated line.

        Without this, a private fill still in flight when the inclusive
        LLC evicts its line installs after the back-invalidation swept
        through — leaving the private cache holding a line the LLC no
        longer tracks.  Releases the matching MSHR entry too (its fill
        will never apply, so nothing else would).
        """
        canceled = self.fills.cancel_line(line)
        if not canceled:
            return False
        self.mshr_release(line)
        return True

    def strip_prefetched(self) -> list[int]:
        """Clear every resident prefetched bit; returns the lines cleared.

        End-of-run accounting: resident never-used prefetched lines
        resolve as useless (the caller publishes the events).  Each
        bit is cleared in place, safe mid-iteration and order-keeping.
        """
        stripped: list[int] = []
        for cache_set in self._sets:
            for line, flags in cache_set.items():
                if flags & PREFETCHED:
                    cache_set[line] = flags & DIRTY
                    stripped.append(line)
        if stripped:
            self.version += 1
        return stripped

    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(len(s) for s in self._sets)

    # ----------------------------------------------------------------- MSHRs

    def mshr_pending(self, line: int) -> float | None:
        """Completion cycle of an outstanding miss on this line, if any."""
        entry = self._mshr.get(line)
        return entry[0] if entry is not None else None

    def mshr_is_prefetch(self, line: int) -> bool:
        """True if the outstanding miss on `line` is a prefetch."""
        entry = self._mshr.get(line)
        return entry is not None and entry[1]

    def mshr_allocate(self, line: int, completion: float,
                      now: float | None = None,
                      is_prefetch: bool = False) -> None:
        """Track an outstanding miss; prunes completed entries when `now`
        is given so occupancy never grows stale."""
        if now is not None and now >= self._mshr_min:
            self.mshr_prune(now)
        self._mshr[line] = (completion, is_prefetch)
        heapq.heappush(self._mshr_heap, (completion, line))
        if completion < self._mshr_min:
            self._mshr_min = completion

    def mshr_release(self, line: int) -> None:
        """Drop the MSHR entry for `line`, if any.

        :meth:`CacheLevel.sync <repro.sim.level.CacheLevel.sync>` inlines
        this body per applied fill; keep the two in step.
        """
        mshr = self._mshr
        mshr.pop(line, None)
        if not mshr:
            # Re-tighten the lower bound and drop the stale heap tail:
            # without this, a stale-low bound forces every later prune
            # through (empty) pop attempts.
            self._mshr_heap.clear()
            self._mshr_min = float("inf")

    def mshr_prune(self, cycle: float) -> None:
        """Drop MSHR entries whose fills have completed.

        Pops the heap's completed prefix; an entry whose dict completion
        disagrees with its heap key is stale (released or re-allocated)
        and skipped.
        """
        if cycle < self._mshr_min:
            return
        mshr = self._mshr
        heap = self._mshr_heap
        pop = heapq.heappop
        while heap and heap[0][0] <= cycle:
            when, line = pop(heap)
            entry = mshr.get(line)
            if entry is not None and entry[0] == when:
                del mshr[line]
        self._mshr_min = heap[0][0] if heap else float("inf")

    def mshr_earliest(self) -> float:
        """Completion cycle of the oldest outstanding miss."""
        heap = self._mshr_heap
        mshr = self._mshr
        pop = heapq.heappop
        while heap:
            when, line = heap[0]
            entry = mshr.get(line)
            if entry is not None and entry[0] == when:
                return when
            pop(heap)  # stale: released or re-allocated since pushed
        return min(when for when, _ in mshr.values())

    def mshr_free(self, cycle: float) -> int:
        """Free MSHR slots at `cycle` (prunes completed entries)."""
        if cycle >= self._mshr_min:
            self.mshr_prune(cycle)
        return self._mshr_capacity - len(self._mshr)

    def mshr_has_room_for_prefetch(self, cycle: float) -> bool:
        """Prefetches may not take the last MSHR (paper Section IV-B)."""
        return self.mshr_free(cycle) > 1

    # ------------------------------------------------------------------- PQs

    def pq_free(self, cycle: float) -> int:
        """Free prefetch-queue slots at `cycle` (pops expired entries)."""
        pq = self._pq
        while pq and pq[0] <= cycle:
            heapq.heappop(pq)
        return max(0, self.params.pq_entries - len(pq))

    def pq_push(self, completion: float) -> None:
        """Occupy one PQ slot until `completion`."""
        heapq.heappush(self._pq, completion)
