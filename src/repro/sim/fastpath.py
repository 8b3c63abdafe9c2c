"""NumPy fast path: vectorized execution of runs of ordinary L1 hits.

The event-driven kernel pays a full Python descent per access —
``begin_load``, fill-queue sync, per-level lookup with pooled events,
prefetcher training — even when the access is *ordinary*: an L1D hit
with no structural event of any kind.  Hit-heavy phases spend almost all
their wall clock re-proving per access that nothing interesting happens.
This module batches those proofs: a :class:`FastPath` scanner detects
maximal runs of ordinary accesses with vectorized NumPy checks, executes
the whole run as array arithmetic, and reconciles every observable the
event kernel would have produced — **bit-identically** — in one
:class:`~repro.sim.events.HitRunRetired` publication at the block exit.

An access is *ordinary* (eligible for a run) exactly when:

* its line is resident in L1D with the prefetched bit clear (a set bit
  would publish ``PrefetchUseful`` — a structural event);
* its issue cycle is strictly before the earliest pending fill across
  all levels (``sync`` fires on ``ready <= cycle``, so equality is a
  boundary — the fill, its victim, and any back-invalidation must be
  applied by the event kernel first).  Pending MSHR entries do *not*
  block a run: the L1-hit path never consults them;
* the core issues it without a window stall (LQ/ROB limits, verified
  against the exact drain semantics below);
* the prefetcher consumes it through the hit-run protocol
  (:class:`~repro.prefetchers.base.Prefetcher`) without emitting
  requests;
* it does not cross the warmup/measurement boundary (the engine caps
  the scan window there).

Bit-exactness is by construction, not accident:

* **Cycle recurrence** — the scalar loop computes
  ``cycle += gap/width; t = cycle; cycle += 1/width`` per access.  The
  same additions, in the same order, run through one
  ``np.add.accumulate`` over the interleaved increment array (ufunc
  accumulate is a strict left-to-right recurrence, and ``x + 0.0`` is a
  bitwise identity for the non-negative cycle clock, so zero gaps need
  no special case).
* **Core window verification (assume-then-verify)** — completions are
  popped from the *front* of the in-flight deque while
  ``front.done <= cycle``, so the popped prefix after access ``j`` is
  ``searchsorted(M, t_j, 'right')`` with ``M`` the running maximum of
  completion times over old-then-new entries.  From that prefix length
  the deque length and oldest in-flight instruction index are exact,
  and the first access whose LQ/ROB check would enter the stall loop
  cuts the run.
* **State application** — L1D recency is a pop/reinsert of each
  distinct line in last-access order (equal to the per-access MRU moves
  by exchange argument); dirty bits are set for written lines; the
  in-flight deque drops its popped prefix and appends the still-pending
  loads with ``.tolist()``-exact floats.
* **Reconciliation** — one ``HitRunRetired`` event carries the count and
  the per-access cycle/line arrays; the stats observer, event tracer and
  invariant auditor expand it into exactly the increments, log rows and
  shadow updates ``count`` slow-path accesses would have produced.

Overhead control for miss-heavy phases: each failed attempt costs a few
dict probes and heap peeks, gated by an exponential cooldown (skip 1, 2,
… up to 64 accesses between attempts) that resets on the next retired
block; the residency snapshot (a sorted array of hit-eligible lines) is
rebuilt only when the L1's residency/prefetched-bit version counter
moves, and the scan window adapts to twice the last run length.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..memtrace.access import CACHELINE_BITS
from ..prefetchers.base import FillLevel, Prefetcher
from .cache import PREFETCHED
from .events import HitRunRetired

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..memtrace.trace import Trace
    from .core import Core
    from .hierarchy import Hierarchy

#: Runs shorter than this lose to the vector setup cost; the scanner
#: declines them and lets the event kernel take the accesses.
MIN_RUN = 4
MIN_WINDOW = 64
MAX_WINDOW = 4096
MAX_COOLDOWN = 64


class FastPath:
    """Block scanner + executor bound to one ``simulate()`` run."""

    def __init__(self, trace: "Trace", hierarchy: "Hierarchy", core: "Core",
                 prefetcher: Prefetcher) -> None:
        pcs, addrs, writes, gaps = trace.arrays()
        self._pcs = pcs
        self._addrs = addrs
        self._lines = addrs >> CACHELINE_BITS
        self._writes = writes
        width = core.params.width
        # gap/width per access, precomputed: float64 division of exactly
        # representable integers matches Python's int/int true division
        # bit for bit.
        self._gap_cycles = gaps.astype(np.float64) / width
        self._gaps = gaps.astype(np.int64)
        self._inv_width = 1 / width
        self.core = core
        self.hierarchy = hierarchy
        l1 = hierarchy.l1d
        self._l1 = l1
        self._l1_sets = l1._sets
        self._num_sets = l1.num_sets
        self._hit_latency = float(hierarchy.levels[0].hit_latency)
        # Live fill heaps (never reassigned — same contract _sync_pairs
        # relies on): the earliest ready across them bounds every run.
        self._heaps = [level.storage.fills._heap for level in hierarchy.levels]
        self._lq = core.params.lq_entries
        self._rob = core.params.rob_entries
        self._consume_block = (None if prefetcher.hit_run_transparent
                               else prefetcher.hit_run_consume_block)
        self._ev = HitRunRetired(FillLevel.L1D, 0, None, None, 0.0)
        self._handlers = hierarchy.bus.handlers(HitRunRetired)
        # Sorted snapshot of hit-eligible L1 lines (resident, prefetched
        # bit clear), keyed by the storage's residency version counter.
        self._snap: np.ndarray | None = None
        self._snap_version = -1
        self._window = MIN_WINDOW
        self._skip = 0
        self._cooldown = 1
        # Diagnostic surface (read through ``Run.scanner``).
        self.blocks_retired = 0
        self.accesses_fastpathed = 0
        self.attempts = 0

    # ------------------------------------------------------------- scanning

    def try_run(self, start: int, limit: int) -> int:
        """Try to retire a run of ordinary accesses at trace index
        ``start``; returns the number of accesses consumed (0 = the
        event kernel must take ``start``)."""
        if self._skip:
            self._skip -= 1
            return 0
        self.attempts += 1
        retired = self._attempt(start, limit)
        if retired:
            self._cooldown = 1
            self.blocks_retired += 1
            self.accesses_fastpathed += retired
            return retired
        self._skip = self._cooldown
        self._cooldown = min(MAX_COOLDOWN, self._cooldown * 2)
        return 0

    def _next_ready(self) -> float:
        """Earliest pending fill ready cycle across all levels."""
        next_ready = np.inf
        for heap in self._heaps:
            if heap and heap[0][0] < next_ready:
                next_ready = heap[0][0]
        return next_ready

    def _snapshot(self) -> np.ndarray:
        version = self._l1.version
        if version != self._snap_version or self._snap is None:
            eligible = [line
                        for cache_set in self._l1_sets
                        for line, flags in cache_set.items()
                        if not flags & PREFETCHED]
            snap = np.fromiter(eligible, dtype=np.uint64,
                               count=len(eligible))
            snap.sort()
            self._snap = snap
            self._snap_version = version
        return self._snap

    def _attempt(self, start: int, limit: int) -> int:
        window = limit - start
        if window < MIN_RUN:
            return 0
        if window > self._window:
            window = self._window
        core = self.core

        # Cheap scalar pre-checks before any array work: the first
        # MIN_RUN accesses must be hit-eligible and issue strictly
        # before the earliest fill.  Same tests, same float-op order as
        # the vector pass, so a bail here means the full attempt would
        # have computed run < MIN_RUN anyway — and a failed attempt on
        # a miss-heavy phase costs a few dict probes, not a residency
        # snapshot rebuild plus array allocations.
        next_ready = self._next_ready()
        sets = self._l1_sets
        num_sets = self._num_sets
        cycle = core.cycle
        for k in range(start, start + MIN_RUN):
            line = int(self._lines[k])
            flags = sets[line % num_sets].get(line)
            if flags is None or flags & PREFETCHED:
                return 0
            cycle += self._gap_cycles[k]
            if cycle >= next_ready:
                return 0
            cycle += self._inv_width

        stop = start + window
        w_lines = self._lines[start:stop]

        # Residency/prefetched-bit eligibility via the sorted snapshot.
        snap = self._snapshot()
        pos = np.searchsorted(snap, w_lines)
        # pos == size means "greater than every snapshot line"; folding
        # those to 0 is safe because such a line can never equal snap[0].
        pos[pos == snap.size] = 0
        ok = snap[pos] == w_lines

        # Exact cycle recurrence: the scalar per-access order is
        # cycle += gap/width; t_j = cycle; cycle += 1/width, reproduced
        # as one strictly-sequential accumulate.
        incs = np.empty(2 * window + 1)
        incs[0] = core.cycle
        incs[1::2] = self._gap_cycles[start:stop]
        incs[2::2] = self._inv_width
        acc = np.add.accumulate(incs)
        t = acc[1::2]
        done = t + self._hit_latency

        # Fill boundary: sync fires on ready <= cycle, so eligibility is
        # strict inequality.
        ok &= t < next_ready

        # Core window verification (see module docstring).
        inflight = core._inflight
        m = len(inflight)
        if m:
            old_idx_it, old_done_it = zip(*inflight)
            old_done = np.fromiter(old_done_it, dtype=np.float64, count=m)
            old_idx = np.fromiter(old_idx_it, dtype=np.int64, count=m)
            all_done = np.concatenate([old_done, done])
        else:
            old_idx = None
            all_done = done
        running_max = np.maximum.accumulate(all_done)
        popped = np.searchsorted(running_max, t, side="right")
        j = np.arange(window, dtype=np.int64)
        pending_before = m + j           # deque length before access j's pops
        cg = np.cumsum(self._gaps[start:stop])
        n_vec = core.instructions + cg + j  # instruction count at issue of j
        if old_idx is not None:
            all_idx = np.concatenate([old_idx, n_vec])
        else:
            all_idx = n_vec
        deque_empty = popped == pending_before
        lens = pending_before - popped
        oldest = all_idx[popped]
        ok &= deque_empty | ((lens < self._lq)
                             & ((n_vec - oldest) < self._rob))

        bad = np.flatnonzero(~ok)
        run = int(bad[0]) if bad.size else window
        # Adapt the next attempt's window to what this one supported.
        self._window = min(MAX_WINDOW, max(MIN_WINDOW, 2 * run))
        if run < MIN_RUN:
            return 0

        # Prefetcher hit-run protocol: consume-exactly or cut the run.
        # A decline mutates nothing, so cutting to 0 here is free; a
        # shorter consumed prefix MUST be applied (training happened).
        if self._consume_block is not None:
            consumed = self._consume_block(self._pcs[start:start + run],
                                           self._addrs[start:start + run])
            if consumed == 0:
                return 0
            run = consumed

        self._apply(start, run, t, done, popped, n_vec, m)
        return run

    # ------------------------------------------------------------- applying

    def _apply(self, start: int, run: int, t: np.ndarray, done: np.ndarray,
               popped: np.ndarray, n_vec: np.ndarray, m: int) -> None:
        """Commit ``run`` ordinary accesses' state in one batch."""
        core = self.core
        lines = self._lines[start:start + run]
        sets = self._l1_sets
        num_sets = self._num_sets

        # L1D recency: each distinct line moves to the MRU end at its
        # *last* access; non-run lines keep their relative order — the
        # same final dict order the per-access pop/reinsert produces.
        rev_first = np.unique(lines[::-1], return_index=True)
        for line in rev_first[0][np.argsort(-rev_first[1])].tolist():
            cache_set = sets[line % num_sets]
            cache_set[line] = cache_set.pop(line)

        writes = self._writes[start:start + run]
        if writes.any():
            mark_dirty = self._l1.mark_dirty
            for line in np.unique(lines[writes != 0]).tolist():
                mark_dirty(line)

        # Core: exact clock, instruction count and in-flight deque.
        final_popped = int(popped[run - 1])
        inflight = core._inflight
        for _ in range(final_popped if final_popped < m else m):
            inflight.popleft()
        skip_new = final_popped - m if final_popped > m else 0
        inflight.extend(zip(n_vec[skip_new:run].tolist(),
                            done[skip_new:run].tolist()))
        core.cycle = float(t[run - 1] + self._inv_width)
        core.instructions = int(n_vec[run - 1]) + 1

        last_cycle = float(t[run - 1])
        self.hierarchy.set_view_cycle(last_cycle)

        # Reconcile every observer in one publication (stats observer,
        # event tracer and invariant auditor expand it per access).
        ev = self._ev
        ev.count = run
        ev.cycles = t[:run]
        ev.lines = lines
        ev.cycle = last_cycle
        for handler in self._handlers:
            handler(ev)
