"""Synthetic access-pattern generators.

The paper evaluates on 125 proprietary DPC/Pythia traces which are not
redistributable; this module provides the substitute substrate.  Each
generator emits the *spatial structure* the paper's observations rest on:

* loops touch data with a spatial signature **anchored at the entry point
  of a region** — when a loop enters a region at offset ``t`` it then
  accesses ``t + d`` for a delta-set characteristic of the loop, so the
  anchored (trigger-offset-relative) pattern recurs across regions
  (Observation 3, the premise of PMP's merging);
* a few region patterns dominate occurrence counts (Observation 1);
* the same anchored pattern appears in many distinct regions, so
  address-bearing features index it redundantly (Observation 2).

Generators take an explicit :class:`numpy.random.Generator` so every trace
in the suite is reproducible from its seed.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .access import CACHELINE_BITS, CACHELINE_BYTES, MemoryAccess
from .trace import Trace

LINES_PER_REGION = 64
REGION_BYTES = LINES_PER_REGION * CACHELINE_BYTES

# Distinct heap segments keep generators from aliasing each other's regions.
_SEGMENT_BYTES = 1 << 34


def _segment_base(segment: int) -> int:
    return (segment + 1) * _SEGMENT_BYTES


def _emit(out: list[MemoryAccess], pc: int, region: int, offset: int,
          gap: int, is_write: bool = False) -> None:
    # Positional fields and an inline line address: this runs once per
    # generated access.
    out.append(MemoryAccess(
        pc, region + ((offset % LINES_PER_REGION) << CACHELINE_BITS),
        is_write, gap))


def stream(rng: np.random.Generator, count: int, *, segment: int = 0,
           pc: int = 0x400100, gap: int = 48) -> list[MemoryAccess]:
    """Forward unit-stride stream sweeping sequential regions.

    Produces the all-ones region pattern with trigger offset 0 — the
    canonical stream pattern the ARE scheme fails on (Section V-E2).
    """
    out: list[MemoryAccess] = []
    base = _segment_base(segment)
    line = int(rng.integers(0, 1 << 20)) * LINES_PER_REGION
    for _ in range(count):
        region = base + (line // LINES_PER_REGION) * REGION_BYTES
        _emit(out, pc, region, line % LINES_PER_REGION, gap)
        line += 1
    return out


def strided(rng: np.random.Generator, count: int, stride: int, *,
            segment: int = 1, pc: int = 0x400200, gap: int = 44,
            start_offset: int | None = None) -> list[MemoryAccess]:
    """Constant-stride walk (Astar-style slashes in the Fig 5 heat map).

    The anchored pattern depends only on the stride, not on which offset
    the walk enters a region at, so different trigger offsets see shifted
    copies of one structure.
    """
    out: list[MemoryAccess] = []
    base = _segment_base(segment)
    line = int(rng.integers(0, 1 << 20)) * LINES_PER_REGION
    if start_offset is not None:
        line += start_offset
    for _ in range(count):
        region = base + (line // LINES_PER_REGION) * REGION_BYTES
        _emit(out, pc, region, line % LINES_PER_REGION, gap)
        line += stride
    return out


def backward_scan(rng: np.random.Generator, count: int, *, segment: int = 2,
                  pc: int = 0x400300, gap: int = 40, stride: int = 1) -> list[MemoryAccess]:
    """MCF-style backward walk over a big array (pred-pointer loops).

    Enters each region near its end (big trigger offsets) and walks down,
    producing the horizontal lines at the bottom of Fig 5a.
    """
    out: list[MemoryAccess] = []
    base = _segment_base(segment)
    line = int(rng.integers(1 << 18, 1 << 20)) * LINES_PER_REGION + LINES_PER_REGION - 1
    for _ in range(count):
        if line < LINES_PER_REGION:
            line = int(rng.integers(1 << 18, 1 << 20)) * LINES_PER_REGION + LINES_PER_REGION - 1
        region = base + (line // LINES_PER_REGION) * REGION_BYTES
        _emit(out, pc, region, line % LINES_PER_REGION, gap)
        line -= stride
    return out


def neighborhood_walk(rng: np.random.Generator, count: int, *, segment: int = 3,
                      pc_pool: Sequence[int] = (0x400400, 0x400410, 0x400420),
                      gap: int = 56, spread: int = 3,
                      revisit: float = 0.6) -> list[MemoryAccess]:
    """Random walk touching a small neighbourhood around the current line.

    Models the "blue dotted slash" of Fig 5a: most accesses land within a
    few lines of the current position, so anchored patterns concentrate
    close to the trigger offset regardless of its value.
    """
    out: list[MemoryAccess] = []
    base = _segment_base(segment)
    line = int(rng.integers(0, 1 << 18)) * LINES_PER_REGION
    pcs = list(pc_pool)
    for _ in range(count):
        if rng.random() < revisit:
            delta = int(rng.integers(1, spread + 1))
        else:
            line = int(rng.integers(0, 1 << 18)) * LINES_PER_REGION + int(
                rng.integers(0, LINES_PER_REGION))
            delta = 0
        line += delta
        region = base + (line // LINES_PER_REGION) * REGION_BYTES
        pc = pcs[int(rng.integers(0, len(pcs)))]
        _emit(out, pc, region, line % LINES_PER_REGION, gap)
    return out


def pattern_replay(rng: np.random.Generator, count: int,
                   library: Sequence[tuple[int, Sequence[int]]] | None = None, *,
                   segment: int = 4, n_regions: int = 4096, gap: int = 72,
                   zipf_a: float = 1.4, noise: float = 0.05,
                   pc_base: int = 0x400500) -> list[MemoryAccess]:
    """Replay a small library of anchored region patterns with Zipf frequency.

    Each library entry is ``(trigger_offset, deltas)``: on visiting a region
    the loop enters at ``trigger_offset`` then touches ``trigger + d`` for
    each delta.  A Zipf draw picks which loop body runs, so a handful of
    patterns dominate the census (Observation 1), and `noise` occasionally
    drops/perturbs an access so merged patterns are similar but not
    identical (what the counter-vector merging must tolerate).
    """
    if library is None:
        library = default_pattern_library()
    out: list[MemoryAccess] = []
    base = _segment_base(segment)
    ranks = np.arange(1, len(library) + 1, dtype=float)
    weights = ranks ** (-zipf_a)
    weights /= weights.sum()
    emitted = 0
    while emitted < count:
        idx = int(rng.choice(len(library), p=weights))
        trigger, deltas = library[idx]
        region = base + int(rng.integers(0, n_regions)) * REGION_BYTES
        # A handful of loop PCs serve many data shapes (paper Fig 5d: the
        # PC feature shows overlapped distributions with limited pattern
        # recognition) — PCs must not be a perfect pattern oracle.
        pc = pc_base + (idx % 3) * 0x40
        _emit(out, pc, region, trigger, gap)
        emitted += 1
        # The *set* of touched offsets is stable per loop body but the
        # *order* varies between visits (hash iteration, out-of-order
        # issue, work stealing).  This is exactly the structure bit-vector
        # pattern forms capture and delta-sequence forms cannot (Section
        # VI-B): shuffled orders fracture SPP-style signatures while
        # leaving PMP's anchored counter vectors untouched.
        deltas = [int(d) for d in rng.permutation(list(deltas))]
        for delta in deltas:
            if rng.random() < noise:
                continue  # dropped access: pattern variant
            offset = trigger + delta
            if rng.random() < noise:
                offset += int(rng.integers(-1, 2))
            _emit(out, pc, region, offset, gap)
            emitted += 1
            if emitted >= count:
                break
    return out


def default_pattern_library() -> list[tuple[int, list[int]]]:
    """A representative loop-body library: streams, strides, scans, clusters.

    The first few (most frequent under the Zipf draw) are *deep* patterns —
    dozens of offsets per region visit.  Bit-vector prefetchers replay them
    in one prediction; delta prefetchers must walk them step by step, which
    the per-visit order shuffling in :func:`pattern_replay` defeats.  This
    is the structural contrast Sections II-A / VI-B describe.
    """
    return [
        (0, list(range(1, 32))),                  # deep forward burst
        (0, [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26]),  # deep stride-2
        (63, [-d for d in range(1, 24)]),         # deep backward scan
        (8, [1, 2, 3, 5, 8, 13, 21]),             # fibonacci-ish gather
        (16, [4, 8, 12, 16, 20, 24, 28, 32]),     # stride-4 from mid-region
        (32, [1, -1, 2, -2, 3, -3, 5, -5]),       # symmetric neighbourhood
        (48, [3, 6, 9, 12, 15]),                  # stride-3 tail
        (4, [1, 2, 4, 8, 16, 32]),                # power-of-two gather
        (57, [-3, -6, -9, -12]),                  # sparse backward
        (24, [5, 10, 15, 20, 25, 30]),            # stride-5
        (12, [1, 3, 4, 7, 9, 12, 13]),            # irregular-but-stable set
        (40, [2, 3, 5, 7, 11, 13, 17, 19]),       # prime gather
    ]


def pointer_chase(rng: np.random.Generator, count: int, *, segment: int = 5,
                  pc: int = 0x400600, gap: int = 56,
                  working_lines: int = 1 << 16) -> list[MemoryAccess]:
    """Uniform pointer chasing over a working set — near-unprefetchable.

    Supplies the irregular tail of the workload mix: distinct, rarely
    repeating region patterns (the 75.6% seen-once mass of Observation 1).
    """
    out: list[MemoryAccess] = []
    base = _segment_base(segment)
    for _ in range(count):
        line = int(rng.integers(0, working_lines))
        region = base + (line // LINES_PER_REGION) * REGION_BYTES
        _emit(out, pc, region, line % LINES_PER_REGION, gap)
    return out


def graph_traversal(rng: np.random.Generator, count: int, *, segment: int = 6,
                    n_vertices: int = 1 << 14, avg_degree: int = 8,
                    gap: int = 36) -> list[MemoryAccess]:
    """Ligra-style frontier traversal: CSR offsets (stream) + edge targets (random).

    Interleaves a sequential sweep of the vertex/offset arrays with bursts
    of near-random accesses into the neighbour data array — streams mixed
    with irregularity, which is what makes graph workloads expensive for
    heavyweight pattern tables.
    """
    out: list[MemoryAccess] = []
    base = _segment_base(segment)
    vertex_base = base
    edge_base = base + (1 << 28)
    data_base = base + (1 << 29)
    pc_vertex, pc_edge, pc_data = 0x400700, 0x400710, 0x400720
    vertex_line = 0
    emitted = 0
    while emitted < count:
        region = vertex_base + (vertex_line // LINES_PER_REGION) * REGION_BYTES
        _emit(out, pc_vertex, region, vertex_line % LINES_PER_REGION, gap)
        vertex_line = (vertex_line + 1) % (n_vertices // 8)
        emitted += 1
        degree = int(rng.poisson(avg_degree))
        edge_line = int(rng.integers(0, n_vertices * avg_degree // 8))
        for e in range(degree):
            if emitted >= count:
                break
            line = edge_line + e
            region = edge_base + (line // LINES_PER_REGION) * REGION_BYTES
            _emit(out, pc_edge, region, line % LINES_PER_REGION, gap)
            emitted += 1
            if emitted >= count:
                break
            target_line = int(rng.integers(0, n_vertices))
            region = data_base + (target_line // LINES_PER_REGION) * REGION_BYTES
            _emit(out, pc_data, region, target_line % LINES_PER_REGION, gap)
            emitted += 1
    return out


def hot_loop(rng: np.random.Generator, count: int, *, segment: int = 7,
             lines: int = 512, pc_pool_size: int = 16, write_every: int = 7,
             max_gap: int = 4) -> list[MemoryAccess]:
    """Repeated sweep of a small L1-resident working set — hit-heavy.

    After one cold lap every access is an L1 hit with no structural
    events, which is the regime the vectorized fast path
    (:mod:`repro.sim.fastpath`) batches.  Not part of the evaluation
    suites: this is the pinned *performance* workload the macro bench
    uses to measure fast-path throughput, kept out of
    :func:`~repro.memtrace.workloads.full_suite` so the golden evaluation
    fixtures are untouched by its existence.
    """
    out: list[MemoryAccess] = []
    base = _segment_base(segment)
    start = int(rng.integers(0, 1 << 16)) * LINES_PER_REGION
    gaps = rng.integers(0, max_gap + 1, size=count)
    for i in range(count):
        slot = i % lines
        line = start + slot
        region = base + (line // LINES_PER_REGION) * REGION_BYTES
        pc = 0x400800 + 8 * (slot % pc_pool_size)
        _emit(out, pc, region, line % LINES_PER_REGION, int(gaps[i]),
              is_write=slot % write_every == 0)
    return out


Generator = Callable[..., list[MemoryAccess]]


def compose(rng: np.random.Generator, parts: Sequence[tuple[Generator, dict, float]],
            total: int, *, chunk: int = 2048,
            epochs: int = 1) -> list[MemoryAccess]:
    """Interleave several generators with given weights into one access stream.

    Each part is ``(generator, kwargs, weight)``.  Generators are run for
    their full share up front, then spliced in weighted round-robin chunks
    so phases overlap the way real program phases do at cache scale.

    With ``epochs > 1`` the weight vector is rotated between equal trace
    epochs — program *phase changes*.  Phase changes are what separate
    fast-training prediction schemes from slow ones (the AFE-vs-ANE cold
    start contrast of Section V-E2).
    """
    weights = np.array([w for _, _, w in parts], dtype=float)
    weights /= weights.sum()
    if epochs <= 1:
        return _compose_epoch(rng, parts, weights, total, chunk)
    out: list[MemoryAccess] = []
    per_epoch = total // epochs
    for epoch in range(epochs):
        rotated = np.roll(weights, epoch)
        want = per_epoch if epoch < epochs - 1 else total - len(out)
        out.extend(_compose_epoch(rng, parts, rotated, want, chunk))
    return out[:total]


def _compose_epoch(rng: np.random.Generator,
                   parts: Sequence[tuple[Generator, dict, float]],
                   weights: np.ndarray, total: int,
                   chunk: int) -> list[MemoryAccess]:
    streams = []
    for (gen, kwargs, _), share in zip(parts, weights):
        # Overshoot per-stream shares so rounding can never leave the
        # composed epoch short of its requested length.
        n = max(1, int(total * share) + 2)
        streams.append(gen(rng, n, **kwargs))
    out: list[MemoryAccess] = []
    cursors = [0] * len(streams)
    while any(cursors[i] < len(s) for i, s in enumerate(streams)):
        for i, s in enumerate(streams):
            take = min(max(1, int(chunk * weights[i])), len(s) - cursors[i])
            if take <= 0:
                continue
            out.extend(s[cursors[i]:cursors[i] + take])
            cursors[i] += take
    return out[:total]


def build_trace(name: str, family: str, seed: int,
                parts: Sequence[tuple[Generator, dict, float]], total: int) -> Trace:
    """Build a named, seeded trace from weighted generator parts."""
    rng = np.random.default_rng(seed)
    trace = Trace(name=name, family=family, seed=seed)
    trace.extend(compose(rng, parts, total))
    return trace
