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
in the suite is reproducible from its seed, and return the four trace
columns (:data:`~repro.memtrace.trace.TraceArrays`: pcs, addresses,
writes, gaps); :func:`compose` splices column slices and
:meth:`Trace.from_arrays` stores the result.

A loop that makes one kind of random draw makes it as one vector call:
``stream``, ``strided``, ``backward_scan``, ``pointer_chase`` and
``hot_loop`` draw in bulk and compute their addresses in numpy, and
``graph_traversal`` draws each vertex's edge targets at once.  That is
exact: numpy's ``Generator`` fills a vector with the routine a scalar
draw runs once per element, and keeps its 32-bit half-word buffer in the
bit generator, so ``n`` scalar ``integers(lo, hi)`` calls and one
``integers(lo, hi, size=n)`` call return the same values and leave the
same state.  A loop that mixes kinds of draw keeps its scalar order
(``neighborhood_walk``, ``pattern_replay`` and ``graph_traversal``'s
vertex loop): ``random()`` takes a whole 64-bit word and a bounded
integer half of one, so per-kind vector calls would reorder the stream.
``tests/test_perf_equivalence.py`` holds every generator to the
per-access loop it replaced.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np

from .access import CACHELINE_BITS, CACHELINE_BYTES
from .trace import TraceArrays

LINES_PER_REGION = 64
REGION_BYTES = LINES_PER_REGION * CACHELINE_BYTES

# Distinct heap segments keep generators from aliasing each other's regions.
_SEGMENT_BYTES = 1 << 34


def _segment_base(segment: int) -> int:
    return (segment + 1) * _SEGMENT_BYTES


def _line_addresses(segment: int, lines: np.ndarray) -> np.ndarray:
    # Line l of a segment sits in region l // 64 at offset l % 64, which
    # (with floor division) is byte base + 64 * l.  Every synthetic
    # address is below 2**38, so int64 holds it.
    return _segment_base(segment) + np.asarray(lines, dtype=np.int64) \
        * CACHELINE_BYTES


def _columns(pcs, addresses: np.ndarray, gaps,
             writes=False) -> TraceArrays:
    """The four trace columns; a scalar pc, gap or write flag repeats."""
    count = len(addresses)
    return (np.full(count, pcs, dtype=np.int64), addresses,
            np.full(count, writes, dtype=bool),
            np.full(count, gaps, dtype=np.int64))


def stream(rng: np.random.Generator, count: int, *, segment: int = 0,
           pc: int = 0x400100, gap: int = 48) -> TraceArrays:
    """Forward unit-stride stream sweeping sequential regions.

    Produces the all-ones region pattern with trigger offset 0 — the
    canonical stream pattern the ARE scheme fails on (Section V-E2).
    """
    line = int(rng.integers(0, 1 << 20)) * LINES_PER_REGION
    lines = np.arange(line, line + count, dtype=np.int64)
    return _columns(pc, _line_addresses(segment, lines), gap)


def strided(rng: np.random.Generator, count: int, stride: int, *,
            segment: int = 1, pc: int = 0x400200, gap: int = 44,
            start_offset: int | None = None) -> TraceArrays:
    """Constant-stride walk (Astar-style slashes in the Fig 5 heat map).

    The anchored pattern depends only on the stride, not on which offset
    the walk enters a region at, so different trigger offsets see shifted
    copies of one structure.
    """
    line = int(rng.integers(0, 1 << 20)) * LINES_PER_REGION
    if start_offset is not None:
        line += start_offset
    lines = line + stride * np.arange(count, dtype=np.int64)
    return _columns(pc, _line_addresses(segment, lines), gap)


def backward_scan(rng: np.random.Generator, count: int, *, segment: int = 2,
                  pc: int = 0x400300, gap: int = 40,
                  stride: int = 1) -> TraceArrays:
    """MCF-style backward walk over a big array (pred-pointer loops).

    Enters each region near its end (big trigger offsets) and walks down,
    producing the horizontal lines at the bottom of Fig 5a.
    """
    def top() -> int:
        return (int(rng.integers(1 << 18, 1 << 20)) * LINES_PER_REGION
                + LINES_PER_REGION - 1)

    # A walk that would drop below the first region starts again at the
    # top of a freshly drawn one.
    walks = []
    left = count
    line = top()
    while True:
        steps = left if stride <= 0 else \
            min(left, (line - LINES_PER_REGION) // stride + 1)
        walks.append(line - stride * np.arange(steps, dtype=np.int64))
        left -= steps
        if left <= 0:
            break
        line = top()
    return _columns(pc, _line_addresses(segment, np.concatenate(walks)), gap)


def neighborhood_walk(rng: np.random.Generator, count: int, *, segment: int = 3,
                      pc_pool: Sequence[int] = (0x400400, 0x400410, 0x400420),
                      gap: int = 56, spread: int = 3,
                      revisit: float = 0.6) -> TraceArrays:
    """Random walk touching a small neighbourhood around the current line.

    Models the "blue dotted slash" of Fig 5a: most accesses land within a
    few lines of the current position, so anchored patterns concentrate
    close to the trigger offset regardless of its value.
    """
    random, integers = rng.random, rng.integers
    line = int(integers(0, 1 << 18)) * LINES_PER_REGION
    pcs = list(pc_pool)
    n_pcs = len(pcs)
    lines: list[int] = []
    picked: list[int] = []
    for _ in range(count):
        if random() < revisit:
            line += int(integers(1, spread + 1))
        else:
            line = int(integers(0, 1 << 18)) * LINES_PER_REGION + int(
                integers(0, LINES_PER_REGION))
        lines.append(line)
        picked.append(pcs[integers(0, n_pcs)])
    return _columns(np.array(picked, dtype=np.int64),
                    _line_addresses(segment, lines), gap)


def pattern_replay(rng: np.random.Generator, count: int,
                   library: Sequence[tuple[int, Sequence[int]]] | None = None, *,
                   segment: int = 4, n_regions: int = 4096, gap: int = 72,
                   zipf_a: float = 1.4, noise: float = 0.05,
                   pc_base: int = 0x400500) -> TraceArrays:
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
    random, integers, shuffle = rng.random, rng.integers, rng.shuffle
    base = _segment_base(segment)
    bodies = [(trigger, [int(d) for d in deltas]) for trigger, deltas in library]
    ranks = np.arange(1, len(library) + 1, dtype=float)
    weights = ranks ** (-zipf_a)
    weights /= weights.sum()
    # rng.choice(len(library), p=weights) is one random() placed in this
    # cdf by bisect_right, without choice's per-call checks.
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    pcs: list[int] = []
    addresses: list[int] = []
    emitted = 0
    while emitted < count:
        idx = bisect_right(cdf, random())
        trigger, deltas = bodies[idx]
        region = base + int(integers(0, n_regions)) * REGION_BYTES
        # A handful of loop PCs serve many data shapes (paper Fig 5d: the
        # PC feature shows overlapped distributions with limited pattern
        # recognition) — PCs must not be a perfect pattern oracle.
        pc = pc_base + (idx % 3) * 0x40
        pcs.append(pc)
        addresses.append(region + ((trigger % LINES_PER_REGION) << CACHELINE_BITS))
        emitted += 1
        # The *set* of touched offsets is stable per loop body but the
        # *order* varies between visits (hash iteration, out-of-order
        # issue, work stealing).  This is exactly the structure bit-vector
        # pattern forms capture and delta-sequence forms cannot (Section
        # VI-B): shuffled orders fracture SPP-style signatures while
        # leaving PMP's anchored counter vectors untouched.  Shuffling a
        # copy draws what rng.permutation(deltas) draws.
        deltas = deltas.copy()
        shuffle(deltas)
        for delta in deltas:
            if random() < noise:
                continue  # dropped access: pattern variant
            offset = trigger + delta
            if random() < noise:
                offset += int(integers(-1, 2))
            pcs.append(pc)
            addresses.append(region + ((offset % LINES_PER_REGION)
                                       << CACHELINE_BITS))
            emitted += 1
            if emitted >= count:
                break
    return _columns(np.array(pcs, dtype=np.int64),
                    np.array(addresses, dtype=np.int64), gap)


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
                  working_lines: int = 1 << 16) -> TraceArrays:
    """Uniform pointer chasing over a working set — near-unprefetchable.

    Supplies the irregular tail of the workload mix: distinct, rarely
    repeating region patterns (the 75.6% seen-once mass of Observation 1).
    """
    lines = rng.integers(0, working_lines, size=count)
    return _columns(pc, _line_addresses(segment, lines), gap)


def graph_traversal(rng: np.random.Generator, count: int, *, segment: int = 6,
                    n_vertices: int = 1 << 14, avg_degree: int = 8,
                    gap: int = 36) -> TraceArrays:
    """Ligra-style frontier traversal: CSR offsets (stream) + edge targets (random).

    Interleaves a sequential sweep of the vertex/offset arrays with bursts
    of near-random accesses into the neighbour data array — streams mixed
    with irregularity, which is what makes graph workloads expensive for
    heavyweight pattern tables.
    """
    poisson, integers = rng.poisson, rng.integers
    vertices = n_vertices // 8
    edge_range = n_vertices * avg_degree // 8
    # 0: vertex/offset array, 1: edge array, 2: neighbour data array.
    kinds: list[int] = []
    lines: list[int] = []
    vertex_line = 0
    emitted = 0
    while emitted < count:
        kinds.append(0)
        lines.append(vertex_line)
        vertex_line = (vertex_line + 1) % vertices
        emitted += 1
        degree = int(poisson(avg_degree))
        edge_line = int(integers(0, edge_range))
        # Edge, target, edge, target, ...: the visit stops when the trace
        # is full, which may leave its last edge without a target.  Only
        # targets are drawn in this loop, so they are drawn at once.
        left = count - emitted
        edges = min(degree, (left + 1) // 2)
        targets = integers(0, n_vertices, size=min(degree, left // 2)).tolist()
        for e in range(edges):
            kinds.append(1)
            lines.append(edge_line + e)
            if e < len(targets):
                kinds.append(2)
                lines.append(targets[e])
        emitted += edges + len(targets)
    kind = np.array(kinds, dtype=np.intp)
    addresses = (np.array([0, 1 << 28, 1 << 29], dtype=np.int64)[kind]
                 + _line_addresses(segment, lines))
    pcs = np.array([0x400700, 0x400710, 0x400720], dtype=np.int64)[kind]
    return _columns(pcs, addresses, gap)


def hot_loop(rng: np.random.Generator, count: int, *, segment: int = 7,
             lines: int = 512, pc_pool_size: int = 16, write_every: int = 7,
             max_gap: int = 4) -> TraceArrays:
    """Repeated sweep of a small L1-resident working set — hit-heavy.

    After one cold lap every access is an L1 hit with no structural
    events, which is the regime the vectorized fast path
    (:mod:`repro.sim.fastpath`) batches.  Not part of the evaluation
    suites: this is the pinned *performance* workload the macro bench
    uses to measure fast-path throughput, kept out of
    :func:`~repro.memtrace.workloads.full_suite` so the golden evaluation
    fixtures are untouched by its existence.
    """
    start = int(rng.integers(0, 1 << 16)) * LINES_PER_REGION
    gaps = rng.integers(0, max_gap + 1, size=count)
    slots = np.arange(count, dtype=np.int64) % lines
    return _columns(0x400800 + 8 * (slots % pc_pool_size),
                    _line_addresses(segment, start + slots), gaps,
                    writes=slots % write_every == 0)


Generator = Callable[..., TraceArrays]


def compose(rng: np.random.Generator, parts: Sequence[tuple[Generator, dict, float]],
            total: int, *, chunk: int = 2048,
            epochs: int = 1) -> TraceArrays:
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
    pieces = []
    made = 0
    per_epoch = total // epochs
    for epoch in range(epochs):
        rotated = np.roll(weights, epoch)
        want = per_epoch if epoch < epochs - 1 else total - made
        pieces.append(_compose_epoch(rng, parts, rotated, want, chunk))
        made += len(pieces[-1][0])
    return _splice(pieces, total)


def _compose_epoch(rng: np.random.Generator,
                   parts: Sequence[tuple[Generator, dict, float]],
                   weights: np.ndarray, total: int,
                   chunk: int) -> TraceArrays:
    streams = []
    for (gen, kwargs, _), share in zip(parts, weights):
        # Overshoot per-stream shares so rounding can never leave the
        # composed epoch short of its requested length.
        n = max(1, int(total * share) + 2)
        streams.append(gen(rng, n, **kwargs))
    # Each round takes up to max(1, chunk * weight) accesses from every
    # stream in turn; the rounds after the epoch is full add nothing.
    pieces = []
    made = 0
    cursors = [0] * len(streams)
    lengths = [len(stream[0]) for stream in streams]
    while made < total and any(cursor < length for cursor, length
                               in zip(cursors, lengths)):
        for i, stream in enumerate(streams):
            take = min(max(1, int(chunk * weights[i])),
                       lengths[i] - cursors[i])
            if take <= 0:
                continue
            start, cursors[i] = cursors[i], cursors[i] + take
            pieces.append(tuple(column[start:cursors[i]] for column in stream))
            made += take
    return _splice(pieces, total)


def _splice(pieces: Sequence[TraceArrays], total: int) -> TraceArrays:
    """The first ``total`` accesses of the pieces, end to end."""
    if not pieces:
        return _columns(0, np.empty(0, dtype=np.int64), 0)
    return tuple(np.concatenate(columns)[:total] for columns in zip(*pieces))
