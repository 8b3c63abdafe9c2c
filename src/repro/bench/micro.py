"""Micro benchmarks of the kernel's profiled hot paths.

Each benchmark isolates one layer the profiler names in end-to-end runs:
event dispatch (the observer bus), cache lookup/fill (the per-level
storage), fill-queue churn (deferred fills), PMP counter-vector training
and pattern extraction/prediction (the prefetcher's hot loops), the zoo
engines' per-miss train/predict paths plus the hybrid's set-dueling
arbitration, trace decode (packed arrays → columns, the path every
leased job's trace takes when a worker unpickles it) and trace build
(synthesizing the pinned trace from its seed).  Inputs are
pinned — fixed seeds, fixed stream lengths — so two runs of the same
code measure the same work and a ``--compare`` delta means the *code*
changed speed, not the workload.

Scales: ``smoke`` (CI-sized, seconds), ``default``, ``large``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..memtrace.trace import Trace
from ..memtrace.workloads import full_suite
from ..prefetchers.base import FillLevel, NoPrefetcher, NullSystemView
from ..prefetchers.gaze import Gaze
from ..prefetchers.hybrid import SetDuelingArbiter
from ..prefetchers.pangloss import Pangloss
from ..prefetchers.pmp import PMP, extract_afe
from ..prefetchers.sms import PatternCaptureFramework
from ..prefetchers.triangel import Triangel
from ..sim.cache import Cache, CacheStats, FillQueue
from ..sim.core import Core
from ..sim.events import CacheAccess, EventBus
from ..sim.fastpath import MIN_RUN, FastPath
from ..sim.hierarchy import Hierarchy
from ..sim.observers import LevelStatsObserver
from ..sim.params import SystemConfig
from .harness import BenchRecord, measure

MICRO_SEED = 20260806  # pinned: every input stream derives from this

_SCALES = {"smoke": 2_000, "default": 20_000, "large": 100_000}


@dataclass(frozen=True)
class MicroBench:
    """One registered micro benchmark."""

    name: str
    units: str
    build: Callable[[int], tuple[Callable[[], object] | None,
                                 Callable[[], object], float, dict]]
    # build(ops) -> (setup, fn, ops_per_call, meta)


def _pinned_spec():
    """The pinned workload micro inputs derive from (spec06-00)."""
    return next(s for s in full_suite() if s.name == "spec06-00")


def _pinned_trace(accesses: int) -> Trace:
    return _pinned_spec().build(accesses)


def _build_event_dispatch(ops: int):
    """Publish pooled CacheAccess events through live handler lists."""
    bus = EventBus()
    stats = {level: CacheStats() for level in FillLevel}
    LevelStatsObserver(bus, stats)
    handlers = bus.handlers(CacheAccess)
    event = CacheAccess(FillLevel.L1D, 0, False, False, 0.0)

    def fn() -> None:
        ev = event
        for i in range(ops):
            ev.line = i
            ev.hit = (i & 3) != 0
            ev.cycle = float(i)
            for handler in handlers:
                handler(ev)

    return None, fn, float(ops), {"events_per_call": ops}


def _build_cache_lookup_fill(ops: int):
    """Demand lookups with immediate fills on miss (L1D-sized storage)."""
    rng = np.random.default_rng(MICRO_SEED)
    # ~4x the cache's line capacity so the stream misses and evicts.
    lines = rng.integers(0, 4 * 64 * 12, size=ops).tolist()
    config = SystemConfig.default()
    state: dict = {}

    def setup() -> None:
        state["cache"] = Cache(config.l1d, name="bench-l1d")

    def fn() -> None:
        cache = state["cache"]
        access = cache.access
        fill_now = cache.fill_now
        cycle = 0.0
        for line in lines:
            hit, _ = access(line, cycle)
            if not hit:
                fill_now(line, cycle)
            cycle += 1.0

    return setup, fn, float(ops), {"accesses_per_call": ops}


def _build_fill_queue(ops: int):
    """Schedule/drain cycles on the deferred-fill heap."""
    rng = np.random.default_rng(MICRO_SEED + 1)
    readies = rng.integers(1, 500, size=ops).tolist()
    lines = rng.integers(0, 1 << 14, size=ops).tolist()

    def fn() -> None:
        queue = FillQueue()
        push = queue.push
        for ready, line in zip(readies, lines):
            push(float(ready), line, False, False)
        for horizon in (100.0, 250.0, 500.0):
            queue.pop_ready(horizon)

    return None, fn, float(ops), {"fills_per_call": ops}


def _captured_patterns(accesses: int):
    """Completed SMS patterns from the pinned trace (training input)."""
    trace = _pinned_trace(accesses)
    capture = PatternCaptureFramework()
    patterns = []
    for pc, address in zip(trace.pcs, trace.addresses):
        _, _, completed = capture.observe(pc, address)
        patterns.extend(completed)
    patterns.extend(capture.drain())
    return patterns


def _build_pmp_train(ops: int):
    """Merge captured bit vectors into PMP's counter-vector tables."""
    patterns = _captured_patterns(ops)
    state: dict = {}

    def setup() -> None:
        state["pmp"] = PMP()

    def fn() -> None:
        merge = state["pmp"]._merge
        for pattern in patterns:
            merge(pattern)

    return setup, fn, float(len(patterns)), {
        "patterns_per_call": len(patterns), "source_accesses": ops}


def _trained_pmp(accesses: int) -> tuple[PMP, list[tuple[int, int]]]:
    """A PMP trained on the pinned trace, plus its trigger stream."""
    trace = _pinned_trace(accesses)
    pmp = PMP()
    triggers: list[tuple[int, int]] = []
    for pc, address in zip(trace.pcs, trace.addresses):
        is_trigger, offset, completed = pmp.capture.observe(pc, address)
        for pattern in completed:
            pmp._merge(pattern)
        if is_trigger:
            triggers.append((pc, offset))
    return pmp, triggers


def _build_pmp_extract(ops: int):
    """Raw AFE extraction over every trained OPT counter vector."""
    pmp, _ = _trained_pmp(ops)
    vectors = [v for v in pmp.opt if v.time_counter > 0] or pmp.opt[:1]
    rounds = max(1, 512 // len(vectors))

    def fn() -> None:
        for _ in range(rounds):
            for vector in vectors:
                extract_afe(vector, 0.50, 0.15)

    return None, fn, float(rounds * len(vectors)), {
        "vectors": len(vectors), "rounds": rounds, "source_accesses": ops}


def _build_pmp_predict(ops: int):
    """Full prediction path: extract both tables + arbitration, as the
    engine drives it (repeated triggers between merges hit the memo)."""
    pmp, triggers = _trained_pmp(ops)

    def fn() -> None:
        predict = pmp._predict
        for pc, offset in triggers:
            predict(pc, offset)

    return None, fn, float(len(triggers)), {
        "triggers_per_call": len(triggers), "source_accesses": ops}


def _build_fastpath_scan(ops: int):
    """Block-boundary scan + batched apply over a hot resident sweep.

    Drives :class:`~repro.sim.fastpath.FastPath` directly (no engine, no
    prefetcher work): a pre-warmed L1-resident working set swept end to
    end, so the scanner retires the whole stream in blocks and the
    timing isolates the vectorized eligibility scan, core-model
    verification and batched LRU/deque apply.
    """
    rng = np.random.default_rng(MICRO_SEED + 2)
    hot_lines = 256
    base = (1 << 30) >> 6
    gaps = rng.integers(0, 5, size=ops).tolist()
    trace = Trace("bench-fastpath")
    trace.extend((0x400100 + 8 * (i % 16), (base + i % hot_lines) * 64,
                  i % 7 == 0, gaps[i]) for i in range(ops))
    trace.arrays()  # memoised: materialisation stays outside the timing
    config = SystemConfig.default()
    state: dict = {}

    def setup() -> None:
        prefetcher = NoPrefetcher()
        hierarchy = Hierarchy.build(config, prefetcher)
        for j in range(hot_lines):
            for level in hierarchy.levels:
                level.storage.fill_now(base + j, 0.0)
        core = Core(config.core)
        state["scanner"] = FastPath(trace, hierarchy, core, prefetcher)

    def fn() -> None:
        try_run = state["scanner"].try_run
        index, total = 0, ops
        while index < total:
            retired = try_run(index, total)
            if retired:
                index += retired
            elif total - index < MIN_RUN:
                break  # tail shorter than a block: nothing left to scan
            else:  # every access is a warm hit — a decline is a bug
                raise RuntimeError("fastpath_scan declined mid-stream "
                                   f"at access {index}")

    return setup, fn, float(ops), {"accesses_per_call": ops,
                                   "hot_lines": hot_lines}


def _build_engine_drive(ops: int, make_engine):
    """Shared shape for the zoo engines: the pinned trace driven all-miss
    through ``on_access`` against an unbounded view, so the timing covers
    each engine's full train + predict path (the work the registry pays
    per L1D miss)."""
    trace = _pinned_trace(ops)
    stream = list(zip(trace.pcs, trace.addresses))
    view = NullSystemView()
    state: dict = {}

    def setup() -> None:
        state["engine"] = make_engine()

    def fn() -> None:
        on_access = state["engine"].on_access
        for pc, address in stream:
            on_access(pc, address, 0.0, False, view)

    return setup, fn, float(ops), {"accesses_per_call": ops}


def _build_pangloss_chain(ops: int):
    """Pangloss: Markov transition training + greedy chain walks."""
    return _build_engine_drive(ops, Pangloss)


def _build_gaze_pair_predict(ops: int):
    """Gaze: capture-framework churn + pair-keyed second-access predict."""
    return _build_engine_drive(ops, Gaze)


def _build_triangel_filter(ops: int):
    """Triangel: sampler filtering + lookahead-2 Markov issue."""
    return _build_engine_drive(ops, Triangel)


def _build_hybrid_duel(ops: int):
    """Set-dueling arbitration churn in isolation: per-access role
    selection, attribution-map insert, and feedback consume/PSEL update —
    the overhead the hybrid adds on top of its constituents."""
    rng = np.random.default_rng(MICRO_SEED + 3)
    lines = rng.integers(0, 1 << 20, size=ops).tolist()
    goods = (rng.integers(0, 2, size=ops) == 1).tolist()
    state: dict = {}

    def setup() -> None:
        state["arbiter"] = SetDuelingArbiter()

    def fn() -> None:
        arbiter = state["arbiter"]
        select = arbiter.select
        record = arbiter.record_issue
        credit, debit = arbiter.credit, arbiter.debit
        for line, good in zip(lines, goods):
            engine, role = select(line << 6)
            record(line, engine, role)
            if good:
                credit(line)
            else:
                debit(line)

    return setup, fn, float(ops), {"duels_per_call": ops}


def _build_trace_decode(ops: int):
    """Rebuild a trace's four columns from the packed array wire format
    (what a lease worker does to every job's trace it unpickles)."""
    trace = _pinned_trace(ops)
    arrays = trace.to_arrays()

    def fn() -> None:
        Trace.from_arrays("bench-decode", arrays)

    return None, fn, float(ops), {"accesses_per_call": ops}


def _build_trace_build(ops: int):
    """Synthesize the pinned trace from its seed (what every run does for
    each workload it does not load from a trace store)."""
    spec = _pinned_spec()

    def fn() -> None:
        spec.build(ops)

    return None, fn, float(ops), {"accesses_per_call": ops}


MICRO_BENCHMARKS: tuple[MicroBench, ...] = (
    MicroBench("event_dispatch", "events/s", _build_event_dispatch),
    MicroBench("cache_lookup_fill", "accesses/s", _build_cache_lookup_fill),
    MicroBench("fill_queue", "fills/s", _build_fill_queue),
    MicroBench("pmp_train", "merges/s", _build_pmp_train),
    MicroBench("pmp_extract", "extracts/s", _build_pmp_extract),
    MicroBench("pmp_predict", "predictions/s", _build_pmp_predict),
    MicroBench("fastpath_scan", "accesses/s", _build_fastpath_scan),
    MicroBench("pangloss_chain", "accesses/s", _build_pangloss_chain),
    MicroBench("gaze_pair_predict", "accesses/s", _build_gaze_pair_predict),
    MicroBench("triangel_filter", "accesses/s", _build_triangel_filter),
    MicroBench("hybrid_duel", "duels/s", _build_hybrid_duel),
    MicroBench("trace_decode", "accesses/s", _build_trace_decode),
    MicroBench("trace_build", "accesses/s", _build_trace_build),
)


def run_micro(*, scale: str = "default", repeats: int = 5, profile_n: int = 10,
              only: set[str] | None = None) -> list[BenchRecord]:
    """Run the (selected) micro benchmarks; returns their records."""
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}; pick one of {sorted(_SCALES)}")
    ops = _SCALES[scale]
    records: list[BenchRecord] = []
    for bench in MICRO_BENCHMARKS:
        if only is not None and bench.name not in only:
            continue
        setup, fn, ops_per_call, meta = bench.build(ops)
        meta = {"scale": scale, "seed": MICRO_SEED, **meta}
        records.append(measure(bench.name, fn, number=1, repeats=repeats,
                               ops_per_call=ops_per_call, units=bench.units,
                               setup=setup, profile_n=profile_n, meta=meta))
    return records
