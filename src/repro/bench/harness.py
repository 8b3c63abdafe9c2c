"""Timing/profiling primitives shared by the micro and macro harnesses.

Timing discipline: each benchmark callable is invoked ``number`` times
per repeat, and the *best* repeat is the headline wall-clock (the
standard defence against scheduler noise — the minimum is the run with
the least interference, and throughput is derived from it).  Profiling
runs are separate from timing runs so cProfile's instrumentation never
pollutes the numbers; the top-N rows land in the emitted document for
the profiling-guided-optimization workflow ("what is hot *now*?").
"""

from __future__ import annotations

import cProfile
import json
import os
import platform
import pstats
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..experiments.manifest import current_git_sha
from .schema import BENCH_SCHEMA_VERSION, validate_bench


@dataclass
class BenchRecord:
    """One benchmark's measured result (a ``benchmarks[]`` schema row)."""

    name: str
    repeats: int
    number: int
    per_repeat_seconds: list[float]
    wall_seconds: float          # best repeat, total seconds for `number` calls
    throughput: float            # ops/sec derived from the best repeat
    units: str
    profile: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready row."""
        return {
            "name": self.name,
            "repeats": self.repeats,
            "number": self.number,
            "per_repeat_seconds": self.per_repeat_seconds,
            "wall_seconds": self.wall_seconds,
            "throughput": self.throughput,
            "units": self.units,
            "profile": self.profile,
            "meta": self.meta,
        }


def environment_fingerprint() -> dict:
    """The environment block every bench document carries.

    Enough to tell whether two documents are comparable: interpreter,
    platform, core count and the commit the code was at.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "git_sha": current_git_sha(),
    }


def run_timed(fn: Callable[[], object], *, number: int, repeats: int,
              setup: Callable[[], object] | None = None) -> list[float]:
    """Time ``number`` calls of ``fn``, ``repeats`` times.

    ``setup`` runs before every repeat (outside the timed region) so
    benchmarks that consume state — a fill queue that must be refilled,
    a fresh prefetcher — can reset without charging the reset to the
    measurement.  Returns the per-repeat total seconds.
    """
    if number < 1 or repeats < 1:
        raise ValueError("number and repeats must be >= 1")
    timings: list[float] = []
    perf_counter = time.perf_counter
    for _ in range(repeats):
        if setup is not None:
            setup()
        start = perf_counter()
        for _ in range(number):
            fn()
        timings.append(perf_counter() - start)
    return timings


def profile_top(fn: Callable[[], object], *, number: int, top_n: int,
                setup: Callable[[], object] | None = None) -> list[dict]:
    """cProfile ``number`` calls of ``fn``; return the top-N rows by cumtime.

    Run separately from :func:`run_timed` so instrumentation overhead
    never leaks into wall-clock numbers.
    """
    if top_n <= 0:
        return []
    if setup is not None:
        setup()
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(number):
        fn()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows: list[dict] = []
    for func in stats.fcn_list[:top_n]:  # (file, line, name) in sorted order
        cc, nc, tottime, cumtime, _callers = stats.stats[func]
        filename, line, name = func
        location = f"{Path(filename).name}:{line}" if line else filename
        rows.append({
            "function": f"{location}({name})",
            "ncalls": int(nc),
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        })
    return rows


def measure(name: str, fn: Callable[[], object], *, number: int, repeats: int,
            ops_per_call: float, units: str,
            setup: Callable[[], object] | None = None,
            profile_n: int = 10, meta: dict | None = None) -> BenchRecord:
    """Time (and optionally profile) one benchmark; returns its record."""
    timings = run_timed(fn, number=number, repeats=repeats, setup=setup)
    best = min(timings)
    # Zero-duration repeats cannot happen for real workloads, but guard
    # the division so a degenerate benchmark fails validation, not here.
    throughput = (ops_per_call * number) / best if best > 0 else float("inf")
    profile = profile_top(fn, number=number, top_n=profile_n, setup=setup)
    return BenchRecord(
        name=name, repeats=repeats, number=number,
        per_repeat_seconds=[round(t, 6) for t in timings],
        wall_seconds=round(best, 6), throughput=round(throughput, 3),
        units=units, profile=profile, meta=meta or {})


def build_bench_doc(name: str, kind: str, records: list[BenchRecord]) -> dict:
    """Assemble a schema-valid document from measured records."""
    doc = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "kind": kind,
        "created_unix": time.time(),
        "environment": environment_fingerprint(),
        "benchmarks": [record.to_dict() for record in records],
    }
    problems = validate_bench(doc)
    if problems:  # a harness bug, not a user error — fail loudly
        raise ValueError("bench harness emitted an invalid document:\n  "
                         + "\n  ".join(problems))
    return doc


def write_bench_doc(name: str, kind: str, records: list[BenchRecord],
                    out_dir: str | Path = ".") -> Path:
    """Write ``BENCH_<name>.json`` (validated) and return its path."""
    doc = build_bench_doc(name, kind, records)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path
