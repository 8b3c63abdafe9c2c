"""The end-to-end workloads: seeded inputs, timed figure calls, output checks.

A workload regenerates one paper figure through the public calls the CLI
makes: ``SuiteRunner`` + ``run_single_core`` + ``write_manifest`` for
``pmp-repro fig8``, and ``fig13`` for ``pmp-repro fig13``.  Its traces are
generated from the benchmark seed.

Every simulation's output is reduced to a digest over an explicit list of
``SimResult`` fields.  The digests are checked against the committed golden
file (seeds 0 and 1), or, for other seeds, against the digest ledger that
the first run of a source tree writes.  A simulation that raised or whose
digest differs is a failed operation.  All three Fig 8 modes check the same
reference, so serial, pool and cache-replay results must agree job by job.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from pathlib import Path

import numpy as np

import calibrate
import tracing
from repro.experiments import multi_core
from repro.experiments.engine import ExperimentEngine
from repro.experiments.faults import BatchFailed
from repro.experiments.journal import RunJournal
from repro.experiments.multi_core import fig13, fig13_report
from repro.experiments.runner import SuiteRunner
from repro.experiments.single_core import run_single_core
from repro.memtrace.workloads import quick_suite
from repro.prefetchers import PMP, Bingo

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden.json"

#: One recipe per suite family: the first quick-suite scenario of each.
#: The seed draws each recipe's generator seed, so every seed simulates
#: fresh traces with the family's access behaviour.  Drawing the scenario
#: itself from the 125-trace suite makes one figure's cost swing by about
#: 8% between seeds, which is more than a regression bound can absorb.
RECIPES = ("spec06-00", "spec17-02", "ligra-00", "parsec-00")
FIG13_PREFETCHERS = {"pmp": PMP, "bingo": Bingo}
WORKLOADS = ("fig8-serial", "fig8-workers2", "fig8-warm", "fig13-mix")

#: Seconds one timed sample takes at the reference host speed.  A run asked
#: to measure for S seconds times max(minimum, round(S / this)) samples:
#: the count follows from S alone, never from how fast the run happens to
#: go, so both sides of a comparison do the same work.
NOMINAL_S = {"fig8-serial": 8.0, "fig8-workers2": 4.9, "fig8-warm": 0.68,
             "fig13-mix": 14.5}

LEVEL_FIELDS = ("demand_accesses", "demand_hits", "demand_misses",
                "prefetch_fills", "useful_prefetches", "useless_prefetches",
                "late_prefetch_hits")


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark run."""

    traces: int = len(RECIPES)
    #: Sized so that about a hundred runs across the four workloads fit
    #: in an hour even while the host runs at half its usual speed.
    fig8_accesses: int = 4_000
    fig13_accesses: int = 3_000
    #: Timed cache replays per fig8-warm run: enough that the 75th
    #: percentile has ten samples beyond it.
    warm_replays: int = 40
    #: Replays on each side (plain, traced) of a traced fig8-warm run.
    trace_replays: int = 5

    def figure_key(self, figure: str) -> str:
        accesses = self.fig8_accesses if figure == "fig8" else self.fig13_accesses
        return f"{figure}@{self.traces}x{accesses}"


FULL = Scale()


def draw_specs(seed: int, count: int = len(RECIPES)) -> list:
    """The run's workload specs: each recipe with a seed-drawn generator seed."""
    by_name = {spec.name: spec for spec in quick_suite()}
    rng = np.random.default_rng(seed)
    return [replace(by_name[name], name=f"{name}.s{seed}",
                    seed=int(rng.integers(1 << 31)))
            for name in RECIPES[:count]]


# ------------------------------------------------------------------ digests

def result_digest(result) -> str:
    """Digest over an explicit list of ``SimResult`` fields.

    The fields are listed rather than taken from ``to_dict()`` so that a
    new optional block on ``SimResult`` leaves every digest unchanged.
    """
    fields = [
        result.instructions,
        repr(result.cycles),
        [[name] + [getattr(stats, f) for f in LEVEL_FIELDS]
         for name, stats in sorted(result.levels.items())],
        [result.dram_demand_requests, result.dram_prefetch_requests,
         result.dram_writeback_requests],
        sorted([int(level), count]
               for level, count in result.issued_prefetches.items()),
        result.dropped_prefetches,
    ]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()[:16]


def op_digest(result) -> str | None:
    """Digest of one operation: a job's result or a multicore result list."""
    if result is None:
        return None
    if isinstance(result, list):
        joined = ",".join(result_digest(r) for r in result)
        return hashlib.sha256(joined.encode()).hexdigest()[:16]
    return result_digest(result)


def source_fingerprint() -> str:
    """Hash of the simulator's sources and scenario catalog."""
    digest = hashlib.sha256()
    files = sorted([*(ROOT / "src").rglob("*.py"),
                    *(ROOT / "scenarios").rglob("*.toml")])
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Verifier:
    """Checks a figure's digests against the golden file or the ledger.

    The ledger holds the digests of the first run of each (figure, seed)
    under one source fingerprint, so runs of other seeds still catch a mode
    that disagrees with the others.  ``record_golden`` rewrites the golden
    entry for the run's seed instead of checking it.
    """

    def __init__(self, ledger_dir: Path, *, record_golden: bool = False,
                 golden_path: Path = GOLDEN) -> None:
        self.ledger_dir = Path(ledger_dir)
        self.record_golden = record_golden
        self.golden_path = golden_path

    def _golden(self) -> dict:
        if not self.golden_path.exists():
            return {}
        return json.loads(self.golden_path.read_text())

    @cached_property
    def _source(self) -> str:
        return source_fingerprint()

    def _ledger(self, figure: str, seed: int, digests: dict) -> dict:
        path = self.ledger_dir / self._source / f"{figure}-seed{seed}.json"
        if path.exists():
            return json.loads(path.read_text())
        reference = {k: v for k, v in digests.items() if v is not None}
        if len(reference) == len(digests):
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(reference, indent=1, sort_keys=True))
            tmp.replace(path)
        return reference

    def mismatches(self, figure: str, seed: int, digests: dict) -> list[str]:
        """Labels whose digest is missing, failed or differs from the reference."""
        if self.record_golden and None not in digests.values():
            golden = self._golden()
            golden.setdefault(figure, {})[str(seed)] = digests
            self.golden_path.write_text(
                json.dumps(golden, indent=1, sort_keys=True) + "\n")
            return []
        reference = self._golden().get(figure, {}).get(str(seed))
        if reference is None:
            reference = self._ledger(figure, seed, digests)
        return sorted(label for label in reference.keys() | digests.keys()
                      if digests.get(label) is None
                      or reference.get(label) != digests[label])


# ----------------------------------------------------------- result capture

@dataclass
class Captured:
    """The operations of one figure call, plus the engine's counters."""

    ops: dict = field(default_factory=dict)
    jobs: int = 0
    simulated: int = 0
    cache_hits: int = 0


class Capture:
    """Records the result of every simulation a figure call makes.

    Fig 8 results are taken at ``ExperimentEngine.run_jobs`` (one label per
    job, ``trace/prefetcher``); Fig 13 results at ``simulate_multicore`` as
    ``fig13`` looks it up (one label per four-core simulation, numbered in
    call order).  A failed operation is recorded as ``None``.
    """

    def __init__(self) -> None:
        self.current = Captured()
        self._originals: list = []

    def take(self) -> Captured:
        taken, self.current = self.current, Captured()
        return taken

    def install(self) -> None:
        capture = self
        run_jobs = ExperimentEngine.run_jobs
        simulate_multicore = multi_core.simulate_multicore

        def recording_run_jobs(engine, jobs):
            results: list = [None] * len(jobs)
            counters = engine.counters
            before = counters.simulated, counters.cache_hits
            try:
                results = run_jobs(engine, jobs)
                return results
            except BatchFailed as exc:
                results = exc.results
                raise
            finally:
                current = capture.current
                for job, result in zip(jobs, results):
                    label = f"{job.trace.name}/{job.prefetcher.name}"
                    current.ops[label] = result
                current.jobs += len(jobs)
                current.simulated += counters.simulated - before[0]
                current.cache_hits += counters.cache_hits - before[1]

        def recording_simulate_multicore(traces, prefetcher_factory=None,
                                         *args, **kwargs):
            current = capture.current
            names = "+".join(t.name.rsplit("@", 1)[0] for t in traces)
            label = (f"{len(current.ops):02d}:{names}/"
                     f"{tracing.engine_name(prefetcher_factory)}")
            current.ops[label] = None
            results = simulate_multicore(traces, prefetcher_factory,
                                         *args, **kwargs)
            current.ops[label] = results
            return results

        self._originals = [(ExperimentEngine, "run_jobs", run_jobs),
                           (multi_core, "simulate_multicore",
                            simulate_multicore)]
        ExperimentEngine.run_jobs = recording_run_jobs
        multi_core.simulate_multicore = recording_simulate_multicore

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals = []


# ------------------------------------------------------------ figure calls

def fig8_figure(specs, accesses: int, cache_dir: Path, workers: int) -> str:
    """``pmp-repro fig8 --workers N --cache-dir DIR`` through its public calls."""
    cache_dir = Path(cache_dir)
    journal = RunJournal(cache_dir / "runs")
    runner = SuiteRunner(specs=specs, accesses=accesses, workers=workers,
                         cache=cache_dir, journal=journal)
    try:
        results = run_single_core(runner, include_pmp_limit=True)
        return results.fig8_report() + "\n\n" + results.nmt_report()
    finally:
        runner.write_manifest("fig8", cache_dir / "manifests")
        journal.close()


def fig13_figure(specs, accesses: int, seed: int) -> str:
    """``pmp-repro fig13`` for PMP and Bingo, with the mix draw seeded.

    ``fig13`` draws its Table VII mixes through the module-level
    ``build_heterogeneous_mixes``; binding the seed there is how the
    benchmark seed reaches the draw.
    """
    draw = multi_core.build_heterogeneous_mixes
    multi_core.build_heterogeneous_mixes = partial(draw, seed=seed)
    try:
        return fig13_report(fig13(specs, accesses=accesses,
                                  prefetchers=FIG13_PREFETCHERS))
    finally:
        multi_core.build_heterogeneous_mixes = draw


# -------------------------------------------------------------- workloads

@dataclass
class Run:
    """One workload run: its inputs, where it writes, and what it found."""

    name: str
    seed: int
    specs: list
    scale: Scale
    workdir: Path
    verifier: Verifier
    attempted: int = 0
    failed: int = 0
    #: label -> digest of the last checked figure.
    digests: dict = field(default_factory=dict)
    #: Operations of the last figure (model metrics come from these).
    last: Captured = field(default_factory=Captured)
    #: Set while a traced figure runs; the figure call becomes its root span.
    recorder: tracing.Recorder | None = None

    @property
    def cache_dir(self) -> Path:
        return self.workdir / "cache"

    def call(self, workers: int = 0) -> None:
        if self.name == "fig13-mix":
            fig13_figure(self.specs, self.scale.fig13_accesses, self.seed)
        else:
            fig8_figure(self.specs, self.scale.fig8_accesses, self.cache_dir,
                        workers)

    def verify(self, captured: Captured) -> None:
        figure = "fig13" if self.name == "fig13-mix" else "fig8"
        digests = {label: op_digest(result)
                   for label, result in captured.ops.items()}
        bad = self.verifier.mismatches(self.scale.figure_key(figure),
                                       self.seed, digests)
        self.attempted += len(set(digests) | set(bad))
        self.failed += len(bad)
        if bad:
            print(f"[{self.name}] {len(bad)} operation(s) failed or "
                  f"mismatched: {', '.join(bad[:5])}", file=sys.stderr)
        self.digests = digests
        self.last = captured


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _sample(run: Run, capture: Capture, workers: int,
            ticker: calibrate.Ticker | None = None) -> tuple[float, ...]:
    """One timed figure call, as (wall, cpu, start, end) seconds.

    The output check runs after the clock stops, and the calibration loop's
    own time is taken out of wall and cpu.  Garbage left by the previous
    call is collected before the clock starts, so each call pays for its
    own.
    """
    if run.name != "fig8-warm":
        shutil.rmtree(run.cache_dir, ignore_errors=True)
    capture.take()
    gc.collect()
    spent0 = ticker.spent if ticker else 0.0
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        if run.recorder is not None:
            run.recorder.call("figure", run.call, workers)
        else:
            run.call(workers)
    except Exception:  # noqa: BLE001 -- a failed figure is counted, not fatal
        traceback.print_exc()
    end = time.perf_counter()
    cpu = cpu_seconds() - cpu0
    spent = (ticker.spent if ticker else 0.0) - spent0
    run.verify(capture.take())
    return end - start - spent, cpu - spent, start, end


def _measure(run: Run, capture: Capture, workers: int, count: int) -> dict:
    """``count`` figures, timed and scaled to the reference host speed.

    ``samples`` holds (wall, cpu) pairs, each scaled by the host speed the
    calibration loop saw while that figure ran; ``raw_walls`` the measured
    wall seconds; ``speed`` the host speed over the whole block.
    """
    forked = run.workdir / "ticks" if workers > 1 else None
    with calibrate.Ticker(forked) as ticker:
        timed = [_sample(run, capture, workers, ticker) for _ in range(count)]
    samples = []
    for wall, cpu, start, end in timed:
        speed = ticker.speed(start, end)
        samples.append((wall * speed, cpu * speed))
    return {"samples": samples, "raw_walls": [t[0] for t in timed],
            "speed": ticker.speed()}


def _median_wall(measured: dict) -> float:
    """Median wall seconds at the reference host speed."""
    return statistics.median(wall for wall, _ in measured["samples"])


def run_workload(name: str, specs, seed: int, workdir: Path, *,
                 scale: Scale = FULL, seconds: float = 0.0,
                 traced: bool = False, verifier: Verifier | None = None,
                 load_s: float = 0.0) -> dict:
    """Run one workload and return its samples and checks as a dict.

    ``seconds`` sets how many figures are timed (see ``NOMINAL_S``).
    ``traced`` runs the workload plain, then again with every layer
    boundary wrapped, and adds the per-layer metrics and ``spans.json``.
    ``load_s`` is the catalog load and spec compile time of the caller's
    set-up, reported as ``scenarios.load_s``.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(name, seed, list(specs), scale, workdir,
              verifier or Verifier(workdir / "ledger"))
    workers = 2 if name == "fig8-workers2" else 0
    warm = name == "fig8-warm"
    capture = Capture()
    capture.install()
    try:
        if warm:
            # Fill the cache the replays read (untimed; checked like any
            # other figure, which makes it the pool-vs-replay comparison).
            shutil.rmtree(run.cache_dir, ignore_errors=True)
            _sample(run, capture, workers=2)
        if not traced:
            count = max(scale.warm_replays if warm else 1,
                        round(seconds / NOMINAL_S[name]))
            payload = _measure(run, capture, workers, count)
        else:
            count = scale.trace_replays if warm else 1
            plain = _measure(run, capture, workers, count)
            recorder = run.recorder = tracing.Recorder()
            recorder.install()
            try:
                wrapped = _measure(run, capture, workers, count)
            finally:
                recorder.uninstall()
                run.recorder = None
            recorder.write(workdir / "spans.json", workload=name, seed=seed,
                           figures=count)
            overhead = _median_wall(wrapped) / _median_wall(plain) - 1.0
            payload = {
                **wrapped,
                "per_layer": tracing.layer_metrics(
                    recorder, figures=count, captured=run.last,
                    load_s=load_s, overhead=overhead),
                "missing_boundaries": tracing.missing_boundaries(recorder,
                                                                 name),
            }
    finally:
        capture.uninstall()
    payload.update(attempted=run.attempted, failed=run.failed,
                   digests=run.digests, peak_rss_mb=peak_rss_mb())
    return payload
