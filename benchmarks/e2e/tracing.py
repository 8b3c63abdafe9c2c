"""Layer spans for the traced benchmark run.

The traced run wraps the simulator's public layer boundaries at class (or
module) level before any object is built, so every object the figure call
creates calls through the wrappers:

* coarse boundaries record one span each: name, start, end, parent and job;
* per-access boundaries, called once or more for every simulated access,
  are aggregated per parent span as a call count, total time and self time.

A span's self time is its duration minus the part its wrapped children
cover.  Spans stay in memory and are written to ``spans.json`` at the end.
Pool workers are forked after the wrappers are installed, so they run
wrapped too, but their spans stay in the worker and are not collected.
"""

from __future__ import annotations

import itertools
import json
import time
from functools import wraps
from pathlib import Path

from repro.experiments import engine as engine_module
from repro.experiments import multi_core
from repro.experiments.cache import ResultCache
from repro.experiments.engine import ExperimentEngine, SimJob
from repro.experiments.journal import RunJournal
from repro.experiments.runner import SuiteRunner
from repro.memtrace.trace import Trace
from repro.memtrace.workloads import WorkloadSpec
from repro.prefetchers.base import Prefetcher
from repro.sim.dram import Dram
from repro.sim.fastpath import FastPath
from repro.sim.hierarchy import Hierarchy
from repro.sim.level import CacheLevel

#: The ten Fig 8 engines (nine registered competitors plus pmp-limit) and
#: the no-prefetch baseline, by ``Prefetcher.name``.
ENGINES = ("dspatch", "bingo", "spp+ppf", "pythia", "pmp", "pangloss", "gaze",
           "triangel", "hybrid", "pmp-limit")
CONFIGS = ENGINES + ("none",)


def metric_engine(name: str) -> str:
    """An engine name as a metric name component (``spp+ppf`` -> ``spp-ppf``)."""
    return "baseline" if name == "none" else name.replace("+", "-")


def _first_arg_key(args, kwargs) -> str:
    return str(args[1])[:12]


def _simulate_attrs(args, kwargs) -> dict:
    prefetcher = args[1] if len(args) > 1 else kwargs.get("prefetcher")
    return {"engine": prefetcher.name if prefetcher is not None else "none",
            "accesses": len(args[0]), "prefetcher_id": id(prefetcher)}


def engine_name(factory) -> str:
    """A prefetcher factory's engine name (classes carry it as ``name``)."""
    return (getattr(factory, "name", None) or getattr(factory, "__name__", None)
            or "none")


def _multicore_attrs(args, kwargs) -> dict:
    factory = args[1] if len(args) > 1 else kwargs.get("prefetcher_factory")
    return {"engine": engine_name(factory),
            "accesses": sum(len(t) for t in args[0])}


#: Coarse boundaries: (span name, owner, attribute, args -> job id or None,
#: args -> attrs or None).
COARSE = (
    ("memtrace.build", WorkloadSpec, "build", None, None),
    ("memtrace.content_hash", Trace, "content_hash", None, None),
    ("memtrace.to_arrays", Trace, "to_arrays", None, None),
    ("engine.key", SimJob, "key", None, None),
    ("cache.get", ResultCache, "get", _first_arg_key, None),
    ("cache.put", ResultCache, "put", _first_arg_key, None),
    ("journal.record_done", RunJournal, "record_done", _first_arg_key, None),
    ("journal.lookup", RunJournal, "lookup", _first_arg_key, None),
    ("engine.run_jobs", ExperimentEngine, "run_jobs", None,
     lambda args, kwargs: {"jobs": len(args[1])}),
    ("runner.write_manifest", SuiteRunner, "write_manifest", None, None),
    ("sim.simulate", engine_module, "simulate", None, _simulate_attrs),
    ("sim.simulate_multicore", multi_core, "simulate_multicore", None,
     _multicore_attrs),
)

#: Per-access boundaries: (name, owner, attribute, result -> extra count).
#: ``on_access`` is wrapped on every Prefetcher class that defines it.
FINE = (
    ("sim.demand_access", Hierarchy, "demand_access", None),
    ("sim.issue_prefetch", Hierarchy, "issue_prefetch", None),
    ("sim.apply_fill", CacheLevel, "apply_fill", None),
    ("sim.dram_request", Dram, "request", None),
    ("fastpath.try_run", FastPath, "try_run", int),
)
ON_ACCESS = "prefetcher.on_access"

#: The boundaries each workload must reach; the traced run names any that
#: stayed silent.  fig13-mix has no fast path, fig8-warm simulates nothing,
#: and fig8-workers2 simulates in pool workers whose spans are not kept.
_FIG8 = {"memtrace.build", "memtrace.content_hash", "memtrace.to_arrays",
         "engine.key", "cache.get", "journal.lookup", "engine.run_jobs",
         "runner.write_manifest"}
_SIM = {"sim.demand_access", "sim.issue_prefetch", "sim.apply_fill",
        "sim.dram_request", ON_ACCESS}
EXPECTED = {
    "fig8-serial": _FIG8 | _SIM | {"cache.put", "journal.record_done",
                                   "sim.simulate", "fastpath.try_run"},
    "fig8-workers2": _FIG8 | {"cache.put", "journal.record_done"},
    "fig8-warm": _FIG8,
    "fig13-mix": _SIM | {"memtrace.build", "sim.simulate_multicore"},
}


def _prefetcher_classes() -> list[type]:
    found, todo = [], [Prefetcher]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in found if "on_access" in cls.__dict__]


class Recorder:
    """Collects spans while its wrappers are installed."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        #: Per-access aggregates reached outside any coarse span.
        self.orphans: dict[str, list] = {}
        self._open: list[dict] = []
        self._frames: list[list[float]] = []
        self._ids = itertools.count(1)
        self._job_by_prefetcher: dict[int, str] = {}
        self._originals: list = []

    # ----------------------------------------------------------- wrappers

    def _coarse(self, name, fn, job_of, attrs_of):
        recorder = self
        frames, open_spans, clock = self._frames, self._open, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = open_spans[-1] if open_spans else None
            attrs = attrs_of(args, kwargs) if attrs_of else {}
            job = job_of(args, kwargs) if job_of else None
            if name == "sim.simulate":
                job = recorder._job_by_prefetcher.get(attrs.pop("prefetcher_id"))
            if job is None and parent is not None:
                job = parent["job"]
            span = {"id": next(recorder._ids), "name": name,
                    "parent": parent["id"] if parent else None, "job": job,
                    "attrs": attrs, "calls": {}}
            frame = [clock(), 0.0]
            frames.append(frame)
            open_spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                open_spans.pop()
                duration = end - frame[0]
                if frames:
                    frames[-1][1] += duration
                span["start"] = frame[0] - recorder.origin
                span["end"] = end - recorder.origin
                span["self_s"] = duration - frame[1]
                recorder.spans.append(span)
            if name == "engine.key":
                # The job id is the key itself, known only now: hand it to
                # the spans this call opened (content hashing) as well.
                job = span["job"] = result[:12]
                recorder._job_by_prefetcher[id(args[0].prefetcher)] = job
                for child in reversed(recorder.spans[:-1]):
                    if child["start"] < span["start"]:
                        break
                    child["job"] = job
            elif name == "cache.get":
                span["attrs"]["hit"] = result is not None
            elif name == "memtrace.build":
                span["attrs"]["accesses"] = len(result)
            return result

        return wrapper

    def _fine(self, name, fn, extra):
        recorder = self
        frames, open_spans, clock = self._frames, self._open, time.perf_counter
        active = [0]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            frames.append(frame)
            active[0] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[0] -= 1
                frames.pop()
                duration = end - frame[0]
                if frames:
                    frames[-1][1] += duration
                calls = open_spans[-1]["calls"] if open_spans else recorder.orphans
                stat = calls.get(name)
                if stat is None:
                    stat = calls[name] = [0, 0.0, 0.0, 0]
                stat[1] += duration - frame[1]
                if not active[0]:
                    # Outermost call of this name (a hybrid's constituents
                    # call on_access inside its own): count it once.
                    stat[0] += 1
                    stat[2] += duration
            if extra is not None and not active[0]:
                stat[3] += extra(result)
            return result

        return wrapper

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as one coarse span (the benchmark's own root)."""
        return self._coarse(name, fn, None, None)(*args)

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._originals.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        """Wrap every boundary; undo with :meth:`uninstall`."""
        for name, owner, attribute, job_of, attrs_of in COARSE:
            original = (owner.__dict__[attribute] if isinstance(owner, type)
                        else getattr(owner, attribute))
            self._patch(owner, attribute,
                        self._coarse(name, original, job_of, attrs_of))
        for name, owner, attribute, extra in FINE:
            self._patch(owner, attribute,
                        self._fine(name, owner.__dict__[attribute], extra))
        for cls in _prefetcher_classes():
            self._patch(cls, "on_access",
                        self._fine(ON_ACCESS, cls.__dict__["on_access"], len))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals = []

    # ------------------------------------------------------------ readout

    def fired(self) -> set[str]:
        """Names of every boundary that was called at least once."""
        names = {span["name"] for span in self.spans}
        for calls in [self.orphans, *(span["calls"] for span in self.spans)]:
            names.update(name for name, stat in calls.items() if stat[0])
        return names

    def write(self, path: Path, **meta) -> None:
        """Write the spans (times in seconds from the recorder's origin)."""
        calls_keys = ("calls", "self_s", "total_s", "extra")
        spans = [{**span, "calls": {name: dict(zip(calls_keys, stat))
                                    for name, stat in span["calls"].items()}}
                 for span in sorted(self.spans, key=lambda s: s["start"])]
        path.write_text(json.dumps({**meta, "clock": "perf_counter seconds",
                                    "spans": spans}, indent=1))


def missing_boundaries(recorder: Recorder, workload: str) -> list[str]:
    """Boundaries the workload should reach but did not."""
    return sorted(EXPECTED[workload] - recorder.fired())


# ---------------------------------------------------------- layer metrics

def _per_layer_units() -> dict[str, str]:
    units = {
        "sim.demand_calls": "count", "sim.demand_s": "s",
        "sim.prefetch_issue_calls": "count", "sim.prefetch_issue_s": "s",
        "sim.fill_calls": "count", "sim.fill_s": "s",
        "sim.fills_per_access": "ratio",
        "sim.dram_calls": "count", "sim.dram_s": "s",
        "sim.simulate_calls": "count", "sim.driver_self_s": "s",
        "sim.us_per_access": "us",
        "fastpath.calls": "count", "fastpath.s": "s",
        "fastpath.coverage": "ratio",
        "multicore.sims": "count", "multicore.self_s": "s",
    }
    for engine in ENGINES:
        units[f"prefetcher.{metric_engine(engine)}.on_access_s"] = "s"
        units[f"prefetcher.{metric_engine(engine)}.requests_per_access"] = "ratio"
    for config in CONFIGS:
        units[f"job.{metric_engine(config)}.s"] = "s"
    units.update({
        "engine.self_s": "s", "engine.wait_s": "s", "engine.jobs": "count",
        "engine.simulated": "count", "engine.cache_hits": "count",
        "memtrace.to_arrays_s": "s",
        "engine.key_s": "s", "cache.get_s": "s", "cache.put_s": "s",
        "cache.hit_ratio": "ratio",
        "journal.s": "s", "manifest.s": "s",
        "memtrace.build_s": "s", "memtrace.build_accesses": "count",
        "memtrace.hash_s": "s", "scenarios.load_s": "s",
        "model.l1d_demand_misses": "count", "model.llc_demand_misses": "count",
        "model.prefetch_fills": "count", "model.dram_requests": "count",
        "model.l1d_accuracy": "ratio", "model.prefetch_drop_ratio": "ratio",
        "trace.overhead": "ratio",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def model_metrics(ops: dict) -> dict[str, float]:
    """Simulated-time totals over one figure's results (host-independent)."""
    results = []
    for result in ops.values():
        if isinstance(result, list):
            results.extend(result)
        elif result is not None:
            results.append(result)
    levels = [r.levels[name] for r in results for name in r.levels]
    l1d = [r.levels["l1d"] for r in results]
    useful = sum(s.useful_prefetches for s in l1d)
    useless = sum(s.useless_prefetches for s in l1d)
    issued = sum(sum(r.issued_prefetches.values()) for r in results)
    dropped = sum(r.dropped_prefetches for r in results)
    return {
        "model.l1d_demand_misses": sum(s.demand_misses for s in l1d),
        "model.llc_demand_misses": sum(r.levels["llc"].demand_misses
                                       for r in results),
        "model.prefetch_fills": sum(s.prefetch_fills for s in levels),
        "model.dram_requests": sum(r.dram_requests for r in results),
        "model.l1d_accuracy": _ratio(useful, useful + useless),
        "model.prefetch_drop_ratio": _ratio(dropped, issued + dropped),
    }


def layer_metrics(recorder: Recorder, *, figures: int, captured,
                  load_s: float, overhead: float) -> dict[str, list]:
    """Every per-layer metric as ``{name: [value, unit]}``, per figure.

    Additive numbers are summed over the traced figures and divided by
    ``figures``; ratios are taken over the sums.  ``captured`` holds the
    last figure's results and engine counters.
    """
    spans = recorder.spans
    calls: dict[str, list] = {}
    by_engine: dict[str, dict] = {}
    for span in spans:
        engine = span["attrs"].get("engine")
        for name, stat in span["calls"].items():
            merged = calls.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(stat):
                merged[i] += value
            if engine is not None and name == ON_ACCESS:
                per = by_engine.setdefault(engine, {"s": 0.0, "calls": 0,
                                                    "requests": 0, "job_s": 0.0})
                per["s"] += stat[1]
                per["calls"] += stat[0]
                per["requests"] += stat[3]
        if span["name"] in ("sim.simulate", "sim.simulate_multicore"):
            per = by_engine.setdefault(engine, {"s": 0.0, "calls": 0,
                                                "requests": 0, "job_s": 0.0})
            per["job_s"] += span["end"] - span["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(*names):
        return sum(s["end"] - s["start"] for n in names for s in named(n))

    def self_time(name):
        return sum(s["self_s"] for s in named(name))

    def stat(name, index):
        return calls.get(name, [0, 0.0, 0.0, 0])[index]

    simulate = named("sim.simulate")
    accesses = sum(s["attrs"]["accesses"] for s in simulate)
    gets = named("cache.get")
    builds = named("memtrace.build")
    n = figures
    values = {
        "sim.demand_calls": stat("sim.demand_access", 0) / n,
        "sim.demand_s": stat("sim.demand_access", 1) / n,
        "sim.prefetch_issue_calls": stat("sim.issue_prefetch", 0) / n,
        "sim.prefetch_issue_s": stat("sim.issue_prefetch", 1) / n,
        "sim.fill_calls": stat("sim.apply_fill", 0) / n,
        "sim.fill_s": stat("sim.apply_fill", 1) / n,
        "sim.fills_per_access": _ratio(stat("sim.apply_fill", 0),
                                       stat("sim.demand_access", 0)),
        "sim.dram_calls": stat("sim.dram_request", 0) / n,
        "sim.dram_s": stat("sim.dram_request", 1) / n,
        "sim.simulate_calls": len(simulate) / n,
        "sim.driver_self_s": self_time("sim.simulate") / n,
        "sim.us_per_access": _ratio(total("sim.simulate") * 1e6, accesses),
        "fastpath.calls": stat("fastpath.try_run", 0) / n,
        "fastpath.s": stat("fastpath.try_run", 1) / n,
        "fastpath.coverage": _ratio(stat("fastpath.try_run", 3), accesses),
        "multicore.sims": len(named("sim.simulate_multicore")) / n,
        "multicore.self_s": self_time("sim.simulate_multicore") / n,
    }
    for engine in ENGINES:
        per = by_engine.get(engine, {"s": 0.0, "calls": 0, "requests": 0})
        key = metric_engine(engine)
        values[f"prefetcher.{key}.on_access_s"] = per["s"] / n
        values[f"prefetcher.{key}.requests_per_access"] = _ratio(
            per["requests"], per["calls"])
    for config in CONFIGS:
        values[f"job.{metric_engine(config)}.s"] = (
            by_engine.get(config, {}).get("job_s", 0.0) / n)
    values.update({
        # The figure call's own work outside every wrapped boundary: job
        # and prefetcher construction, aggregation and report rendering.
        "engine.self_s": self_time("figure") / n,
        "engine.wait_s": self_time("engine.run_jobs") / n,
        "engine.jobs": captured.jobs,
        "engine.simulated": captured.simulated,
        "engine.cache_hits": captured.cache_hits,
        "memtrace.to_arrays_s": total("memtrace.to_arrays") / n,
        "engine.key_s": total("engine.key") / n,
        "cache.get_s": total("cache.get") / n,
        "cache.put_s": total("cache.put") / n,
        "cache.hit_ratio": _ratio(sum(1 for s in gets if s["attrs"]["hit"]),
                                  len(gets)),
        "journal.s": total("journal.record_done", "journal.lookup") / n,
        "manifest.s": total("runner.write_manifest") / n,
        "memtrace.build_s": total("memtrace.build") / n,
        "memtrace.build_accesses": sum(s["attrs"].get("accesses", 0)
                                       for s in builds) / n,
        "memtrace.hash_s": total("memtrace.content_hash") / n,
        "scenarios.load_s": load_s,
    })
    values.update(model_metrics(captured.ops))
    values["trace.overhead"] = overhead
    return {name: [values[name], unit] for name, unit in PER_LAYER_UNITS.items()}
