"""The workload suite: a thin compiler from scenario specs to traces.

The paper evaluates on 125 traces: 38 from SPEC CPU 2006, 36 from SPEC CPU
2017, 42 from Ligra, and 9 from PARSEC (Table VI).  Those traces are not
redistributable, so this repo ships a synthetic suite with the same family
split — but the recipes no longer live in Python: every workload is a
declarative scenario spec in the committed catalog under
``<repo>/scenarios/`` (see :mod:`repro.scenarios` and
``docs/workloads.md``).  This module compiles those specs into buildable
:class:`WorkloadSpec` objects:

* ``kind="synthetic"`` scenarios compile to a recipe that feeds the
  spec's weighted generator parts through
  :func:`repro.memtrace.synthetic.compose` — bit-identical to the
  pre-catalog hard-coded recipes (pinned by
  ``tests/golden/scenario_catalog_hashes.json``);
* ``kind="champsim"`` scenarios compile to a loader over real ChampSim
  trace files via :mod:`repro.memtrace.champsim`, so DPC/Pythia traces
  and the synthetic catalog run through one code path.

Every trace is deterministic in its (name, seed); ``build()``
materialises it at a chosen size.  ``quick_suite`` picks a small
representative subset for fast experiment/benchmark runs; ``full_suite``
enumerates all 125 (the catalog scenarios tagged ``suite``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..scenarios.catalog import Catalog, cached_catalog, scale_defaults
from ..scenarios.spec import GENERATORS, ScenarioSpec
from . import synthetic as syn
from .trace import Trace, TraceArrays

# The one source of truth for trace lengths is the catalog's
# [defaults.scale] table (scenarios/catalog.toml); this module-level
# constant is its import-time snapshot.
DEFAULT_TRACE_ACCESSES = scale_defaults("accesses")


@dataclass(frozen=True)
class WorkloadSpec:
    """A buildable named workload.

    ``digest`` fingerprints what builds the trace besides its seed: the
    scenario's recipe (or its trace file's path, size and mtime), the
    source of every module the build runs through and the numpy version.
    The on-disk :class:`~repro.memtrace.store.TraceStore` names files by
    it, so a changed recipe, trace file or builder is never served a
    trace built by the old one.
    """

    name: str
    family: str
    seed: int
    recipe: Callable[[np.random.Generator, int], TraceArrays]
    digest: str

    def build(self, accesses: int = DEFAULT_TRACE_ACCESSES) -> Trace:
        """Materialise the trace at the requested length."""
        rng = np.random.default_rng(self.seed)
        return Trace.from_arrays(self.name, self.recipe(rng, accesses),
                                 family=self.family, seed=self.seed)


# ----------------------------------------------------- spec compilation

#: The modules a trace build runs through, relative to the package root.
_BUILD_SOURCES = ("memtrace/synthetic.py", "memtrace/access.py",
                  "memtrace/trace.py", "memtrace/workloads.py",
                  "memtrace/champsim.py", "scenarios/spec.py")


@cache
def _code_digest() -> str:
    """Hash of the :data:`_BUILD_SOURCES` and of numpy's version."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256(np.__version__.encode())
    for source in _BUILD_SOURCES:
        digest.update((root / source).read_bytes())
    return digest.hexdigest()


def _build_digest(**inputs) -> str:
    """Short digest of everything (besides the seed) that builds a trace."""
    text = json.dumps(inputs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _synthetic_recipe(spec: ScenarioSpec,
                      ) -> Callable[[np.random.Generator, int], TraceArrays]:
    """Compile a synthetic scenario's parts into a compose() recipe."""

    def recipe(rng: np.random.Generator, total: int) -> TraceArrays:
        parts = [(GENERATORS[part.generator], dict(part.params), part.weight)
                 for part in spec.parts]
        return syn.compose(rng, parts, total, epochs=spec.epochs)

    return recipe


def _champsim_recipe(spec: ScenarioSpec, path: Path,
                     ) -> Callable[[np.random.Generator, int], TraceArrays]:
    """Compile a champsim scenario into a bounded trace-file loader."""

    def recipe(rng: np.random.Generator, total: int) -> TraceArrays:
        from .champsim import read_champsim

        trace = read_champsim(
            path, name=spec.name,
            skip_instructions=int(spec.source.get("skip_instructions", 0)),
            max_instructions=spec.source.get("max_instructions"),
            max_accesses=total)
        return trace.to_arrays()

    return recipe


def compile_scenario(spec: ScenarioSpec,
                     base_dir: str | Path | None = None) -> WorkloadSpec:
    """Compile one scenario spec into a buildable :class:`WorkloadSpec`.

    ``base_dir`` anchors relative champsim source paths (the catalog
    passes its own directory).  A champsim scenario whose source names a
    directory or glob expands to *several* workloads — use
    :func:`expand_scenario` for those; this function raises on them.
    """
    if spec.kind == "synthetic":
        digest = _build_digest(parts=[part.to_doc() for part in spec.parts],
                               epochs=spec.epochs, code=_code_digest())
        return WorkloadSpec(name=spec.name, family=spec.family,
                            seed=spec.seed, recipe=_synthetic_recipe(spec),
                            digest=digest)
    workloads = expand_scenario(spec, base_dir)
    if len(workloads) != 1:
        raise ValueError(
            f"scenario {spec.name!r} expands to {len(workloads)} workloads "
            "(directory/glob source); use expand_scenario()")
    return workloads[0]


def expand_scenario(spec: ScenarioSpec,
                    base_dir: str | Path | None = None) -> list[WorkloadSpec]:
    """Compile a scenario to its workload list (1 for synthetic/file
    sources; one per trace file for champsim directory/glob sources)."""
    if spec.kind == "synthetic":
        return [compile_scenario(spec)]
    from .champsim import resolve_sources

    paths = resolve_sources(spec.source["path"], base_dir)
    names = ([spec.name] if len(paths) == 1
             else [f"{spec.name}/{path.stem}" for path in paths])
    return [WorkloadSpec(name=name, family=spec.family, seed=spec.seed,
                         recipe=_champsim_recipe(spec, path),
                         digest=_champsim_digest(spec, path))
            for name, path in zip(names, paths)]


def _champsim_digest(spec: ScenarioSpec, path: Path) -> str:
    """Build digest of one trace file: a file rewritten in place (same
    path, new size or mtime) gets a new digest."""
    stat = path.stat()
    return _build_digest(source={**spec.source, "path": str(path)},
                         size=stat.st_size, mtime_ns=stat.st_mtime_ns,
                         code=_code_digest())


def compile_catalog(specs: Sequence[ScenarioSpec],
                    base_dir: str | Path | None = None) -> list[WorkloadSpec]:
    """Compile many scenarios, expanding champsim directory sources."""
    out: list[WorkloadSpec] = []
    for spec in specs:
        out.extend(expand_scenario(spec, base_dir))
    return out


# ------------------------------------------------------- suite selection

def full_suite(catalog: Catalog | None = None) -> list[WorkloadSpec]:
    """All 125 workload specs with the paper's family split (Table VI).

    Backed by the scenario catalog: the suite is every scenario tagged
    ``suite``, in seed order (which reproduces the legacy spec06 →
    spec17 → ligra → parsec enumeration).
    """
    catalog = catalog or cached_catalog()
    return [compile_scenario(spec, catalog.directory)
            for spec in catalog.suite()]


def quick_suite(catalog: Catalog | None = None) -> list[WorkloadSpec]:
    """A small representative subset (2 per family + extremes) for fast runs."""
    by_name = {spec.name: spec for spec in full_suite(catalog)}
    names = [
        "spec06-00",   # MCF-like (backward-heavy)
        "spec06-01",
        "spec17-02",
        "spec17-05",
        "ligra-00",
        "ligra-07",
        "parsec-00",
        "parsec-04",
    ]
    return [by_name[name] for name in names]


def suite_by_family(family: str,
                    catalog: Catalog | None = None) -> list[WorkloadSpec]:
    """All suite specs of one family ('spec06', 'spec17', 'ligra', 'parsec')."""
    return [spec for spec in full_suite(catalog) if spec.family == family]


def build_suite(specs: Sequence[WorkloadSpec] | None = None,
                accesses: int = DEFAULT_TRACE_ACCESSES) -> list[Trace]:
    """Materialise a list of specs (default: the quick suite)."""
    if specs is None:
        specs = quick_suite()
    return [spec.build(accesses) for spec in specs]


def classify_suite(specs: Sequence[WorkloadSpec],
                   accesses: int = 20_000) -> dict[str, list[WorkloadSpec]]:
    """Bucket specs into the paper's Low/Medium/High MPKI classes (Table VII).

    Classification uses short builds of each trace; the class depends on the
    access-pattern recipe, not the build length.
    """
    buckets: dict[str, list[WorkloadSpec]] = {"low": [], "medium": [], "high": []}
    for spec in specs:
        trace = spec.build(accesses)
        buckets[trace.mpki_class()].append(spec)
    return buckets
