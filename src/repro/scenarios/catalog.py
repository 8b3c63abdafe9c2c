"""The scenario catalog: a directory of spec files loaded as one unit.

The committed catalog lives at ``<repo>/scenarios/`` (override with the
``REPRO_SCENARIOS`` environment variable or the ``--catalog`` CLI flag).
Every ``*.toml`` file in the directory — recursively — is a scenario
document; ``catalog.toml`` additionally carries catalog-wide defaults::

    [defaults.scale]
    accesses = 60000            # full trace build length
    experiment_accesses = 25000 # SuiteRunner / CLI default
    bench_accesses = 12000      # macro-bench sample length
    smoke_accesses = 4000       # CI smoke scale

These scale defaults are the single source of truth for trace lengths:
``repro.memtrace.workloads.DEFAULT_TRACE_ACCESSES``,
``repro.experiments.runner.DEFAULT_ACCESSES`` and the bench macro sample
sizes all resolve through :func:`scale_defaults`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Mapping

from .spec import ScenarioError, ScenarioSpec, parse_scenario_file

SUITE_TAG = "suite"

# Used when no catalog directory is present (e.g. the package imported
# outside a repo checkout).  The committed catalog.toml carries the same
# numbers; tests assert the catalog is actually consulted.
_FALLBACK_SCALE = {
    "accesses": 60_000,
    "experiment_accesses": 25_000,
    "bench_accesses": 12_000,
    "smoke_accesses": 4_000,
}


class CatalogNotFound(FileNotFoundError):
    """No scenario catalog directory at the resolved location."""


def default_catalog_dir() -> Path:
    """The catalog location: ``$REPRO_SCENARIOS`` or ``<repo>/scenarios``."""
    env = os.environ.get("REPRO_SCENARIOS")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "scenarios"


class Catalog:
    """All scenarios of one directory, keyed by name, plus defaults."""

    def __init__(self, directory: Path, specs: Iterable[ScenarioSpec],
                 defaults: Mapping | None = None) -> None:
        self.directory = directory
        self.defaults = dict(defaults or {})
        self._by_name: dict[str, ScenarioSpec] = {}
        for spec in specs:
            if spec.name in self._by_name:
                raise ScenarioError(str(directory), [
                    f"duplicate scenario name {spec.name!r} across catalog "
                    "files"])
            self._by_name[spec.name] = spec

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._by_name.values())

    def get(self, name: str) -> ScenarioSpec:
        """Look up one scenario; raises KeyError with suggestions."""
        try:
            return self._by_name[name]
        except KeyError:
            close = sorted(n for n in self._by_name
                           if name in n or n in name)[:5]
            hint = f" (did you mean {close}?)" if close else ""
            raise KeyError(f"no scenario named {name!r} in "
                           f"{self.directory}{hint}") from None

    def names(self) -> list[str]:
        return sorted(self._by_name)

    def families(self) -> list[str]:
        return sorted({spec.family for spec in self})

    def select(self, *, names: Iterable[str] | None = None,
               families: Iterable[str] | None = None,
               tag: str | None = None) -> list[ScenarioSpec]:
        """Scenarios matching the filters, in deterministic (seed, name) order.

        ``names`` entries are exact scenario names (KeyError on a miss);
        the other filters narrow the whole catalog.  Seed-major ordering
        reproduces the legacy suite order (spec06 < spec17 < ligra <
        parsec by seed block).
        """
        if names is not None:
            return [self.get(name) for name in names]
        out = [spec for spec in self
               if (families is None or spec.family in set(families))
               and (tag is None or spec.has_tag(tag))]
        return sorted(out, key=lambda s: (s.seed, s.name))

    def suite(self) -> list[ScenarioSpec]:
        """The paper's evaluation suite (scenarios tagged ``suite``)."""
        return self.select(tag=SUITE_TAG)

    def scale(self, key: str) -> int:
        """One catalog-level scale default (falls back to the built-ins)."""
        value = self.defaults.get("scale", {}).get(key)
        if value is None:
            value = _FALLBACK_SCALE[key]
        return int(value)


def load_catalog(directory: str | Path | None = None) -> Catalog:
    """Load every scenario file under a catalog directory.

    Raises :class:`CatalogNotFound` when the directory does not exist and
    :class:`~repro.scenarios.spec.ScenarioError` on the first invalid
    file (run ``pmp-repro scenarios validate`` to see every problem in
    every file).
    """
    directory = Path(directory) if directory is not None \
        else default_catalog_dir()
    if not directory.is_dir():
        raise CatalogNotFound(
            f"no scenario catalog at {directory} (set REPRO_SCENARIOS or "
            "pass --catalog)")
    specs: list[ScenarioSpec] = []
    defaults: dict = {}
    for path in sorted(directory.rglob("*.toml")):
        if path.name == "catalog.toml":
            defaults = _load_defaults(path)
            continue
        specs.extend(parse_scenario_file(path))
    return Catalog(directory, specs, defaults)


_CATALOG_CACHE: dict[str, Catalog] = {}


def cached_catalog(directory: str | Path | None = None) -> Catalog:
    """:func:`load_catalog` memoised per resolved directory path."""
    resolved = str(Path(directory) if directory is not None
                   else default_catalog_dir())
    catalog = _CATALOG_CACHE.get(resolved)
    if catalog is None:
        catalog = load_catalog(resolved)
        _CATALOG_CACHE[resolved] = catalog
    return catalog


def invalidate_cache() -> None:
    """Drop memoised catalogs (tests that rewrite catalog files)."""
    _CATALOG_CACHE.clear()
    _DEFAULTS_CACHE.clear()


def _load_defaults(path: Path) -> dict:
    import tomllib
    doc = tomllib.loads(path.read_text())
    defaults = doc.get("defaults", {})
    scale = defaults.get("scale", {})
    problems = [f"defaults.scale.{key}: expected a positive integer, "
                f"got {value!r}"
                for key, value in scale.items()
                if not isinstance(value, int) or isinstance(value, bool)
                or value < 1]
    if problems:
        raise ScenarioError(str(path), problems)
    return defaults


_DEFAULTS_CACHE: dict[str, dict] = {}


def scale_defaults(key: str, directory: str | Path | None = None) -> int:
    """One scale default from the catalog (built-in fallback when absent).

    Reads only ``catalog.toml`` — this runs at import time of
    :mod:`repro.memtrace.workloads`, so it must not pay for parsing the
    whole scenario catalog.  A missing file falls back; a file that
    fails validation raises :class:`ScenarioError`, as
    :func:`load_catalog` does.
    """
    directory = Path(directory) if directory is not None \
        else default_catalog_dir()
    path = directory / "catalog.toml"
    resolved = str(path)
    defaults = _DEFAULTS_CACHE.get(resolved)
    if defaults is None:
        try:
            defaults = _load_defaults(path)
        except OSError:
            defaults = {}
        _DEFAULTS_CACHE[resolved] = defaults
    value = defaults.get("scale", {}).get(key)
    return int(value) if value is not None else _FALLBACK_SCALE[key]

