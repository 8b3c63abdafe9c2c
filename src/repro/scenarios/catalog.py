"""The scenario catalog: a directory of spec files loaded as one unit.

The committed catalog lives at ``<repo>/scenarios/`` (override with the
``REPRO_SCENARIOS`` environment variable or the ``--catalog`` CLI flag).
Every ``*.toml`` file in the directory, recursively, is a scenario
document, and a catalog holds nothing else.  A run's parameters are
constants of the modules that use them: the experiment trace length is
``repro.experiments.runner.DEFAULT_ACCESSES``, the macro-bench lengths
live in ``repro.bench.macro`` and the warmup is
``repro.sim.engine.WARMUP_FRACTION``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

from .spec import ScenarioError, ScenarioSpec, parse_scenario_file

SUITE_TAG = "suite"


class CatalogNotFound(FileNotFoundError):
    """No scenario catalog directory at the resolved location."""


def default_catalog_dir() -> Path:
    """The catalog location: ``$REPRO_SCENARIOS`` or ``<repo>/scenarios``."""
    env = os.environ.get("REPRO_SCENARIOS")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "scenarios"


class Catalog:
    """All scenarios of one directory, keyed by name."""

    def __init__(self, directory: Path, specs: Iterable[ScenarioSpec]) -> None:
        self.directory = directory
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
    specs = [spec for path in sorted(directory.rglob("*.toml"))
             for spec in parse_scenario_file(path)]
    return Catalog(directory, specs)


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
