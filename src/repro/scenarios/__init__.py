"""Declarative scenario catalog: spec-driven workloads.

Workloads are authored as validated TOML spec documents (pattern recipe,
scale, seed, ``expected:`` post-run assertions)
and loaded uniformly by the CLI, the experiment suite runner, and the
bench harness.  See ``docs/workloads.md`` for the full schema and
``scenarios/`` for the committed catalog (the paper's 125-trace suite
plus the extra families).
"""

from .catalog import (
    Catalog,
    CatalogNotFound,
    cached_catalog,
    default_catalog_dir,
    invalidate_cache,
    load_catalog,
)
from .expect import ExpectationReport, evaluate_expected, prefetchers_under_test
from .schema import validate_scenario, validate_scenario_doc
from .spec import (
    GENERATORS,
    SCENARIO_SCHEMA_VERSION,
    RecipePart,
    ScenarioError,
    ScenarioSpec,
    dumps_scenarios,
    parse_scenario_file,
    parse_scenario_text,
)

__all__ = [
    "Catalog",
    "CatalogNotFound",
    "ExpectationReport",
    "GENERATORS",
    "RecipePart",
    "SCENARIO_SCHEMA_VERSION",
    "ScenarioError",
    "ScenarioSpec",
    "cached_catalog",
    "default_catalog_dir",
    "dumps_scenarios",
    "evaluate_expected",
    "invalidate_cache",
    "load_catalog",
    "parse_scenario_file",
    "parse_scenario_text",
    "prefetchers_under_test",
    "validate_scenario",
    "validate_scenario_doc",
]
