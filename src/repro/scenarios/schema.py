"""The scenario-document schema and its validator.

Hand-rolled in the style of :mod:`repro.bench.schema` — the container
deliberately has no jsonschema dependency — and returns a list of
human-readable problems instead of raising, so callers (``pmp-repro
scenarios validate``, the catalog loader, tests) can report every defect
at once.

A document is::

    schema_version = 1

    [scenario]              # or [[scenario]] for a multi-scenario file
    name = "spec06-00"      # unique within a catalog
    family = "spec06"
    kind = "synthetic"      # or "champsim"
    seed = 1000             # required for synthetic scenarios
    tags = ["suite"]

    [scenario.scale]
    accesses = 60000        # default build length for this scenario

    [scenario.recipe]       # synthetic scenarios only
    epochs = 2
    [[scenario.recipe.parts]]
    generator = "stream"    # a repro.memtrace.synthetic generator
    weight = 0.12
    [scenario.recipe.parts.params]
    segment = 0
    gap = 44

    [scenario.source]       # champsim scenarios only
    path = "traces/mcf.champsimtrace.xz"   # file, directory, or glob
    skip_instructions = 0
    max_instructions = 200000

    [scenario.sim]          # optional: what `scenarios run` simulates
    prefetchers = ["pmp", "dspatch"]

    [scenario.expected]     # optional post-run assertions
    min_nipc = { pmp = 1.02 }       # or a bare number for every prefetcher
    max_nmt = { pmp = 1.6 }
    min_accuracy = { pmp = 0.5 }    # at the L1D
    nipc_order = ["pmp", "dspatch"]  # non-increasing NIPC in this order
    min_mpki = 5.0                   # a trace property (no baseline needed)
    tolerance = 0.05                 # relative slack on every bound

A scenario is a workload, not a system: every one runs on
``SystemConfig.default()`` with a 20% warmup (Fig 12's DRAM and LLC
sweeps are experiments of their own).  A field outside this layout is
rejected by name.
"""

from __future__ import annotations

from typing import Any, Mapping

from .spec import GENERATORS, KINDS, SCENARIO_SCHEMA_VERSION

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_./")

_BOUND_KEYS = ("min_nipc", "max_nmt", "min_accuracy")

_EXPECTED_KEYS = set(_BOUND_KEYS) | {"nipc_order", "min_mpki", "tolerance"}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_str(problems: list[str], where: str, value: Any) -> bool:
    if not isinstance(value, str) or not value:
        problems.append(f"{where}: expected a non-empty string, "
                        f"got {value!r}")
        return False
    return True


def _check_int(problems: list[str], where: str, value: Any, *,
               minimum: int | None = None) -> bool:
    if not isinstance(value, int) or isinstance(value, bool):
        problems.append(f"{where}: expected an integer, got {value!r}")
        return False
    if minimum is not None and value < minimum:
        problems.append(f"{where}: must be >= {minimum}, got {value}")
        return False
    return True


def _validate_recipe(problems: list[str], where: str, recipe: Any) -> None:
    if not isinstance(recipe, Mapping):
        problems.append(f"{where}: expected a table, "
                        f"got {type(recipe).__name__}")
        return
    if "epochs" in recipe:
        _check_int(problems, f"{where}.epochs", recipe["epochs"], minimum=1)
    parts = recipe.get("parts")
    if not isinstance(parts, list) or not parts:
        problems.append(f"{where}.parts: synthetic scenarios need at least "
                        "one recipe part")
        return
    for i, part in enumerate(parts):
        pwhere = f"{where}.parts[{i}]"
        if not isinstance(part, Mapping):
            problems.append(f"{pwhere}: expected a table")
            continue
        generator = part.get("generator")
        if _check_str(problems, f"{pwhere}.generator", generator) \
                and generator not in GENERATORS:
            problems.append(
                f"{pwhere}.generator: unknown generator {generator!r}; "
                f"known: {sorted(GENERATORS)}")
        weight = part.get("weight")
        if not _is_number(weight) or weight <= 0:
            problems.append(f"{pwhere}.weight: expected a positive number, "
                            f"got {weight!r}")
        params = part.get("params", {})
        if not isinstance(params, Mapping):
            problems.append(f"{pwhere}.params: expected a table")
        unknown = set(part) - {"generator", "weight", "params"}
        if unknown:
            problems.append(f"{pwhere}: unknown field(s) {sorted(unknown)}")


def _validate_source(problems: list[str], where: str, source: Any) -> None:
    if not isinstance(source, Mapping):
        problems.append(f"{where}: expected a table, "
                        f"got {type(source).__name__}")
        return
    _check_str(problems, f"{where}.path", source.get("path"))
    if "skip_instructions" in source:
        _check_int(problems, f"{where}.skip_instructions",
                   source["skip_instructions"], minimum=0)
    if "max_instructions" in source:
        _check_int(problems, f"{where}.max_instructions",
                   source["max_instructions"], minimum=1)
    unknown = set(source) - {"path", "skip_instructions", "max_instructions"}
    if unknown:
        problems.append(f"{where}: unknown field(s) {sorted(unknown)}")


def _validate_sim(problems: list[str], where: str, sim: Any) -> None:
    if not isinstance(sim, Mapping):
        problems.append(f"{where}: expected a table, got {type(sim).__name__}")
        return
    if "prefetchers" in sim:
        names = sim["prefetchers"]
        if not isinstance(names, list) or \
                not all(isinstance(n, str) for n in names):
            problems.append(f"{where}.prefetchers: expected a list of "
                            "prefetcher names")
    unknown = set(sim) - {"prefetchers"}
    if unknown:
        problems.append(f"{where}: unknown field(s) {sorted(unknown)}")


def _validate_expected(problems: list[str], where: str, expected: Any) -> None:
    if not isinstance(expected, Mapping):
        problems.append(f"{where}: expected a table, "
                        f"got {type(expected).__name__}")
        return
    unknown = set(expected) - _EXPECTED_KEYS
    if unknown:
        problems.append(f"{where}: unknown assertion(s) {sorted(unknown)}; "
                        f"known: {sorted(_EXPECTED_KEYS)}")
    for key in _BOUND_KEYS:
        if key not in expected:
            continue
        value = expected[key]
        if _is_number(value):
            continue
        if isinstance(value, Mapping):
            for prefetcher, bound in value.items():
                if not _is_number(bound):
                    problems.append(f"{where}.{key}.{prefetcher}: expected "
                                    f"a number, got {bound!r}")
            continue
        problems.append(f"{where}.{key}: expected a number or a "
                        f"{{prefetcher = bound}} table, got {value!r}")
    if "nipc_order" in expected:
        order = expected["nipc_order"]
        if not isinstance(order, list) or len(order) < 2 or \
                not all(isinstance(n, str) for n in order):
            problems.append(f"{where}.nipc_order: expected a list of at "
                            f"least two prefetcher names, got {order!r}")
    if "min_mpki" in expected and not _is_number(expected["min_mpki"]):
        problems.append(f"{where}.min_mpki: expected a number, "
                        f"got {expected['min_mpki']!r}")
    if "tolerance" in expected:
        value = expected["tolerance"]
        if not _is_number(value) or not 0.0 <= value < 1.0:
            problems.append(f"{where}.tolerance: expected a number in "
                            f"[0, 1), got {value!r}")


_SCENARIO_FIELDS = {"name", "family", "kind", "seed", "description", "tags",
                    "scale", "recipe", "source", "sim", "expected"}


def validate_scenario(table: Any, where: str = "scenario") -> list[str]:
    """Validate one scenario table; returns all problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(table, Mapping):
        problems.append(f"{where}: expected a table, "
                        f"got {type(table).__name__}")
        return problems

    name = table.get("name")
    if _check_str(problems, f"{where}.name", name) and \
            not set(name) <= _NAME_CHARS:
        problems.append(f"{where}.name: {name!r} contains characters "
                        "outside [A-Za-z0-9-_./]")
    _check_str(problems, f"{where}.family", table.get("family"))

    kind = table.get("kind", "synthetic")
    if kind not in KINDS:
        problems.append(f"{where}.kind: expected one of {KINDS}, "
                        f"got {kind!r}")
        kind = "synthetic"

    if kind == "synthetic":
        if "seed" not in table:
            problems.append(f"{where}.seed: synthetic scenarios must pin "
                            "a seed")
        else:
            _check_int(problems, f"{where}.seed", table["seed"], minimum=0)
        if "recipe" not in table:
            problems.append(f"{where}.recipe: synthetic scenarios need a "
                            "recipe (there are no default fallbacks)")
        else:
            _validate_recipe(problems, f"{where}.recipe", table["recipe"])
        if "source" in table:
            problems.append(f"{where}.source: only champsim scenarios take "
                            "a source table")
    else:
        if "source" not in table:
            problems.append(f"{where}.source: champsim scenarios need a "
                            "source table")
        else:
            _validate_source(problems, f"{where}.source", table["source"])
        if "recipe" in table:
            problems.append(f"{where}.recipe: champsim scenarios ingest a "
                            "source; they cannot also carry a recipe")

    if "description" in table:
        _check_str(problems, f"{where}.description", table["description"])
    if "tags" in table:
        tags = table["tags"]
        if not isinstance(tags, list) or \
                not all(isinstance(t, str) and t for t in tags):
            problems.append(f"{where}.tags: expected a list of non-empty "
                            f"strings, got {tags!r}")
    if "scale" in table:
        scale = table["scale"]
        if not isinstance(scale, Mapping):
            problems.append(f"{where}.scale: expected a table")
        else:
            if "accesses" in scale:
                _check_int(problems, f"{where}.scale.accesses",
                           scale["accesses"], minimum=1)
            unknown = set(scale) - {"accesses"}
            if unknown:
                problems.append(f"{where}.scale: unknown field(s) "
                                f"{sorted(unknown)}")
    if "sim" in table:
        _validate_sim(problems, f"{where}.sim", table["sim"])
    if "expected" in table:
        _validate_expected(problems, f"{where}.expected", table["expected"])

    unknown = set(table) - _SCENARIO_FIELDS
    if unknown:
        problems.append(f"{where}: unknown field(s) {sorted(unknown)}")
    return problems


def validate_scenario_doc(doc: Any) -> list[str]:
    """Validate one scenario document (file-level); empty list = valid."""
    problems: list[str] = []
    if not isinstance(doc, Mapping):
        problems.append(f"document: expected a table, got {type(doc).__name__}")
        return problems
    # A table nothing reads, such as a [defaults] table, is named even
    # when the document holds no scenario.
    unknown = set(doc) - {"schema_version", "scenario"}
    if unknown:
        problems.append(f"document: unknown field(s) {sorted(unknown)}")
    version = doc.get("schema_version")
    if version != SCENARIO_SCHEMA_VERSION:
        problems.append(f"document.schema_version: expected "
                        f"{SCENARIO_SCHEMA_VERSION}, got {version!r}")
    if "scenario" not in doc:
        problems.append("document: missing [scenario] table or "
                        "[[scenario]] array")
        return problems
    tables = doc["scenario"]
    if isinstance(tables, Mapping):
        problems.extend(validate_scenario(tables))
    elif isinstance(tables, list):
        seen: set[str] = set()
        for i, table in enumerate(tables):
            where = f"scenario[{i}]"
            problems.extend(validate_scenario(table, where))
            name = table.get("name") if isinstance(table, Mapping) else None
            if isinstance(name, str):
                if name in seen:
                    problems.append(f"{where}: duplicate scenario name "
                                    f"{name!r}")
                seen.add(name)
    else:
        problems.append("document.scenario: expected a table or an array "
                        "of tables")
    return problems
