"""Scenario spec documents: the declarative workload format.

A *scenario* is a validated document describing one workload end to end:
what to generate (or which real ChampSim trace to ingest), at what scale,
and — optionally — which prefetchers ``pmp-repro scenarios run``
simulates and an ``expected:`` block of post-run assertions (NIPC
floors, NIPC ordering, accuracy bounds) that it enforces with a
non-zero exit.

Scenarios are authored as TOML (stdlib :mod:`tomllib`), the one
format the loaders read.  One file holds either a single ``[scenario]``
table or a ``[[scenario]]`` array — the committed catalog under
``scenarios/`` uses one file per workload family.

The format follows the TRADE synthetic-data pattern: specs are data, the
loaders fail loudly on anything malformed (see :mod:`.schema`), and the
same document drives the CLI, the experiment suite runner, and the bench
harness.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..memtrace import synthetic as syn

SCENARIO_SCHEMA_VERSION = 1

KINDS = ("synthetic", "champsim")

# The generator registry: every synthetic recipe part names one of these.
# Keys are the public generator names used in spec documents; values are
# the :mod:`repro.memtrace.synthetic` callables they compile to.
GENERATORS: dict[str, Callable] = {
    "stream": syn.stream,
    "strided": syn.strided,
    "backward_scan": syn.backward_scan,
    "neighborhood_walk": syn.neighborhood_walk,
    "pattern_replay": syn.pattern_replay,
    "pointer_chase": syn.pointer_chase,
    "graph_traversal": syn.graph_traversal,
    "hot_loop": syn.hot_loop,
}


class ScenarioError(ValueError):
    """A scenario document failed to parse or validate."""

    def __init__(self, source: str, problems: Sequence[str]) -> None:
        self.source = source
        self.problems = list(problems)
        detail = "\n  ".join(self.problems)
        super().__init__(f"{source}: invalid scenario document:\n  {detail}")


@dataclass(frozen=True)
class RecipePart:
    """One weighted generator in a synthetic scenario's recipe."""

    generator: str
    weight: float
    params: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        doc: dict[str, Any] = {"generator": self.generator,
                               "weight": self.weight}
        if self.params:
            doc["params"] = dict(self.params)
        return doc


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-parsed scenario document.

    ``kind="synthetic"`` scenarios carry a recipe (weighted generator
    parts plus an epoch count — see :func:`repro.memtrace.synthetic
    .compose`); ``kind="champsim"`` scenarios carry a ``source`` table
    pointing at real trace files.  Both compile to the same
    :class:`~repro.memtrace.workloads.WorkloadSpec` interface via
    :func:`repro.memtrace.workloads.compile_scenario`.
    """

    name: str
    family: str
    kind: str = "synthetic"
    seed: int = 0
    description: str = ""
    tags: tuple[str, ...] = ()
    scale: dict = field(default_factory=dict)
    epochs: int = 1
    parts: tuple[RecipePart, ...] = ()
    source: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)

    @property
    def accesses(self) -> int | None:
        """This scenario's own default build length, when pinned."""
        value = self.scale.get("accesses")
        return int(value) if value is not None else None

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags

    # ---------------------------------------------------------- documents

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a spec from one (already validated) scenario table."""
        recipe = doc.get("recipe", {})
        parts = tuple(
            RecipePart(generator=p["generator"], weight=p["weight"],
                       params=dict(p.get("params", {})))
            for p in recipe.get("parts", ()))
        return cls(
            name=doc["name"],
            family=doc["family"],
            kind=doc.get("kind", "synthetic"),
            seed=int(doc.get("seed", 0)),
            description=doc.get("description", ""),
            tags=tuple(doc.get("tags", ())),
            scale=dict(doc.get("scale", {})),
            epochs=int(recipe.get("epochs", 1)),
            parts=parts,
            source=dict(doc.get("source", {})),
            sim=dict(doc.get("sim", {})),
            expected=dict(doc.get("expected", {})),
        )

    def to_doc(self) -> dict:
        """The plain-data scenario table (inverse of :meth:`from_doc`)."""
        doc: dict[str, Any] = {"name": self.name, "family": self.family}
        if self.kind != "synthetic":
            doc["kind"] = self.kind
        if self.seed:
            doc["seed"] = self.seed
        if self.description:
            doc["description"] = self.description
        if self.tags:
            doc["tags"] = list(self.tags)
        if self.scale:
            doc["scale"] = dict(self.scale)
        if self.parts or self.kind == "synthetic":
            recipe: dict[str, Any] = {}
            if self.epochs != 1:
                recipe["epochs"] = self.epochs
            recipe["parts"] = [part.to_doc() for part in self.parts]
            doc["recipe"] = recipe
        if self.source:
            doc["source"] = dict(self.source)
        if self.sim:
            doc["sim"] = dict(self.sim)
        if self.expected:
            doc["expected"] = dict(self.expected)
        return doc

    def to_toml(self) -> str:
        """Render this spec as a single-``[scenario]`` TOML document."""
        return dumps_scenarios([self])


# --------------------------------------------------------------- TOML out

def _toml_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        # repr round-trips Python floats exactly and is valid TOML, so a
        # dump/parse cycle is bit-identical (the golden-hash tests rely
        # on this for recipe weights and noise levels).
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_scalar(v) for v in value) + "]"
    raise TypeError(f"cannot render {type(value).__name__} as TOML")


def _emit_table(lines: list[str], header: str, table: Mapping[str, Any],
                *, array: bool = False) -> None:
    open_, close = ("[[", "]]") if array else ("[", "]")
    lines.append(f"{open_}{header}{close}")
    nested: list[tuple[str, Any]] = []
    for key, value in table.items():
        if isinstance(value, Mapping):
            nested.append((key, value))
        elif (isinstance(value, (list, tuple)) and value
              and all(isinstance(v, Mapping) for v in value)):
            nested.append((key, value))
        else:
            lines.append(f"{key} = {_toml_scalar(value)}")
    for key, value in nested:
        lines.append("")
        if isinstance(value, Mapping):
            _emit_table(lines, f"{header}.{key}", value)
        else:
            for item in value:
                _emit_table(lines, f"{header}.{key}", item, array=True)
                lines.append("")
            lines.pop()  # drop the trailing blank inside the array


def dumps_scenarios(specs: Sequence[ScenarioSpec], *,
                    header_comment: str = "") -> str:
    """Render scenarios as a TOML catalog file (``[[scenario]]`` array)."""
    lines: list[str] = []
    if header_comment:
        lines.extend(f"# {line}".rstrip()
                     for line in header_comment.splitlines())
        lines.append("")
    lines.append(f"schema_version = {SCENARIO_SCHEMA_VERSION}")
    for spec in specs:
        lines.append("")
        _emit_table(lines, "scenario", spec.to_doc(),
                    array=len(specs) > 1)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- parsing

def _parse_text(text: str, source: str) -> dict:
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError(source, [f"TOML parse error: {exc}"]) from exc


def parse_scenario_text(text: str, *, source: str = "<string>",
                        ) -> list[ScenarioSpec]:
    """Parse and validate scenario specs from document text.

    Raises :class:`ScenarioError` listing *every* problem at once when
    the document is malformed.
    """
    from .schema import validate_scenario_doc

    doc = _parse_text(text, source)
    problems = validate_scenario_doc(doc)
    if problems:
        raise ScenarioError(source, problems)
    tables = doc["scenario"]
    if isinstance(tables, Mapping):
        tables = [tables]
    return [ScenarioSpec.from_doc(table) for table in tables]


def parse_scenario_file(path: str | Path) -> list[ScenarioSpec]:
    """Parse and validate one TOML scenario file."""
    path = Path(path)
    return parse_scenario_text(path.read_text(), source=str(path))
