"""Baseline comparison: the ``--compare`` regression gate.

Benchmarks are matched by name; the gated metric is ``throughput``
(higher is better), because ops/sec is scale-independent — a baseline
recorded at the default scale still gates a smoke-scale rerun of the
same code *only* if the scales match, so the comparator refuses to
compare records whose pinned workload differs (different ``number`` ×
``ops`` shape ⇒ different cache behaviour ⇒ meaningless delta).

A regression is a throughput drop of more than ``threshold_pct``;
improvements and in-threshold noise pass.  Benchmarks present on one
side only are reported but gate nothing by default (``require_all``
turns missing baseline entries into failures, for CI baselines that
must stay complete).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .schema import validate_bench


@dataclass
class Delta:
    """One matched benchmark's baseline-vs-current comparison."""

    name: str
    baseline: float
    current: float
    change_pct: float      # positive = faster than baseline
    regressed: bool
    comparable: bool = True
    note: str = ""


@dataclass
class CompareResult:
    """The full comparison: deltas plus unmatched names."""

    deltas: list[Delta] = field(default_factory=list)
    missing_in_baseline: list[str] = field(default_factory=list)
    missing_in_current: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[Delta]:
        """Deltas that breach the threshold."""
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        """True when nothing regressed."""
        return not self.regressions

    def report(self, threshold_pct: float) -> str:
        """Human-readable table of the comparison."""
        lines = [f"{'benchmark':<22} {'baseline':>14} {'current':>14} "
                 f"{'change':>9}  verdict"]
        for d in self.deltas:
            if not d.comparable:
                # A delta can be incomparable *and* gate-failing (e.g. a
                # require_all miss) — render those as failures, not SKIPs.
                verdict = (f"REGRESSED ({d.note})" if d.regressed
                           else f"SKIP ({d.note})")
                change = "-"
            else:
                verdict = ("REGRESSED" if d.regressed
                           else ("improved" if d.change_pct > 0 else "ok"))
                change = f"{d.change_pct:+.1f}%"
            lines.append(f"{d.name:<22} {d.baseline:>14.1f} {d.current:>14.1f} "
                         f"{change:>9}  {verdict}")
        for name in self.missing_in_baseline:
            lines.append(f"{name:<22} {'(not in baseline)':>14}")
        for name in self.missing_in_current:
            lines.append(f"{name:<22} {'(not rerun — still in baseline)':>14}")
        lines.append(f"[gate: fail on >{threshold_pct:g}% throughput drop]")
        return "\n".join(lines)


def load_baseline(path: str | Path) -> dict:
    """Load and validate a baseline document.

    Raises ``FileNotFoundError`` for a missing file and ``ValueError``
    for a file that parses but fails schema validation — callers map
    these to distinct exit codes.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"baseline not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"baseline {path} is not valid JSON: {exc}") from exc
    problems = validate_bench(doc)
    if problems:
        raise ValueError(f"baseline {path} fails schema validation:\n  "
                         + "\n  ".join(problems))
    return doc


def _rows_by_name(doc: dict) -> dict[str, dict]:
    return {row["name"]: row for row in doc["benchmarks"]}


def _shape_of(row: dict) -> tuple:
    """The workload identity a throughput is only comparable within.

    ``fastpath`` is part of the shape: the vectorized fast path changes
    what work ``simulate()`` does per access, so a fastpath-on baseline
    must refuse to gate a ``--no-fastpath`` rerun (and vice versa)
    rather than score the mode switch as a perf delta.
    """
    meta = row.get("meta", {})
    return (row.get("units"), meta.get("scale"), meta.get("accesses"),
            meta.get("seed"), meta.get("fastpath"))


def compare_docs(current: dict, baseline: dict, *,
                 threshold_pct: float = 10.0,
                 require_all: bool = False) -> CompareResult:
    """Compare two bench documents; see the module docstring for rules."""
    if threshold_pct < 0:
        raise ValueError("threshold_pct must be >= 0")
    current_rows = _rows_by_name(current)
    baseline_rows = _rows_by_name(baseline)
    result = CompareResult()

    for name, row in current_rows.items():
        base = baseline_rows.get(name)
        if base is None:
            result.missing_in_baseline.append(name)
            continue
        if _shape_of(row) != _shape_of(base):
            result.deltas.append(Delta(
                name=name, baseline=base["throughput"],
                current=row["throughput"], change_pct=0.0, regressed=False,
                comparable=False, note="workload shape differs"))
            continue
        base_thr = float(base["throughput"])
        cur_thr = float(row["throughput"])
        if base_thr <= 0.0:
            # A zero-throughput baseline admits no percentage delta;
            # refuse to gate on it instead of dividing by zero.
            result.deltas.append(Delta(
                name=name, baseline=base_thr, current=cur_thr,
                change_pct=0.0, regressed=False, comparable=False,
                note="zero-throughput baseline"))
            continue
        change_pct = (cur_thr - base_thr) / base_thr * 100.0
        regressed = change_pct < -threshold_pct
        result.deltas.append(Delta(name=name, baseline=base_thr,
                                   current=cur_thr, change_pct=change_pct,
                                   regressed=regressed))

    for name in baseline_rows:
        if name not in current_rows:
            result.missing_in_current.append(name)

    if require_all and result.missing_in_baseline:
        for name in result.missing_in_baseline:
            result.deltas.append(Delta(
                name=name, baseline=0.0,
                current=current_rows[name]["throughput"], change_pct=0.0,
                regressed=True, comparable=False, note="missing in baseline"))
        result.missing_in_baseline = []
    return result
