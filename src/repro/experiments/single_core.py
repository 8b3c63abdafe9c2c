"""Single-core headline experiments: Fig 8, Fig 9, Fig 10, Section V-D.

Each function returns structured results and a formatted report string, so
the benchmark harness can both assert on shapes and print paper-style rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..prefetchers import COMPETITORS
from ..prefetchers.pmp import make_pmp_limit
from ..sim.stats import geomean
from .report import format_percent, format_table
from .runner import SuiteRunner, mean

LEVELS = ("l1d", "l2c", "llc")


@dataclass
class SingleCoreResults:
    """All Fig 8/9/10 + V-D metrics for the five prefetchers."""

    nipc: dict[str, float] = field(default_factory=dict)
    coverage: dict[str, dict[str, float]] = field(default_factory=dict)
    accuracy: dict[str, dict[str, float]] = field(default_factory=dict)
    useful: dict[str, dict[str, float]] = field(default_factory=dict)
    useless: dict[str, dict[str, float]] = field(default_factory=dict)
    nmt: dict[str, float] = field(default_factory=dict)

    def fig8_report(self) -> str:
        """Render the Fig 8 NIPC ranking."""
        rows = [(name, value) for name, value in
                sorted(self.nipc.items(), key=lambda kv: -kv[1])]
        return format_table(["prefetcher", "NIPC (geomean)"], rows,
                            title="Fig 8 — single-core normalized IPC")

    def fig9_report(self) -> str:
        """Render the Fig 9 coverage/accuracy table."""
        rows = []
        for name in self.coverage:
            rows.append([name] +
                        [format_percent(self.coverage[name][lvl]) for lvl in LEVELS] +
                        [format_percent(self.accuracy[name][lvl]) for lvl in LEVELS])
        return format_table(
            ["prefetcher", "cov L1D", "cov L2C", "cov LLC",
             "acc L1D", "acc L2C", "acc LLC"], rows,
            title="Fig 9 — coverage and accuracy per cache level")

    def fig10_report(self) -> str:
        """Render the Fig 10 useful/useless table."""
        rows = []
        for name in self.useful:
            rows.append([name] + [
                f"{self.useful[name][lvl]:.0f}/{self.useless[name][lvl]:.0f}"
                for lvl in LEVELS])
        return format_table(
            ["prefetcher", "L1D useful/useless", "L2C useful/useless",
             "LLC useful/useless"], rows,
            title="Fig 10 — average useful/useless prefetches per trace")

    def nmt_report(self) -> str:
        """Render the Section V-D memory-traffic table."""
        rows = [(name, format_percent(value)) for name, value in
                sorted(self.nmt.items(), key=lambda kv: -kv[1])]
        return format_table(["prefetcher", "NMT"], rows,
                            title="Section V-D — normalized memory traffic")


def run_single_core(runner: SuiteRunner | None = None,
                    include_pmp_limit: bool = False) -> SingleCoreResults:
    """The five-prefetcher headline comparison over a suite."""
    runner = runner or SuiteRunner()
    factories = dict(COMPETITORS)
    if include_pmp_limit:
        factories["pmp-limit"] = make_pmp_limit
    # One engine batch for the whole matrix plus baselines: with workers
    # configured this is the experiment's entire fan-out.
    matrix, baselines = runner.suite_comparison(factories)

    out = SingleCoreResults()
    for name, results in matrix.items():
        out.nipc[name] = geomean([r.nipc(b) for r, b in zip(results, baselines)])
        out.nmt[name] = mean([r.nmt(b) for r, b in zip(results, baselines)])
        out.coverage[name] = {
            lvl: mean([r.coverage(b, lvl) for r, b in zip(results, baselines)])
            for lvl in LEVELS}
        out.accuracy[name] = {
            lvl: mean([r.levels[lvl].accuracy for r in results])
            for lvl in LEVELS}
        out.useful[name] = {
            lvl: mean([r.levels[lvl].useful_prefetches for r in results])
            for lvl in LEVELS}
        out.useless[name] = {
            lvl: mean([r.levels[lvl].useless_prefetches for r in results])
            for lvl in LEVELS}
    return out


def family_breakdown(runner: SuiteRunner | None = None,
                     factory=None) -> dict[str, float]:
    """Per-family geomean NIPC (the Section V-B discussion).

    The paper notes PMP's gains are larger on the regular SPEC workloads
    than on Ligra/PARSEC, while still beating the heavyweights everywhere.
    """
    from ..prefetchers.pmp import PMP

    runner = runner or SuiteRunner()
    factory = factory or PMP
    matrix, baselines = runner.suite_comparison({"pmp": factory})
    results = matrix["pmp"]
    by_family: dict[str, list[float]] = {}
    for spec, result, baseline in zip(runner.specs, results, baselines):
        by_family.setdefault(spec.family, []).append(result.nipc(baseline))
    return {family: geomean(values) for family, values in by_family.items()}


def family_report(breakdown: dict[str, float]) -> str:
    """Render the per-family NIPC table."""
    rows = sorted(breakdown.items(), key=lambda kv: -kv[1])
    return format_table(["family", "NIPC (geomean)"], rows,
                        title="Section V-B — PMP per workload family")

