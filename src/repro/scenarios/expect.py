"""``expected:`` blocks — post-run assertions over simulation results.

A scenario may declare what a correct run must look like: minimum
normalized IPC per prefetcher, an L1D accuracy floor, memory-traffic
ceilings, a NIPC ordering between prefetchers, and an MPKI floor on the
trace itself.  :func:`evaluate_expected` checks every assertion and
returns all passes and failures; ``pmp-repro scenarios run`` exits
non-zero when any assertion fails.

Bound assertions (``min_nipc``, ``max_nmt``, ``min_accuracy``) take
either a bare number — applied to every prefetcher the run simulated —
or a ``{prefetcher = bound}`` table.

``tolerance`` (a relative fraction, e.g. ``0.05``) slackens every
simulation-derived bound assertion and the ``nipc_order`` comparison:
``min_*`` bounds shrink to ``bound * (1 - tolerance)``, ``max_*`` bounds
grow to ``bound * (1 + tolerance)``.  A scenario whose engines sit
close together declares that margin once this way instead of
hand-loosening each bound.  ``min_mpki`` is exact — it measures the
trace, not the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..memtrace.trace import Trace
from ..sim.stats import SimResult


@dataclass
class ExpectationReport:
    """Outcome of evaluating one scenario's ``expected:`` block."""

    passed: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed

    def merge(self, other: "ExpectationReport") -> None:
        self.passed.extend(other.passed)
        self.failed.extend(other.failed)

    def lines(self) -> list[str]:
        return ([f"  PASS {line}" for line in self.passed] +
                [f"  FAIL {line}" for line in self.failed])


def _bounds(value, results: Mapping[str, SimResult]) -> dict[str, float]:
    """Normalise a bound spec to {prefetcher: bound}."""
    if isinstance(value, Mapping):
        return {name: float(bound) for name, bound in value.items()}
    return {name: float(value) for name in results}


def _check_bound(report: ExpectationReport, label: str, prefetcher: str,
                 actual: float | None, bound: float, *,
                 at_least: bool, tolerance: float = 0.0) -> None:
    if actual is None:
        report.failed.append(
            f"{label}[{prefetcher}]: prefetcher was not simulated "
            "(add it to sim.prefetchers or --prefetcher)")
        return
    effective = bound * (1.0 - tolerance) if at_least \
        else bound * (1.0 + tolerance)
    op = ">=" if at_least else "<="
    ok = actual >= effective if at_least else actual <= effective
    note = f" [tolerance {tolerance:g} on {bound:.4f}]" if tolerance else ""
    line = f"{label}[{prefetcher}]: {actual:.4f} {op} {effective:.4f}{note}"
    (report.passed if ok else report.failed).append(line)


def evaluate_expected(expected: Mapping, *, trace: Trace,
                      results: Mapping[str, SimResult],
                      baseline: SimResult | None = None,
                      ) -> ExpectationReport:
    """Evaluate one scenario's assertions against one trace's runs.

    ``results`` maps prefetcher name to its run on this trace;
    ``baseline`` is the no-prefetcher run (needed for NIPC/NMT
    assertions — their absence when required is itself a failure, not a
    crash).
    """
    report = ExpectationReport()
    if not expected:
        return report

    tolerance = float(expected.get("tolerance", 0.0))
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(
            f"expected.tolerance must be in [0, 1), got {tolerance}")

    if "min_mpki" in expected:
        mpki = trace.estimated_mpki()
        bound = float(expected["min_mpki"])
        line = f"min_mpki: {mpki:.2f} >= {bound:.2f}"
        (report.passed if mpki >= bound else report.failed).append(line)

    # Baseline-relative assertions fail (not crash) without a baseline
    # run — but only *those*: min_accuracy and min_mpki need no baseline
    # and must still be evaluated, so no early return here.
    needs_baseline = [key for key in ("min_nipc", "max_nmt", "nipc_order")
                      if key in expected]
    if needs_baseline and baseline is None:
        report.failed.append(
            f"{'/'.join(needs_baseline)}: need a no-prefetcher baseline "
            "run to evaluate")

    if baseline is not None:
        if "min_nipc" in expected:
            for name, bound in _bounds(expected["min_nipc"],
                                       results).items():
                result = results.get(name)
                actual = result.nipc(baseline) if result else None
                _check_bound(report, "min_nipc", name, actual, bound,
                             at_least=True, tolerance=tolerance)

        if "max_nmt" in expected:
            for name, bound in _bounds(expected["max_nmt"],
                                       results).items():
                result = results.get(name)
                actual = result.nmt(baseline) if result else None
                _check_bound(report, "max_nmt", name, actual, bound,
                             at_least=False, tolerance=tolerance)

    if "min_accuracy" in expected:
        for name, bound in _bounds(expected["min_accuracy"],
                                   results).items():
            result = results.get(name)
            actual = result.accuracy("l1d") if result else None
            _check_bound(report, "min_accuracy@l1d", name, actual,
                         bound, at_least=True, tolerance=tolerance)

    if "nipc_order" in expected and baseline is not None:
        order = list(expected["nipc_order"])
        missing = [name for name in order if name not in results]
        if missing:
            report.failed.append(
                f"nipc_order: prefetcher(s) {missing} were not simulated")
        else:
            nipcs = [(name, results[name].nipc(baseline)) for name in order]
            # Tolerance lets adjacent entries pass when they are within
            # the declared margin of each other.
            ok = all(a[1] >= b[1] * (1.0 - tolerance)
                     for a, b in zip(nipcs, nipcs[1:]))
            rendered = " >= ".join(f"{name}({value:.4f})"
                                   for name, value in nipcs)
            suffix = f" [tolerance {tolerance:g}]" if tolerance else ""
            (report.passed if ok else report.failed).append(
                f"nipc_order: {rendered}{suffix}")
    return report


def prefetchers_under_test(expected: Mapping) -> set[str]:
    """Prefetcher names an ``expected:`` block references (to auto-run)."""
    names: set[str] = set()
    for key in ("min_nipc", "max_nmt", "min_accuracy"):
        value = expected.get(key)
        if isinstance(value, Mapping):
            names.update(value)
    names.update(expected.get("nipc_order", ()))
    return names
