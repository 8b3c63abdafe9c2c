"""The ``pmp-repro scenarios`` command group.

Examples::

    pmp-repro scenarios list                       # the committed catalog
    pmp-repro scenarios list --family thrash
    pmp-repro scenarios show spec06-00             # spec as TOML
    pmp-repro scenarios validate                   # every catalog file
    pmp-repro scenarios validate my_scenario.toml
    pmp-repro scenarios run tenants-00             # expected:-gated run
    pmp-repro scenarios run --spec my_scenario.toml --accesses 8000
    pmp-repro scenarios run thrash-00 --prefetcher pmp --prefetcher spp+ppf

Exit codes: 0 = success (and every ``expected:`` assertion held);
1 = at least one expected assertion failed (suppress with ``--no-gate``);
2 = usage error, unknown scenario, or invalid spec document.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .catalog import CatalogNotFound, default_catalog_dir, load_catalog
from .expect import ExpectationReport, evaluate_expected, prefetchers_under_test
from .spec import ScenarioError, ScenarioSpec, parse_scenario_file


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmp-repro scenarios",
        description="List, validate and run declarative workload scenarios.")
    parser.add_argument("--catalog", default=None, metavar="DIR",
                        help="scenario catalog directory "
                             "(default: <repo>/scenarios, or $REPRO_SCENARIOS)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list catalog scenarios")
    p_list.add_argument("--family", default=None,
                        help="only scenarios of this family")
    p_list.add_argument("--tag", default=None,
                        help="only scenarios carrying this tag")

    p_show = sub.add_parser("show", help="print one scenario spec as TOML")
    p_show.add_argument("name")

    p_val = sub.add_parser("validate",
                           help="validate spec files (default: the catalog)")
    p_val.add_argument("paths", nargs="*",
                       help="spec files to validate instead of the catalog")

    p_run = sub.add_parser(
        "run", help="build, simulate and gate scenarios on expected:")
    p_run.add_argument("names", nargs="*",
                       help="catalog scenario names to run")
    p_run.add_argument("--spec", action="append", default=[],
                       metavar="FILE", help="run scenarios from a spec file "
                       "instead of the catalog (repeatable)")
    p_run.add_argument("--accesses", type=int, default=0,
                       help="override the build length (default, or 0: "
                            "the scenario's scale.accesses, then the "
                            "experiment default)")
    p_run.add_argument("--prefetcher", action="append", default=[],
                       metavar="NAME",
                       help="prefetcher(s) to simulate (default: the "
                            "scenario's sim.prefetchers, then whatever its "
                            "expected: block references, then pmp)")
    p_run.add_argument("--no-fastpath", action="store_true",
                       help="force every access through the event kernel")
    p_run.add_argument("--no-gate", action="store_true",
                       help="report expected: violations without failing "
                            "the exit code")
    return parser


def _load(args: argparse.Namespace):
    return load_catalog(args.catalog)


def cmd_list(args: argparse.Namespace) -> int:
    catalog = _load(args)
    specs = catalog.select(families=[args.family] if args.family else None,
                           tag=args.tag)
    header = (f"{'name':<18} {'family':<14} {'kind':<9} {'seed':>8} "
              f"{'accesses':>9}  tags/expected")
    print(header)
    print("-" * len(header))
    for spec in specs:
        notes = list(spec.tags)
        if spec.expected:
            notes.append(f"expected:{len(spec.expected)}")
        accesses = spec.accesses if spec.accesses is not None else "-"
        print(f"{spec.name:<18} {spec.family:<14} {spec.kind:<9} "
              f"{spec.seed:>8} {accesses!s:>9}  {','.join(notes)}")
    print(f"[{len(specs)} scenario(s) in {catalog.directory}]")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    catalog = _load(args)
    print(catalog.get(args.name).to_toml(), end="")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        directory = Path(args.catalog) if args.catalog \
            else default_catalog_dir()
        if not directory.is_dir():
            print(f"error: no catalog directory at {directory}",
                  file=sys.stderr)
            return 2
        paths = sorted(directory.rglob("*.toml"))
    failures = 0
    names: dict[str, str] = {}
    for path in paths:
        try:
            specs = parse_scenario_file(path)
        except (ScenarioError, OSError) as exc:
            failures += 1
            print(f"FAIL {path}\n  {exc}")
            continue
        dupes = []
        for spec in specs:
            if spec.name in names:
                dupes.append(f"{spec.name!r} already defined in "
                             f"{names[spec.name]}")
            names[spec.name] = str(path)
        if dupes:
            failures += 1
            print(f"FAIL {path}\n  " + "\n  ".join(dupes))
        else:
            print(f"ok   {path} ({len(specs)} scenario(s))")
    print(f"[{len(paths)} file(s), {len(names)} scenario(s), "
          f"{failures} failing]")
    return 1 if failures else 0


def _run_prefetchers(args: argparse.Namespace,
                     spec: ScenarioSpec) -> list[str]:
    if args.prefetcher:
        return list(dict.fromkeys(args.prefetcher))
    if spec.sim.get("prefetchers"):
        return list(spec.sim["prefetchers"])
    referenced = sorted(prefetchers_under_test(spec.expected))
    return referenced or ["pmp"]


def cmd_run(args: argparse.Namespace) -> int:
    # Imported here so `scenarios list/validate` stay sim-free and fast.
    from ..experiments.runner import DEFAULT_ACCESSES, SuiteRunner
    from ..memtrace.workloads import expand_scenario
    from ..prefetchers import COMPETITORS

    if args.accesses < 0:
        print(f"error: --accesses must be at least 0 (0 = the scenario's "
              f"default), got {args.accesses}", file=sys.stderr)
        return 2
    selected: list[tuple[ScenarioSpec, Path | None]] = []
    for file in args.spec:
        try:
            specs = parse_scenario_file(file)
        except OSError as exc:
            print(f"error: cannot read --spec {file}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
        selected.extend((spec, Path(file).parent) for spec in specs)
    if args.names:
        catalog = _load(args)
        for name in args.names:
            selected.append((catalog.get(name), catalog.directory))
    if not selected:
        print("error: name at least one scenario (or --spec FILE)",
              file=sys.stderr)
        return 2

    overall = ExpectationReport()
    for spec, base_dir in selected:
        factories = {}
        for name in _run_prefetchers(args, spec):
            if name not in COMPETITORS:
                print(f"error: unknown prefetcher {name!r}; known: "
                      f"{sorted(COMPETITORS)}", file=sys.stderr)
                return 2
            factories[name] = COMPETITORS[name]
        accesses = args.accesses or spec.accesses or DEFAULT_ACCESSES
        runner = SuiteRunner(specs=expand_scenario(spec, base_dir),
                             accesses=accesses,
                             fastpath=not args.no_fastpath)

        print(f"== scenario {spec.name} ({spec.kind}, family {spec.family}, "
              f"{accesses} accesses) ==")
        matrix, baselines = runner.suite_comparison(factories)
        for index, workload in enumerate(runner.specs):
            trace, baseline = runner.traces[index], baselines[index]
            results = {name: suite[index] for name, suite in matrix.items()}
            print(f"{workload.name}: baseline ipc {baseline.ipc:.4f}, "
                  f"mpki {trace.estimated_mpki():.1f}")
            for name, result in results.items():
                print(f"  {name:<10} nipc {result.nipc(baseline):.4f}  "
                      f"nmt {result.nmt(baseline):.4f}  "
                      f"cov(l1d) {result.coverage(baseline, 'l1d'):.4f}  "
                      f"acc(l1d) {result.accuracy('l1d'):.4f}")
            report = evaluate_expected(spec.expected, trace=trace,
                                       results=results, baseline=baseline)
            for line in report.lines():
                print(line)
            if not spec.expected:
                print("  [no expected: block — nothing to gate]")
            overall.merge(report)
        print()

    if overall.failed:
        print(f"[expected: {len(overall.failed)} assertion(s) FAILED, "
              f"{len(overall.passed)} passed]")
        return 0 if args.no_gate else 1
    print(f"[expected: all {len(overall.passed)} assertion(s) passed]")
    return 0


def scenarios_main(argv: list[str] | None = None) -> int:
    """Entry point for ``pmp-repro scenarios``; returns the exit code."""
    args = _parser().parse_args(argv)
    handler = {"list": cmd_list, "show": cmd_show,
               "validate": cmd_validate, "run": cmd_run}[args.command]
    try:
        return handler(args)
    # ScenarioError is a ValueError.
    except (CatalogNotFound, KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(scenarios_main())
