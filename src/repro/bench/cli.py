"""The ``repro bench`` command.

Examples::

    pmp-repro bench                        # micro + macro, BENCH_*.json in .
    pmp-repro bench micro --scale smoke    # CI-sized micro pass
    pmp-repro bench --only pmp_train --only pmp_extract
    pmp-repro bench --compare benchmarks/baselines/BENCH_micro.json
    pmp-repro bench macro --macro-accesses 25000 --repeats 5

Exit codes: 0 = measured (and, with ``--compare``, no regression);
1 = at least one benchmark regressed past the threshold; 2 = usage or
baseline error (missing/invalid baseline file).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .compare import compare_docs, load_baseline
from .harness import build_bench_doc, write_bench_doc
from .macro import MACRO_ACCESSES, MACRO_SMOKE_ACCESSES, run_macro
from .micro import MICRO_BENCHMARKS, run_micro


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmp-repro bench",
        description="Measure the simulator's hot paths; emit BENCH_<name>.json "
                    "and optionally gate against a baseline.")
    parser.add_argument("suite", nargs="?", choices=["all", "micro", "macro"],
                        default="all", help="which harness to run")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="directory for BENCH_*.json (default: .)")
    parser.add_argument("--repeats", type=int, default=0,
                        help="timing repeats (default, or 0: 5 micro, "
                             "3 macro)")
    parser.add_argument("--scale", choices=["smoke", "default", "large"],
                        default="default",
                        help="micro input sizes; smoke also shrinks the "
                             "macro sample")
    parser.add_argument("--only", action="append", default=None,
                        metavar="NAME",
                        help="run only this micro benchmark (repeatable)")
    parser.add_argument("--macro-accesses", type=int, default=0,
                        help=f"macro sample length (default, or 0: "
                             f"{MACRO_ACCESSES}, smoke {MACRO_SMOKE_ACCESSES})")
    parser.add_argument("--no-fastpath", action="store_true",
                        help="measure the macro samples with the vectorized "
                             "fast path disabled (every access through the "
                             "event kernel); recorded in meta, and baselines "
                             "from the other mode refuse to compare")
    parser.add_argument("--profile-top", type=int, default=10, metavar="N",
                        help="cProfile rows kept per benchmark (0 = skip "
                             "profiling)")
    parser.add_argument("--compare", default=None, metavar="BASELINE.json",
                        help="gate the rerun against a baseline document; "
                             "exit 1 on any regression past --threshold")
    parser.add_argument("--threshold", type=float, default=10.0, metavar="PCT",
                        help="allowed throughput drop in percent "
                             "(default 10)")
    parser.add_argument("--require-all", action="store_true",
                        help="with --compare: benchmarks absent from the "
                             "baseline fail the gate instead of warning")
    parser.add_argument("--list", action="store_true", dest="list_benches",
                        help="list micro benchmark names and exit")
    return parser


def _summary_lines(records) -> list[str]:
    lines = [f"{'benchmark':<22} {'best wall':>12} {'throughput':>16}  units"]
    for record in records:
        lines.append(f"{record.name:<22} {record.wall_seconds:>11.4f}s "
                     f"{record.throughput:>16,.1f}  {record.units}")
    return lines


def bench_main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro bench``; returns the process exit code."""
    parser = _parser()
    args = parser.parse_args(argv)
    negative = [f"{flag} {value:g}" for flag, value in (
        ("--repeats", args.repeats), ("--macro-accesses", args.macro_accesses),
        ("--threshold", args.threshold)) if value < 0]
    if negative:
        parser.error(f"must be at least 0: {', '.join(negative)}")
    if args.list_benches:
        for bench in MICRO_BENCHMARKS:
            print(f"{bench.name:<22} [{bench.units}]")
        print(f"{'simulate_pmp':<22} [accesses/s]  (macro)")
        print(f"{'simulate_hot_loop':<22} [accesses/s]  (macro)")
        return 0

    only = set(args.only) if args.only else None
    if only is not None:
        known = {bench.name for bench in MICRO_BENCHMARKS}
        unknown = only - known
        if unknown:
            print(f"error: unknown micro benchmark(s): {sorted(unknown)}; "
                  f"known: {sorted(known)}", file=sys.stderr)
            return 2

    run_micro_suite = args.suite in ("all", "micro")
    run_macro_suite = args.suite in ("all", "macro") and only is None
    macro_accesses = args.macro_accesses or (
        MACRO_SMOKE_ACCESSES if args.scale == "smoke" else MACRO_ACCESSES)

    docs: list[dict] = []
    written: list[Path] = []
    if run_micro_suite:
        repeats = args.repeats or 5
        records = run_micro(scale=args.scale, repeats=repeats,
                            profile_n=args.profile_top, only=only)
        if not records:
            print("error: no micro benchmarks selected", file=sys.stderr)
            return 2
        print("\n".join(_summary_lines(records)))
        docs.append(build_bench_doc("micro", "micro", records))
        written.append(write_bench_doc("micro", "micro", records, args.out))
    if run_macro_suite:
        repeats = args.repeats or 3
        records = run_macro(accesses=macro_accesses, repeats=repeats,
                            profile_n=args.profile_top,
                            fastpath=not args.no_fastpath)
        print("\n".join(_summary_lines(records)))
        docs.append(build_bench_doc("macro", "macro", records))
        written.append(write_bench_doc("macro", "macro", records, args.out))
    for path in written:
        print(f"[wrote {path}]")

    if args.compare is None:
        return 0

    try:
        baseline = load_baseline(args.compare)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # Gate every benchmark measured this invocation against the baseline.
    merged = {"benchmarks": [row for doc in docs for row in doc["benchmarks"]]}
    result = compare_docs(merged, baseline, threshold_pct=args.threshold,
                          require_all=args.require_all)
    print()
    print(result.report(args.threshold))
    if not result.ok:
        names = ", ".join(d.name for d in result.regressions)
        print(f"error: performance regression in: {names}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(bench_main())
