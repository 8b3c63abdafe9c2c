"""The ``pmp-repro sample`` command group.

Examples::

    pmp-repro sample plan --trace spec06-00 --accesses 25000
    pmp-repro sample validate                  # golden traces, CI defaults
    pmp-repro sample validate --bound 2.0 --max-fraction 25
    pmp-repro sample validate --windows 3 --warmup-windows 0 --bound 0.01
                                               # deliberately coarse: exits 1

Exit codes: 0 = every trace within the NIPC-error bound and the
executed-fraction cap; 1 = at least one trace out of bounds (or a plan
fell back where sampling was expected to engage); 2 = usage error.
"""

from __future__ import annotations

import argparse
import sys

from .config import SamplingConfig
from .validate import GOLDEN_TRACES, VALIDATE_ACCESSES, validate_sampling


def _add_sampling_flags(parser: argparse.ArgumentParser) -> None:
    defaults = SamplingConfig()
    parser.add_argument("--windows", type=int, default=defaults.windows,
                        help="target window count over the measured region")
    parser.add_argument("--warmup-windows", type=int,
                        default=defaults.warmup_windows,
                        help="cache-warmup windows simulated (stats "
                             "discarded) before each representative")
    parser.add_argument("--max-clusters", type=int,
                        default=defaults.max_clusters,
                        help="cap on simulated representatives")
    parser.add_argument("--threshold", type=float, default=defaults.threshold,
                        help="L1 signature distance to join a cluster")


def _sampling(args: argparse.Namespace) -> SamplingConfig:
    return SamplingConfig(windows=args.windows,
                          warmup_windows=args.warmup_windows,
                          max_clusters=args.max_clusters,
                          threshold=args.threshold)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmp-repro sample",
        description="Inspect and validate sampled simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser(
        "plan", help="show the window/cluster plan for one trace")
    p_plan.add_argument("--trace", default=GOLDEN_TRACES[0],
                        help="workload name from the full suite")
    p_plan.add_argument("--accesses", type=int, default=None,
                        help=f"trace length (default: {VALIDATE_ACCESSES})")
    p_plan.add_argument("--warmup", type=float, default=0.2,
                        help="full-run warmup fraction")
    _add_sampling_flags(p_plan)

    p_val = sub.add_parser(
        "validate", help="run sampled vs full and gate the fidelity")
    p_val.add_argument("--trace", action="append", default=[],
                       metavar="NAME",
                       help="workload(s) to validate on (default: the "
                            "golden traces)")
    p_val.add_argument("--accesses", type=int, default=None,
                       help=f"trace length (default: {VALIDATE_ACCESSES}, "
                            "the calibration scale)")
    p_val.add_argument("--prefetcher", default="pmp",
                       help="prefetcher under test (default: pmp)")
    p_val.add_argument("--warmup", type=float, default=0.2,
                       help="full-run warmup fraction")
    p_val.add_argument("--bound", type=float, default=2.0, metavar="PCT",
                       help="max NIPC error percent (default: 2.0)")
    p_val.add_argument("--max-fraction", type=float, default=25.0,
                       metavar="PCT",
                       help="max executed-access percent (default: 25)")
    p_val.add_argument("--no-fastpath", action="store_true",
                       help="force the event kernel in every simulation")
    _add_sampling_flags(p_val)
    return parser


def cmd_plan(args: argparse.Namespace) -> int:
    from ..memtrace.workloads import full_suite
    from .plan import build_plan

    by_name = {spec.name: spec for spec in full_suite()}
    if args.trace not in by_name:
        print(f"error: unknown trace {args.trace!r}", file=sys.stderr)
        return 2
    accesses = args.accesses or VALIDATE_ACCESSES
    trace = by_name[args.trace].build(accesses)
    plan = build_plan(trace, args.warmup, _sampling(args))
    print(f"== sampling plan: {args.trace} ({accesses} accesses) ==")
    if plan.fallback is not None:
        print(f"fallback: {plan.fallback}")
        return 0
    print(f"windows: {len(plan.bounds)} x {plan.window_accesses} accesses "
          f"(measured region {plan.measured}, warmup ends {plan.warmup_end})")
    print(f"clusters: {plan.clustering.clusters}  "
          f"executed: {plan.simulated_accesses} accesses "
          f"({plan.fraction_simulated * 100.0:.1f}% of trace)  "
          f"weighted dispersion: {plan.weighted_dispersion:.4f}")
    for rep in plan.representatives:
        members = len(plan.clustering.members(rep.cluster))
        print(f"  cluster {rep.cluster}: {members:>3} window(s), "
              f"weight {rep.weight:>7}, rep [{rep.start}:{rep.end}) "
              f"prefix {rep.start - rep.prefix_start}, "
              f"dispersion {rep.dispersion:.4f}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    traces = tuple(dict.fromkeys(args.trace)) or GOLDEN_TRACES
    try:
        records = validate_sampling(
            traces, accesses=args.accesses, prefetcher=args.prefetcher,
            sampling=_sampling(args), warmup_fraction=args.warmup,
            fastpath=not args.no_fastpath)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    failures = []
    print(f"== sampling fidelity: {args.prefetcher}, bound "
          f"{args.bound:.2f}% NIPC error, <= {args.max_fraction:.0f}% "
          f"executed ==")
    for rec in records:
        executed_pct = rec.fraction_simulated * 100.0
        problems = []
        if rec.fallback:
            problems.append(f"fell back ({rec.fallback})")
        if rec.nipc_error > args.bound:
            problems.append(f"NIPC error {rec.nipc_error:.3f}% "
                            f"> {args.bound:.2f}%")
        if executed_pct > args.max_fraction:
            problems.append(f"executed {executed_pct:.1f}% "
                            f"> {args.max_fraction:.0f}%")
        verdict = "FAIL" if problems else "ok"
        print(f"{verdict:<5} {rec.trace:<12} "
              f"nipc {rec.full_nipc:.4f} -> {rec.sampled_nipc:.4f} "
              f"(err {rec.nipc_error:.3f}%)  executed {executed_pct:.1f}%  "
              f"predicted +/-{rec.predicted_relative * 100.0:.1f}%")
        for metric, error in sorted(rec.errors.items()):
            if metric != "nipc":
                print(f"        {metric:<18} err {error:.3f}%")
        if problems:
            failures.append(f"{rec.trace}: " + "; ".join(problems))
    if failures:
        print(f"[sampling fidelity: {len(failures)} of {len(records)} "
              "trace(s) out of bounds]")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"[sampling fidelity: all {len(records)} trace(s) within bounds]")
    return 0


def sample_main(argv: list[str] | None = None) -> int:
    """Entry point for ``pmp-repro sample``; returns the exit code."""
    args = _parser().parse_args(argv)
    try:
        return {"plan": cmd_plan, "validate": cmd_validate}[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(sample_main())
