"""Command-line interface: regenerate any paper table or figure.

Examples::

    pmp-repro fig8                  # five-prefetcher single-core NIPC
    pmp-repro run fig8 --workers 4  # same, on 4 local worker processes
    pmp-repro table1                # PCR/PDR feature analysis
    pmp-repro fig12a --accesses 40000
    pmp-repro fig13 --traces 4
    pmp-repro storage               # Tables III and V
    pmp-repro all --no-cache        # everything (slow), bypass result cache
    pmp-repro run fig9 --cache-dir /tmp/pmp-cache
    pmp-repro fig8 --workers 8 --job-timeout 600   # reap and retry hung jobs
    pmp-repro fig8 --resume run-20260806-101530-a1b2c3  # after an interrupt
    pmp-repro bench                 # performance harness -> BENCH_*.json
    pmp-repro bench --compare benchmarks/baselines/BENCH_micro.json
    pmp-repro scenarios list        # the declarative workload catalog
    pmp-repro scenarios run thrash-00   # expected:-gated scenario run
    pmp-repro fig8 --scenario tenants-00 --scenario thrash-00

Simulation-backed commands persist their results under ``--cache-dir``
(default ``.repro-cache/``) keyed by a content hash of (trace, prefetcher
config, system config), so a rerun replays instantly; every run also
writes a JSON manifest (git SHA, timings, cache hit/miss, fault counts)
under ``<cache-dir>/manifests/``.

Fault tolerance: each simulating run journals every finished job under
``<cache-dir>/runs/<run-id>/``.  SIGINT/SIGTERM stop gracefully at the
next job boundary and print the ``--resume`` hint; ``--resume <run-id>``
replays journaled jobs and simulates only the rest.  ``--job-timeout``
bounds every parallel job, ``--fail-fast`` aborts on the first
deterministic job failure instead of finishing the batch and reporting
all failures at the end.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from pathlib import Path

from .experiments import (
    BatchFailed,
    RunInterrupted,
    RunJournal,
    SuiteRunner,
    bandwidth_sweep,
    counter_size_sweep,
    design_b_sweep,
    extraction_sweep,
    fig2_report,
    fig4_report,
    fig5_report,
    fig13,
    fig13_report,
    llc_size_sweep,
    monitoring_range_sweep,
    pattern_length_sweep,
    run_fig2,
    run_fig4,
    run_single_core,
    run_table_i,
    structure_sweep,
    sweep_report,
    table_i_report,
    trigger_offset_width_sweep,
)
from .experiments.faults import FaultPolicy
from .experiments.runner import DEFAULT_ACCESSES
from .experiments.sensitivity import sweep_report as sensitivity_report
from .memtrace.workloads import compile_catalog, full_suite, quick_suite
from .storage import table_v
from .experiments.report import event_counter_report, format_table


def _specs(args: argparse.Namespace):
    if getattr(args, "scenario", None):
        from .scenarios import load_catalog

        catalog = load_catalog(args.catalog)
        return compile_catalog([catalog.get(name) for name in args.scenario],
                               catalog.directory)
    if args.full_suite:
        return full_suite(_catalog(args))
    suite = quick_suite(_catalog(args))
    return suite[:args.traces] if args.traces else suite


def _catalog(args: argparse.Namespace):
    if not getattr(args, "catalog", None):
        return None
    from .scenarios import load_catalog

    return load_catalog(args.catalog)


def _journal(args: argparse.Namespace) -> RunJournal | None:
    """The invocation's one journal, shared by its runner.

    Created lazily so non-simulating commands (``storage``, ``table1``)
    never litter ``<cache-dir>/runs/``.
    """
    if not args.journal:
        return None
    if getattr(args, "journal_obj", None) is None:
        root = Path(args.cache_dir) / "runs"
        if args.resume:
            args.journal_obj = RunJournal.resume(root, args.resume)
            print(f"[resuming run {args.journal_obj.run_id}: "
                  f"{args.journal_obj.completed} job(s) already journaled]")
        else:
            args.journal_obj = RunJournal(root, args.run_id)
            print(f"[run {args.journal_obj.run_id}: journal at "
                  f"{args.journal_obj.directory}]")
    return args.journal_obj


def _fabric(args: argparse.Namespace):
    """The run's FabricConfig, or None when --fabric is off."""
    if not getattr(args, "fabric", False):
        return None
    from .fabric.lease import FabricConfig

    overrides = {}
    if args.lease_ttl is not None:
        overrides["lease_ttl"] = args.lease_ttl
    if args.fabric_poll is not None:
        overrides["poll_interval"] = args.fabric_poll
    return FabricConfig(**overrides)


def _runner(args: argparse.Namespace) -> SuiteRunner:
    """The one runner shared by every experiment of this invocation, so
    ``all`` simulates each job key once and writes one manifest.

    Created lazily, as the journal is, so analysis-only commands never
    build one.
    """
    if args.runner is None:
        store = None
        if args.trace_cache:
            from .memtrace.store import TraceStore
            store = TraceStore(args.trace_cache)
        args.runner = SuiteRunner(
            specs=_specs(args), accesses=args.accesses, store=store,
            workers=args.workers,
            cache=args.cache_dir if args.cache else None,
            trace_events=args.trace_events,
            check_invariants=args.check_invariants,
            fastpath=not args.no_fastpath, job_timeout=args.job_timeout,
            fail_fast=args.fail_fast, journal=_journal(args),
            fabric=_fabric(args))
    return args.runner


def cmd_fig8(args: argparse.Namespace) -> None:
    """Fig 8 + Section V-D: single-core NIPC and memory traffic."""
    results = run_single_core(_runner(args), include_pmp_limit=True)
    print(results.fig8_report())
    print()
    print(results.nmt_report())


def cmd_fig9(args: argparse.Namespace) -> None:
    """Fig 9 + Fig 10: coverage/accuracy and useful/useless breakdowns."""
    results = run_single_core(_runner(args))
    print(results.fig9_report())
    print()
    print(results.fig10_report())


def cmd_table1(args: argparse.Namespace) -> None:
    """Table I: PCR/PDR per indexing feature."""
    traces = [spec.build(args.accesses) for spec in _specs(args)]
    print(table_i_report(run_table_i(traces)))


def cmd_fig2(args: argparse.Namespace) -> None:
    """Fig 2: pattern frequency census."""
    traces = [spec.build(args.accesses) for spec in _specs(args)]
    print(fig2_report(run_fig2(traces)))


def cmd_fig4(args: argparse.Namespace) -> None:
    """Fig 4: ICDD similarity per clustering feature."""
    traces = [spec.build(args.accesses) for spec in _specs(args)]
    print(fig4_report(run_fig4(traces)))


def cmd_fig5(args: argparse.Namespace) -> None:
    """Fig 5: pattern heat maps for the first selected trace."""
    trace = _specs(args)[0].build(args.accesses)
    print(fig5_report(trace, features=("Trigger Offset", "PC", "PC+Address")))


def cmd_table8(args: argparse.Namespace) -> None:
    """Table VIII: Design B associativity sweep."""
    print(sweep_report("Table VIII — Design B associativity", "ways",
                       design_b_sweep(_runner(args))))


def cmd_extraction(args: argparse.Namespace) -> None:
    """Section V-E2: ANE/ARE/AFE extraction schemes."""
    print(sweep_report("Section V-E2 — extraction schemes", "scheme",
                       extraction_sweep(_runner(args))))


def cmd_structures(args: argparse.Namespace) -> None:
    """Section V-E3: dual/combined/single table structures."""
    print(sweep_report("Section V-E3 — table structures", "structure",
                       structure_sweep(_runner(args))))


def cmd_table9(args: argparse.Namespace) -> None:
    """Table IX: pattern length vs performance and overhead."""
    rows = [(length, nipc, f"{kib:.1f}KB")
            for length, nipc, kib in pattern_length_sweep(_runner(args))]
    print(format_table(["pattern length", "NIPC", "overhead"], rows,
                       title="Table IX — pattern length vs performance/overhead"))


def cmd_table10(args: argparse.Namespace) -> None:
    """Table X: trigger offset width and counter size."""
    runner = _runner(args)
    rows = [(w, nipc, f"{kib:.1f}KB")
            for w, nipc, kib in trigger_offset_width_sweep(runner)]
    print(format_table(["offset width (b)", "NIPC", "overhead"], rows,
                       title="Table X (left) — trigger offset width"))
    print()
    print(sweep_report("Table X (right) — counter size", "bits",
                       counter_size_sweep(runner)))


def cmd_table11(args: argparse.Namespace) -> None:
    """Table XI: PPT monitoring range."""
    print(sweep_report("Table XI — monitoring range", "range",
                       monitoring_range_sweep(_runner(args))))


def cmd_fig12a(args: argparse.Namespace) -> None:
    """Fig 12a: DRAM bandwidth sensitivity."""
    print(sensitivity_report("Fig 12a — DRAM bandwidth sensitivity", "MT/s",
                             bandwidth_sweep(_runner(args))))


def cmd_fig12b(args: argparse.Namespace) -> None:
    """Fig 12b: LLC size sensitivity."""
    print(sensitivity_report("Fig 12b — LLC size sensitivity", "MB",
                             llc_size_sweep(_runner(args))))


def _fig13_dropped_flags(args: argparse.Namespace) -> list[str]:
    """The set flags that Fig 13, which takes only the trace, access,
    ``--workers``, ``--job-timeout`` and ``--fail-fast`` options, cannot
    honour."""
    return [flag for flag, value in (
        ("--fabric", args.fabric), ("--resume", args.resume is not None),
        ("--run-id", args.run_id is not None),
        ("--trace-cache", bool(args.trace_cache)),
        ("--trace-events", args.trace_events)) if value]


def cmd_fig13(args: argparse.Namespace) -> None:
    """Fig 13: 4-core homogeneous and heterogeneous mixes."""
    policy = FaultPolicy(job_timeout=args.job_timeout,
                         fail_fast=args.fail_fast)
    print(fig13_report(fig13(_specs(args), accesses=args.accesses // 2,
                             workers=args.workers, policy=policy)))


def cmd_storage(args: argparse.Namespace) -> None:
    """Tables III and V: storage accounting."""
    budgets = table_v()
    rows = [(name, f"{b.total_kib:.1f}KB") for name, b in budgets.items()]
    print(format_table(["prefetcher", "storage"], rows,
                       title="Table V — prefetcher storage overhead"))
    print()
    pmp = budgets["pmp"]
    rows = [(s.name, s.entries, s.bits_per_entry, f"{s.total_bytes:.0f}B")
            for s in pmp.structures]
    print(format_table(["structure", "entries", "bits/entry", "bytes"], rows,
                       title="Table III — PMP storage breakdown"))


COMMANDS = {
    "fig8": cmd_fig8,
    "fig9": cmd_fig9,
    "table1": cmd_table1,
    "fig2": cmd_fig2,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
    "table8": cmd_table8,
    "extraction": cmd_extraction,
    "structures": cmd_structures,
    "table9": cmd_table9,
    "table10": cmd_table10,
    "table11": cmd_table11,
    "fig12a": cmd_fig12a,
    "fig12b": cmd_fig12b,
    "fig13": cmd_fig13,
    "storage": cmd_storage,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse arguments and run the chosen experiments."""
    if argv is None:
        argv = sys.argv[1:]
    # `pmp-repro run fig8 ...` is sugar for `pmp-repro fig8 ...`; the
    # explicit verb exists for scripts/CI that drive the parallel engine.
    if argv and argv[0] == "run":
        argv = argv[1:]
    # `pmp-repro bench ...` is the performance harness; it owns its own
    # argument set (imported lazily so experiment runs never pay for it).
    if argv and argv[0] == "bench":
        from .bench.cli import bench_main
        return bench_main(argv[1:])
    # `pmp-repro scenarios ...` is the declarative workload catalog
    # (list/show/validate/run); like bench it owns its own argument set.
    if argv and argv[0] == "scenarios":
        from .scenarios.cli import scenarios_main
        return scenarios_main(argv[1:])
    # `pmp-repro fabric ...` is the lease-based distributed fabric:
    # `worker` and `status` own their argument sets (its broker is an
    # ordinary experiment run with --fabric).
    if argv and argv[0] == "fabric":
        from .fabric.cli import fabric_main
        return fabric_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="pmp-repro",
        description="Reproduce the PMP paper's tables and figures.")
    parser.add_argument("experiment", choices=list(COMMANDS) + ["all"],
                        help="which table/figure to regenerate")
    parser.add_argument("--accesses", type=int, default=DEFAULT_ACCESSES,
                        help="trace length (memory accesses) per workload "
                             "(default: the catalog's scale defaults)")
    parser.add_argument("--traces", type=int, default=0,
                        help="limit the number of quick-suite traces "
                             "(0 = all)")
    parser.add_argument("--full-suite", action="store_true",
                        help="use all 125 workloads (slow)")
    parser.add_argument("--scenario", action="append", default=[],
                        metavar="NAME",
                        help="run on this catalog scenario instead of the "
                             "quick suite (repeatable)")
    parser.add_argument("--catalog", default=None, metavar="DIR",
                        help="scenario catalog directory (default: "
                             "<repo>/scenarios, or $REPRO_SCENARIOS)")
    parser.add_argument("--trace-cache", default="",
                        help="directory to cache built traces between runs")
    parser.add_argument("--workers", type=int, default=0,
                        help="local lease-worker processes (0/1 = "
                             "serial); with --fabric, beside external ones")
    parser.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="persist simulation results across runs")
    parser.add_argument("--cache-dir", default=".repro-cache",
                        help="result cache / manifest directory")
    parser.add_argument("--trace-events", action="store_true",
                        help="attach the event-trace observer; prints the "
                             "per-component event counters and stores them "
                             "in the run manifest")
    parser.add_argument("--no-fastpath", action="store_true",
                        help="force every access through the event-driven "
                             "kernel instead of batching ordinary L1-hit "
                             "runs through the vectorized fast path "
                             "(results are bit-identical either way; this "
                             "is the escape hatch / debugging mode)")
    parser.add_argument("--check-invariants", action="store_true",
                        help="audit kernel conservation laws during every "
                             "simulation (MSHR/fill-queue/inclusion/stats/"
                             "dirty-writeback); aborts with a structured "
                             "InvariantViolation on the first breach")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock deadline for --workers N "
                             "and --fabric runs: a job claimed for longer "
                             "is reaped and retried (a local worker holding "
                             "it is killed and replaced)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="abort on the first deterministic job failure "
                             "instead of finishing the batch and reporting "
                             "every failure in the manifest")
    parser.add_argument("--fabric", action="store_true",
                        help="distribute simulate() jobs as durable lease "
                             "files under <cache-dir>/runs/<run-id>/ for "
                             "`pmp-repro fabric worker` processes (same "
                             "host or NFS peers); survives any worker "
                             "dying.  Requires journaling.")
    parser.add_argument("--lease-ttl", type=float, default=None,
                        metavar="SECONDS",
                        help="--fabric only: reassign a claimed job when "
                             "its worker's heartbeat is older than this, "
                             "and fail the batch's remaining jobs after "
                             "this long with no live worker (default 60)")
    parser.add_argument("--fabric-poll", type=float, default=None,
                        metavar="SECONDS",
                        help="--fabric only: broker lease-scan cadence "
                             "(default 0.5)")
    parser.add_argument("--journal", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="journal finished jobs under "
                             "<cache-dir>/runs/<run-id>/ for --resume")
    parser.add_argument("--run-id", default=None,
                        help="explicit id for a new run's journal "
                             "directory (an existing run continues with "
                             "--resume)")
    parser.add_argument("--resume", default=None, metavar="RUN_ID",
                        help="replay the journaled jobs of an interrupted "
                             "run and simulate only the remainder")
    args = parser.parse_args(argv)
    if args.accesses < 1:
        parser.error(f"--accesses must be at least 1, got {args.accesses}")
    if args.traces < 0:
        parser.error(f"--traces must be at least 0 (0 = all), "
                     f"got {args.traces}")
    non_positive = [f"{flag} {value:g}" for flag, value in (
        ("--job-timeout", args.job_timeout), ("--lease-ttl", args.lease_ttl),
        ("--fabric-poll", args.fabric_poll))
        if value is not None and not value > 0]
    if non_positive:
        parser.error(f"seconds must be positive: {', '.join(non_positive)}")
    selector = ("--scenario" if args.scenario
                else "--full-suite" if args.full_suite else None)
    overridden = [flag for flag, value in (("--full-suite", args.full_suite),
                                           ("--traces", args.traces))
                  if value and selector not in (None, flag)]
    if overridden:
        parser.error(f"{selector} selects the traces, so "
                     f"{', '.join(overridden)} would be ignored")
    if args.check_invariants:
        # The env flag reaches every simulation path — worker processes
        # and the multicore driver included — not just SuiteRunner jobs.
        os.environ["REPRO_CHECK_INVARIANTS"] = "1"
    if args.resume and not args.journal:
        parser.error("--resume requires journaling (drop --no-journal)")
    if args.fabric and not args.journal:
        parser.error("--fabric requires journaling (the lease directories "
                     "live under the journal's run directory)")
    fabric_only = [flag for flag, value in (("--lease-ttl", args.lease_ttl),
                                            ("--fabric-poll", args.fabric_poll))
                   if value is not None]
    if fabric_only and not args.fabric:
        parser.error(f"--fabric is not set, so {', '.join(fabric_only)} "
                     f"would be ignored")
    if args.run_id and args.resume:
        parser.error(f"--run-id names a new run; continue run "
                     f"{args.resume!r} with --resume {args.resume} alone")
    if args.run_id and (Path(args.cache_dir) / "runs" / args.run_id).exists():
        parser.error(f"run {args.run_id!r} already exists under "
                     f"{args.cache_dir}; continue it with "
                     f"--resume {args.run_id}")
    if args.experiment in ("fig13", "all"):
        dropped = _fig13_dropped_flags(args)
        if dropped:
            parser.error(f"fig13 would ignore {', '.join(dropped)}")
        if args.accesses < 2:
            parser.error(f"--accesses must be at least 2 for fig13, which "
                         f"halves it per core, got {args.accesses}")
    args.runner = None
    args.journal_obj = None
    if args.resume:
        # Fail fast on a bad run id, before any simulation starts.
        try:
            _journal(args)
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    # SIGINT/SIGTERM: stop the engine at its next job boundary (each
    # finished job is already journaled, so nothing finished is lost); a
    # second signal forces the default KeyboardInterrupt behaviour.
    signals_seen = {"count": 0}

    def _graceful_stop(signum, frame):
        signals_seen["count"] += 1
        if signals_seen["count"] > 1:
            raise KeyboardInterrupt
        print(f"\n[signal {signum}: stopping at the next job boundary — "
              "signal again to force]", file=sys.stderr)
        if args.runner is not None:
            args.runner.engine.request_stop()

    previous_handlers = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous_handlers[sig] = signal.signal(sig, _graceful_stop)
        except ValueError:
            pass  # not in the main thread (embedded use); no handlers

    exit_code = 0
    names = list(COMMANDS) if args.experiment == "all" else [args.experiment]
    try:
        for name in names:
            start = time.time()
            print(f"== {name} ==")
            interrupted: RunInterrupted | None = None
            try:
                COMMANDS[name](args)
            except BatchFailed as exc:
                exit_code = 1
                print(f"\n[{name}: {exc}]", file=sys.stderr)
                for failure in exc.failures:
                    print(f"--- job {failure.index} ({failure.label}) "
                          f"[{failure.kind}, {failure.attempts} attempt(s)] "
                          f"---\n{failure.traceback}", file=sys.stderr)
            except RunInterrupted as exc:
                interrupted = exc
            print(f"[{name} took {time.time() - start:.1f}s]\n")
            if interrupted is not None:
                print(f"[interrupted: {interrupted}]", file=sys.stderr)
                if interrupted.run_id:
                    print(f"[resume with: pmp-repro {name} <same flags> "
                          f"--resume {interrupted.run_id}]", file=sys.stderr)
                exit_code = 130
                break
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)
        if args.runner is not None:
            # One manifest per invocation, named after its command.
            path = args.runner.write_manifest(args.experiment,
                                              f"{args.cache_dir}/manifests")
            counters = args.runner.engine.counters
            print(f"[manifest: {path} — {counters.simulated} simulated, "
                  f"{counters.cache_hits} cache hits]")
            if args.trace_events and counters.event_totals:
                print(event_counter_report(
                    counters.event_totals,
                    title=f"{args.experiment} — event counters"))
        if args.journal_obj is not None:
            args.journal_obj.close()
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
