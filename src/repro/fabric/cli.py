"""``pmp-repro fabric`` — drive the lease fabric from the command line.

Three subcommands::

    pmp-repro fabric worker --cache-dir .repro-cache        # claim loop
    pmp-repro fabric status --cache-dir .repro-cache        # inspect a run
    pmp-repro fabric broker fig8 --workers 0 --cache-dir …  # publish + reap

``worker`` attaches to the newest open batch under
``<cache-dir>/runs/`` (or a specific ``--run-id``) and simulates claimed
jobs until the batch completes.  ``broker`` is sugar for the main CLI
with ``--fabric`` appended — the broker *is* the ordinary experiment
command, journaling and manifests included.  ``status`` prints the batch
state, per-state lease counts and the worker census with heartbeat ages.

The chaos knobs ``REPRO_FABRIC_CLAIM_HOLD`` (seconds to sleep after each
claim) and ``REPRO_FABRIC_FREEZE_HEARTBEAT`` (suppress all renewals)
apply to ``worker`` and exist for the fault-injection suite and the CI
``chaos`` job.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .lease import FabricConfig
from .protocol import (LEASE_STATES, heartbeat_age, read_batch, scan_leases,
                       scan_workers)
from .worker import worker_from_env


def _config(args: argparse.Namespace) -> FabricConfig:
    return FabricConfig(lease_ttl=args.lease_ttl,
                        heartbeat_interval=args.heartbeat,
                        poll_interval=args.poll)


def _worker(args: argparse.Namespace) -> int:
    worker = worker_from_env(Path(args.cache_dir) / "runs", args.run_id,
                             _config(args), worker_id=args.worker_id,
                             max_idle=args.max_idle)
    print(f"[fabric worker {worker.worker_id} serving {args.cache_dir}]")
    code = worker.run()
    print(f"[fabric worker {worker.worker_id}: {worker.jobs_done} job(s) "
          f"done, exit {code}]")
    return code


def _status_run_dir(args: argparse.Namespace) -> Path | None:
    root = Path(args.cache_dir) / "runs"
    if args.run_id:
        run_dir = root / args.run_id
        return run_dir if run_dir.is_dir() else None
    candidates = [d for d in root.iterdir()
                  if (d / "fabric").is_dir()] if root.is_dir() else []
    return max(candidates, key=lambda d: d.stat().st_mtime, default=None)


def _status(args: argparse.Namespace) -> int:
    run_dir = _status_run_dir(args)
    if run_dir is None:
        print("no fabric run found", file=sys.stderr)
        return 2
    batch = read_batch(run_dir) or {}
    print(f"run:    {run_dir.name}")
    print(f"status: {batch.get('status', 'unknown')} "
          f"({batch.get('total', '?')} job(s))")
    counts = {state: len(scan_leases(run_dir, state))
              for state in LEASE_STATES}
    print("leases: " + "  ".join(f"{state}={counts[state]}"
                                 for state in LEASE_STATES))
    workers = scan_workers(run_dir)
    print(f"workers ({len(workers)}):")
    for worker_id in sorted(workers):
        path, record = workers[worker_id]
        age = heartbeat_age(path)
        beat = f"{age:.1f}s ago" if age is not None else "gone"
        state = "exited" if "exited_unix" in record else f"heartbeat {beat}"
        print(f"  {worker_id}  pid={record.get('pid', '?')}  "
              f"jobs_done={record.get('jobs_done', 0)}  {state}")
    return 0


def fabric_main(argv: list[str] | None = None) -> int:
    """Entry point for ``pmp-repro fabric …``."""
    if argv is None:
        argv = sys.argv[1:]
    # `fabric broker <experiment> …` delegates to the main CLI with
    # --fabric appended, so the broker gets the full experiment argument
    # set (and the exit-code contract) without duplicating it here.
    if argv and argv[0] == "broker":
        from ..cli import main
        return main(argv[1:] + ["--fabric"])
    parser = argparse.ArgumentParser(
        prog="pmp-repro fabric",
        description="Lease-based distributed experiment fabric.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("worker", "claim and simulate fabric leases"),
                      ("status", "inspect a fabric run")):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--cache-dir", default=".repro-cache",
                         help="the broker's result-cache directory "
                              "(leases live under <cache-dir>/runs/)")
        cmd.add_argument("--run-id", default=None,
                         help="attach to this run (default: newest open)")
    worker = sub.choices["worker"]
    worker.add_argument("--lease-ttl", type=float, default=60.0,
                        help="seconds without a heartbeat before the "
                             "broker may reassign a claim")
    worker.add_argument("--heartbeat", type=float, default=None,
                        metavar="SECONDS",
                        help="heartbeat cadence (default: lease-ttl / 3)")
    worker.add_argument("--poll", type=float, default=0.5,
                        help="idle scan cadence in seconds")
    worker.add_argument("--max-idle", type=float, default=60.0,
                        help="exit if no open batch appears in this long")
    worker.add_argument("--worker-id", default=None,
                        help="explicit census identity (default: "
                             "<host>-<pid>-<hex>)")
    args = parser.parse_args(argv)
    return _worker(args) if args.command == "worker" else _status(args)


if __name__ == "__main__":
    sys.exit(fabric_main())
