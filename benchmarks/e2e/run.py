"""End-to-end figure benchmark: Fig 8 cold, parallel and warm, and a Fig 13 mix.

Usage, from the root of the repository::

    python3 benchmarks/e2e/run.py                  # all four workloads, seed 0
    python3 benchmarks/e2e/run.py --workload fig8-serial --seed 3 --seconds 6
    python3 benchmarks/e2e/run.py --workload fig13-mix --trace 1

Each workload runs in a fresh child process, one child at a time; only
fig8-workers2 and the untimed cache fill of fig8-warm start more
processes (two pool workers).  Before the
measured child, two probe children only set up (interpreter start,
``import repro``, catalog load and spec compile) and exit; ``setup_s`` is
the median set-up time of all three.

End-to-end times are scaled to the reference host speed measured by a
fixed calibration loop (``calibrate.py``), so a host that slows down
under other tenants does not read as a regression.

Every metric is printed by name and unit.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``--trace`` the metrics are the
end-to-end ones; with ``--trace 1`` the workload runs once plain and once
with every layer boundary wrapped, and the metrics are the per-layer ones
(``spans.json`` lands in ``benchmarks/e2e/out/<workload>/``).

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 before running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

WORKLOADS = ("fig8-serial", "fig8-workers2", "fig8-warm", "fig13-mix")
SETUP_PROBES = 2
#: Calibration loops a child runs before and after its set-up.
SETUP_LOOPS = 5
#: Seconds one workload (its probes and measured child) may take; a child
#: still running then is killed and the run fails.
WORKLOAD_TIMEOUT_S = 170.0
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "wall_p75_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MiB"}


class ChildFailed(RuntimeError):
    """A child process crashed, hung or printed no result."""


def preflight() -> list[str]:
    """What the checkout lacks to run the benchmark (empty when complete)."""
    needed = (ROOT / "src" / "repro" / "__init__.py",
              ROOT / "scenarios" / "catalog.toml")
    return [f"missing {path.relative_to(ROOT)}" for path in needed
            if not path.is_file()]


def child_env() -> dict[str, str]:
    """The children's environment: this checkout's sources, nothing else.

    ``REPRO_*`` switches (invariant audits, chaos faults, another catalog)
    are dropped, temporary files stay in the checkout, and git does not
    look above it for a repository.
    """
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               TMPDIR=str(tmp), GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    return env


def _stop(proc: subprocess.Popen) -> None:
    """Kill a child and reap it (its pool workers exit on the closed pipe)."""
    proc.kill()
    proc.wait()


def spawn(child_args: list[str], env: dict,
          deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a child; return it and the seconds until it reported ready."""
    start = time.perf_counter()
    # Unbuffered bytes, so reading the ready line leaves the rest of the
    # output in the pipe for communicate().
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--child", *child_args],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, bufsize=0)
    readable, _, _ = select.select([proc.stdout], [], [],
                                   max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if readable else b""
    setup = time.perf_counter() - start
    words = line.split()
    if len(words) != 3 or words[0] != b"ready":
        _stop(proc)
        raise ChildFailed(f"child did not finish set-up (read {line!r})")
    # The child timed the calibration loop around its set-up: take that
    # time out and scale the rest to the reference speed.
    return proc, (setup - float(words[1])) * float(words[2])


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a child; return its last output line."""
    try:
        out, _ = proc.communicate(
            timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise ChildFailed(f"workload exceeded {WORKLOAD_TIMEOUT_S:.0f}s") \
            from None
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with status {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return lines[-1] if lines else ""


def run_child(workload: str, args: argparse.Namespace) -> dict:
    """Set-up probes, then the measured child; returns its payload.

    ``setups`` holds every child's set-up seconds at the reference speed.
    """
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    env = child_env()
    common = ["--workload", workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, setup = spawn([*common, "--probe"], env, deadline)
            finish(proc, deadline)
            setups.append(setup)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.record_golden:
        extra.append("--record-golden")
    proc, setup = spawn([*common, *extra], env, deadline)
    last = finish(proc, deadline)
    try:
        payload = json.loads(last)
    except json.JSONDecodeError:
        raise ChildFailed(f"child printed no result (read {last!r})") from None
    payload["setups"] = [*setups, setup]
    return payload


def quantile75(values: list[float]) -> float:
    """Upper quartile, interpolated within the samples (one value: itself)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def e2e_metrics(payload: dict) -> dict[str, dict]:
    """The end-to-end metrics of one workload run, with units.

    Times are scaled to the reference host speed (see ``calibrate.py``).
    """
    walls = [wall for wall, _ in payload["samples"]]
    cpus = [cpu for _, cpu in payload["samples"]]
    values = {
        "setup_s": statistics.median(payload["setups"]),
        "wall_s": statistics.median(walls),
        "wall_p75_s": quantile75(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": payload["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in E2E_UNITS.items()}


def metrics_of(payload: dict, traced: bool) -> dict[str, dict]:
    if traced:
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in payload["per_layer"].items()}
    return e2e_metrics(payload)


def render(workload: str, payload: dict, metrics: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, then the checks."""
    lines = [f"{workload}: {len(payload['samples'])} timed figure(s), "
             f"{payload['attempted']} operation(s), {payload['failed']} failed; "
             f"host at {payload['speed']:.3f} of reference speed, raw "
             f"median wall {statistics.median(payload['raw_walls']):.4g} s"]
    lines += [f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}"
              for name, metric in metrics.items()]
    missing = payload.get("missing_boundaries")
    if missing:
        lines.append(f"  boundaries that never fired: {', '.join(missing)}")
    return lines


def child_main(args: argparse.Namespace) -> int:
    """Set up, report ready, run one workload, print its payload as JSON.

    The ready line carries the seconds the calibration loop took around
    the set-up and the host speed it measured.
    """
    loops = [calibrate.probe() for _ in range(SETUP_LOOPS)]
    import workloads  # imports repro: the set-up being timed

    load_start = time.perf_counter()
    specs = workloads.draw_specs(args.seed)
    load_s = time.perf_counter() - load_start
    loops += [calibrate.probe() for _ in range(SETUP_LOOPS)]
    print(f"ready {sum(loops)!r} {calibrate.speed(loops)!r}", flush=True)
    if args.probe:
        return 0
    verifier = workloads.Verifier(OUT / "ledger",
                                  record_golden=args.record_golden)
    payload = workloads.run_workload(
        args.workload, specs, args.seed, OUT / args.workload,
        seconds=args.seconds, traced=bool(args.trace), verifier=verifier,
        load_s=load_s)
    print(json.dumps(payload), flush=True)
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (0 is the default, 1 is held out)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time about this many seconds of figures "
                             "(at least one; fig8-warm at least 40 replays)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--record-golden", action="store_true",
                        help="write this seed's digests to golden.json "
                             "instead of checking them")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    problems = preflight()
    if problems:
        print(f"error: {ROOT} is not a complete checkout: "
              f"{'; '.join(problems)}", file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else list(WORKLOADS)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in selected:
        try:
            payload = run_child(workload, args)
        except ChildFailed as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        metrics = metrics_of(payload, bool(args.trace))
        print("\n".join(render(workload, payload, metrics)), flush=True)
        summary["attempted"] += payload["attempted"]
        summary["failed"] += payload["failed"]
        prefix = "" if args.workload else f"{workload}."
        summary["metrics"].update({prefix + name: metric
                                   for name, metric in metrics.items()})
    summary["correct"] = summary["failed"] == 0 and summary["attempted"] > 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
