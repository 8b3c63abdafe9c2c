"""Seedable chaos harness: prefetchers that misbehave on demand.

Fault-injection counterpart to :mod:`repro.experiments.faults`: where the
engine's env-knob injector (``REPRO_CHAOS_SEED``) faults *jobs* picked by
hash draw, :class:`FaultyPrefetcher` puts the fault under direct test
control — construct it with a mode and it fires exactly once, inside a
worker process, on the first demand access it sees.

The once-only guarantee uses the same trick as the engine's injector: a
file latch created with ``exist_ok=False`` *before* the fault fires, so
a retried attempt (fresh worker, same latch directory) runs clean.  That
is what lets every recovery test demand bit-identical results against an
unfaulted run — the fault perturbs the machinery, never the simulation.

Modes:

* ``"none"``  — behave exactly like PMP (the clean reference),
* ``"hang"``  — sleep past the job deadline (transport: timeout),
* ``"crash"`` — ``os._exit(139)``, killing the worker mid-lease
  (transport: lease expired),
* ``"raise"`` — raise :class:`ChaosRaise` (deterministic failure).

``only_in_worker`` (default on) suppresses the fault outside worker
processes so an inline fallback or serial reference run can never hang
or kill the test process.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from pathlib import Path

from repro.prefetchers.pmp import PMP

MODES = ("none", "hang", "crash", "raise")


class ChaosRaise(RuntimeError):
    """The deterministic exception ``mode="raise"`` throws."""


def in_worker_process() -> bool:
    """True inside a worker process (it has a parent process)."""
    return multiprocessing.parent_process() is not None


class FaultyPrefetcher(PMP):
    """A PMP that fires one configured fault on its first demand access.

    Behaviourally identical to :class:`PMP` (the fault is a side effect,
    not a policy change), so a faulted-then-recovered run must produce
    the same :class:`SimResult`s as a ``mode="none"`` run.
    """

    def __init__(self, mode: str = "none", latch_dir: str | Path | None = None,
                 hang_seconds: float = 30.0,
                 only_in_worker: bool = True) -> None:
        assert mode in MODES, mode
        super().__init__()
        self.mode = mode
        self.latch_dir = str(latch_dir) if latch_dir is not None else None
        self.hang_seconds = hang_seconds
        self.only_in_worker = only_in_worker
        self._checked = False

    def _claim_latch(self) -> bool:
        """Arm the fault at most once per latch directory (cross-process)."""
        if self.latch_dir is None:
            return True
        latch_dir = Path(self.latch_dir)
        latch_dir.mkdir(parents=True, exist_ok=True)
        try:
            (latch_dir / f"{self.mode}.fired").touch(exist_ok=False)
        except FileExistsError:
            return False
        return True

    def _maybe_fire(self) -> None:
        if self.mode == "none":
            return
        if self.only_in_worker and not in_worker_process():
            return
        if not self._claim_latch():
            return
        if self.mode == "hang":
            time.sleep(self.hang_seconds)
        elif self.mode == "crash":
            os._exit(139)
        elif self.mode == "raise":
            raise ChaosRaise(f"chaos: injected deterministic failure "
                             f"({self.mode})")

    def on_access(self, pc, address, cycle, hit, view):
        if not self._checked:
            self._checked = True
            self._maybe_fire()
        return super().on_access(pc, address, cycle, hit, view)


# --------------------------------------------------------- fabric injectors
#
# Fault injectors for the lease fabric (repro.fabric).  The interesting
# faults are *process*-shaped — a worker SIGKILLed mid-lease, a worker
# alive but silent (frozen heartbeat), two workers racing one claim — so
# the helpers here spawn real `pmp-repro fabric worker` subprocesses and
# give tests handles to aim the fault: wait until a claim exists, find
# out which pid holds it, kill it.


def spawn_fabric_worker(cache_dir: str | Path, *, run_id: str | None = None,
                        lease_ttl: float = 2.0, poll: float = 0.05,
                        max_idle: float = 30.0, worker_id: str | None = None,
                        claim_hold: float = 0.0,
                        freeze_heartbeat: bool = False):
    """Start a real fabric worker process against ``cache_dir``.

    ``claim_hold`` and ``freeze_heartbeat`` arm the worker's chaos env
    knobs: the first widens the mid-lease window a SIGKILL needs, the
    second turns the worker into a live-but-silent partition whose
    claims go stale under it.
    """
    import subprocess
    import sys

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    if claim_hold:
        env["REPRO_FABRIC_CLAIM_HOLD"] = str(claim_hold)
    if freeze_heartbeat:
        env["REPRO_FABRIC_FREEZE_HEARTBEAT"] = "1"
    cmd = [sys.executable, "-m", "repro.cli", "fabric", "worker",
           "--cache-dir", str(cache_dir), "--lease-ttl", str(lease_ttl),
           "--poll", str(poll), "--max-idle", str(max_idle)]
    if run_id:
        cmd += ["--run-id", run_id]
    if worker_id:
        cmd += ["--worker-id", worker_id]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)


def record_backoffs(policy) -> list[float]:
    """Wrap ``policy.backoff`` to record every retry delay it grants."""
    delays: list[float] = []
    backoff = policy.backoff

    def recording(attempt: int) -> float:
        delays.append(backoff(attempt))
        return delays[-1]

    policy.backoff = recording
    return delays


def wait_for(predicate, timeout: float = 30.0, interval: float = 0.02):
    """Poll ``predicate`` until it returns a truthy value (the value) or
    the timeout expires (AssertionError — chaos tests must never hang)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"condition not reached within {timeout}s: "
                         f"{predicate}")


def wait_for_fabric_claim(run_dir: Path, timeout: float = 30.0) -> dict:
    """Block until some worker holds a claim; returns the claim record."""
    from repro.fabric.protocol import read_json, scan_leases

    def claimed():
        for _key, (_epoch, path) in scan_leases(run_dir, "claimed").items():
            record = read_json(path)
            if record is not None and record.get("worker"):
                return record
        return None

    return wait_for(claimed, timeout)


def claim_holder_pid(record: dict) -> int:
    """The pid embedded in a claim's worker id (``<host>-<pid>-<hex>``).

    Hostnames may themselves contain dashes, so the pid is parsed from
    the right.
    """
    return int(str(record["worker"]).rsplit("-", 2)[-2])


def corrupt_cache_entry(path: Path, how: str = "flip-payload") -> None:
    """Damage one cache entry file in a named, deterministic way."""
    if how == "flip-payload":
        # Valid JSON whose payload no longer matches its checksum.
        text = path.read_text()
        path.write_text(text.replace('"result": {', '"result": {"x": 1, ', 1))
    elif how == "truncate":
        path.write_bytes(path.read_bytes()[: max(1, path.stat().st_size // 2)])
    elif how == "garbage":
        path.write_text("{not json")
    else:
        raise ValueError(how)
