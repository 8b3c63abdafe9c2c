"""A fixed pure-Python loop that measures how fast the host runs right now.

Shared hosts change speed under a benchmark.  On a 2-vCPU Xeon VM shared
with other tenants, the same Fig 8 took from 21 to 31 seconds within a few
minutes, and twice as long for minutes at a time; its CPU time grew with
it, and the kernel reported no steal time.  So the end-to-end times are
reported at a reference host speed::

    speed = (REFERENCE_S / median loop time while measuring) ** SENSITIVITY
    reported = measured * speed

Under contention the simulator slows less than the loop does.  Over 172
runs of twelve Fig 8 jobs under contention on that VM, log run time
against log loop time had a slope between 0.68 and 0.79 (ordinary and
reverse regression, correlation 0.93); a ten-seed pass of ``fig8-serial``
gave 0.59 to 0.80, and short simulator chunks in another busy spell 0.87
to 1.14.  With an exponent of 1 the scaled times of a busy hour read up
to 15% lower than those of a quiet one, and five runs of one seed spread
by 23%; 0.75 took that spread to 14%.

The loop has to run on the core that does the measured work, so it runs
inside the measured process: about four times a second (on ``SIGALRM``)
for as long as a timed region lasts, with its own time subtracted from the
region; in the pool workers when the measured process only waits for them;
and before and after a child's set-up.  A loop in another process reads
the other core, whose speed differs.  Each timed region is scaled by the
loop runs made while it ran, so a burst of contention is charged to the
samples it hit.  The loop models a small set-associative cache with a
fill queue (dict, slotted-object, heap and integer work, like the
simulator) but uses no code from the repository, so no change to the
program can move it.  With an exponent of 1, over twelve consecutive
Fig 8 figures on that VM, the spread (interquartile range over median) of
wall time fell from 16% raw to 5.4% at the reference speed; over eight
seeds of 40 cache replays, the spread of their 75th percentile fell from
41% raw to 1.5%.
"""

from __future__ import annotations

import heapq
import os
import shutil
import signal
import statistics
import time
from pathlib import Path

#: Loop time on the reference host (2-vCPU Xeon VM, CPython 3.11) in a
#: quiet period.
REFERENCE_S = 0.0050
#: How strongly a figure's time follows the loop's (see above).
SENSITIVITY = 0.75
#: Seconds between two loop runs while a region is timed.
PERIOD_S = 0.25


class _Line:
    __slots__ = ("tag", "stamp")

    def __init__(self, tag: int, stamp: int) -> None:
        self.tag = tag
        self.stamp = stamp


def _touch(sets: list[dict], tag: int, stamp: int) -> bool:
    ways = sets[tag & 63]
    line = ways.get(tag)
    if line is None:
        if len(ways) >= 8:
            victim = min(ways.values(), key=lambda entry: entry.stamp)
            del ways[victim.tag]
        ways[tag] = _Line(tag, stamp)
        return False
    line.stamp = stamp
    return True


def _loop(accesses: int = 3_000) -> int:
    sets: list[dict] = [{} for _ in range(64)]
    fills: list[tuple[int, int]] = []
    hits = 0
    state = 12345
    for now in range(accesses):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        tag = (state >> 7) & 2047
        if _touch(sets, tag, now):
            hits += 1
        else:
            heapq.heappush(fills, (now + (state & 255), tag))
        while fills and fills[0][0] <= now:
            heapq.heappop(fills)
    return hits


def probe() -> float:
    """Seconds one run of the loop takes now (about 5 ms)."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def speed(times: list[float]) -> float:
    """Host speed relative to the reference, as the simulator feels it."""
    return (REFERENCE_S / statistics.median(times)) ** SENSITIVITY


#: The directory pool workers log their loop times to while a
#: ``Ticker(forked=...)`` block runs; empty otherwise.
_forked_log: list[Path] = []
_hook: list = []


def _tick_in_forked_child() -> None:
    """After a fork: the new process runs the loop itself, logging to a file.

    Each line is ``<perf_counter at the start> <loop seconds>``; on Linux
    ``perf_counter`` is the system-wide monotonic clock, so the stamps
    compare with the parent's.
    """
    if not _forked_log:
        return
    log = open(_forked_log[0] / f"{os.getpid()}.txt", "a", buffering=1)

    def tick(signum, frame) -> None:
        stamp = time.perf_counter()
        log.write(f"{stamp!r} {probe()!r}\n")

    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


class Ticker:
    """Runs the loop every ``PERIOD_S`` seconds while the block runs.

    By default the loop runs in this process, and ``spent`` is the time it
    took, which callers subtract from the regions they time.  With
    ``forked`` set to a directory, this process does not tick: every
    process forked during the block (the pool workers of a parallel figure,
    while the timed process only waits) runs the loop and logs its times
    there.  A loop in the waiting process would compete with the workers
    for the cores and read the contention it causes.  Nothing is
    subtracted then; the loop's share of the workers' time, about 2%,
    stays in the measurement.

    ``ticks`` holds ``(perf_counter at the start, loop seconds)`` pairs;
    the forked ones are read when the block ends.
    """

    def __init__(self, forked: Path | None = None) -> None:
        self.forked = forked
        self.ticks: list[tuple[float, float]] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        stamp = time.perf_counter()
        took = probe()
        self.ticks.append((stamp, took))
        self.spent += took

    def __enter__(self) -> "Ticker":
        if self.forked is None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            return self
        shutil.rmtree(self.forked, ignore_errors=True)
        self.forked.mkdir(parents=True)
        if not _hook:
            os.register_at_fork(after_in_child=_tick_in_forked_child)
            _hook.append(_tick_in_forked_child)
        _forked_log.append(self.forked)
        return self

    def __exit__(self, *exc) -> None:
        if self.forked is None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            return
        _forked_log.clear()
        for path in sorted(self.forked.glob("*.txt")):
            for line in path.read_text().splitlines():
                try:
                    stamp, took = map(float, line.split())
                except ValueError:  # a line cut short by the pool's SIGTERM
                    continue
                self.ticks.append((stamp, took))

    def speed(self, start: float | None = None,
              end: float | None = None) -> float:
        """Host speed over ``[start, end]`` (``perf_counter`` stamps).

        Falls back to the whole block when no loop ran in that interval,
        and to a few fresh loop runs when none ran at all.
        """
        inside = [took for stamp, took in self.ticks
                  if start is None or start <= stamp <= end]
        if not inside:
            inside = ([took for _, took in self.ticks]
                      or [probe() for _ in range(9)])
        return speed(inside)
