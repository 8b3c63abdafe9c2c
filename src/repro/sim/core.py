"""Run-ahead out-of-order core approximation.

Instead of a cycle-accurate pipeline, the core charges ``1/width`` cycles
per retired instruction and lets memory latency overlap with later work up
to the machine's reorder limits: at most ``lq_entries`` loads in flight,
and no instruction may issue more than ``rob_entries`` instructions ahead
of the oldest incomplete load.  This captures the first-order effects the
paper's numbers depend on — memory-level parallelism, stalls on long-latency
misses, and the benefit of converting misses into (possibly late) hits —
while staying fast enough for a Python trace simulator.
"""

from __future__ import annotations

from collections import deque

from .params import CoreParams


class Core:
    """Retirement-driven core model; drive with :meth:`issue_load`."""

    def __init__(self, params: CoreParams) -> None:
        self.params = params
        self.cycle = 0.0
        self.instructions = 0
        # Outstanding loads: (instruction index at issue, completion cycle).
        self._inflight: deque[tuple[int, float]] = deque()

    def advance(self, instructions: int) -> None:
        """Retire non-memory instructions (trace gaps)."""
        self.instructions += instructions
        self.cycle += instructions / self.params.width

    def _drain_completed(self) -> None:
        inflight = self._inflight
        while inflight and inflight[0][1] <= self.cycle:
            inflight.popleft()

    def begin_load(self) -> float:
        """Account for window stalls; returns the cycle the load issues at.

        Retires completed loads (as :meth:`_drain_completed` does), then
        blocks until the ROB/LQ limits admit a new load.  Both loops are
        inline: this runs once per trace access and the calls were
        measurable.
        """
        inflight = self._inflight
        cycle = self.cycle
        while inflight and inflight[0][1] <= cycle:
            inflight.popleft()
        params = self.params
        lq_entries = params.lq_entries
        rob_entries = params.rob_entries
        instructions = self.instructions
        while inflight:
            oldest_index, oldest_done = inflight[0]
            if (len(inflight) < lq_entries
                    and instructions - oldest_index < rob_entries):
                break
            if oldest_done > cycle:
                cycle = oldest_done
            inflight.popleft()
        self.cycle = cycle
        return cycle

    def finish_load(self, latency: float) -> None:
        """Record an issued load's completion and retire it (1 instruction)."""
        completion = self.cycle + latency
        self._inflight.append((self.instructions, completion))
        self.instructions += 1
        self.cycle += 1 / self.params.width

    def drain(self) -> None:
        """End of trace: wait for the last outstanding load."""
        self._drain_completed()
        if self._inflight:
            last = max(done for _, done in self._inflight)
            self.cycle = max(self.cycle, last)
            self._inflight.clear()

    @property
    def ipc(self) -> float:
        """Instructions per cycle so far."""
        return self.instructions / self.cycle if self.cycle > 0 else 0.0
