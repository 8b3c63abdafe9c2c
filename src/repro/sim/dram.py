"""DRAM model: fixed latency plus service-rate channel queueing.

Each channel is a single server: a 64B line transfer occupies the channel
for ``service_cycles`` (10 cycles at 3200 MT/s and 4GHz), and requests
queue behind it.  The controller gives **demands priority over queued
prefetches**: a demand waits at most for the transfer currently in flight,
while a prefetch waits behind the full backlog (demand *and* prefetch).
Both consume real bandwidth.

This is what produces the paper's bandwidth phenomena: aggressive
prefetchers (PMP at ~2× memory traffic) see their own prefetches arrive
ever later as the channel saturates, and at low MT/s rates (Fig 12a) the
longer per-line service time makes even demand-only traffic queue, eroding
PMP's advantage; 4-core runs contend for two shared channels (Fig 13).
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import DramParams


@dataclass
class DramStats:
    """DRAM request counters by class."""
    demand_requests: int = 0
    prefetch_requests: int = 0
    writeback_requests: int = 0

    @property
    def total_requests(self) -> int:
        """All requests: demand + prefetch + writeback."""
        return (self.demand_requests + self.prefetch_requests +
                self.writeback_requests)

    def reset(self) -> None:
        """Zero every counter."""
        self.demand_requests = 0
        self.prefetch_requests = 0
        self.writeback_requests = 0


class _Channel:
    __slots__ = ("next_free", "demand_next_free")

    def __init__(self) -> None:
        self.next_free = 0.0          # full backlog (demand + prefetch)
        self.demand_next_free = 0.0   # demand-only backlog


class DramPort:
    """One requestor's view of a (possibly shared) :class:`Dram`.

    Forwards traffic to the underlying channels unchanged while
    attributing every request to its own :class:`DramStats` block, so a
    multicore run can report the requests *each* hierarchy issued rather
    than handing every core the shared hardware totals.  Timing is
    untouched: the port adds counters, not queueing.
    """

    __slots__ = ("dram", "stats")

    def __init__(self, dram: "Dram") -> None:
        self.dram = dram
        self.stats = DramStats()

    def request(self, line: int, cycle: float,
                is_prefetch: bool = False) -> float:
        """Issue a line fetch, counted against this port's requestor."""
        if is_prefetch:
            self.stats.prefetch_requests += 1
        else:
            self.stats.demand_requests += 1
        return self.dram.request(line, cycle, is_prefetch)

    def writeback(self, line: int, cycle: float) -> None:
        """Queue a dirty-line writeback on behalf of this requestor."""
        self.stats.writeback_requests += 1
        self.dram.writeback(line, cycle)


class Dram:
    """Multi-channel DRAM; channels are selected by line-address interleaving."""

    def __init__(self, params: DramParams) -> None:
        self.params = params
        self.service_cycles = params.service_cycles
        self.latency = params.base_latency_cycles
        self._channels = [_Channel() for _ in range(params.channels)]
        self.stats = DramStats()

    def _channel_for(self, line: int) -> _Channel:
        # Dram.request inlines this interleaving; keep the two in step.
        return self._channels[line % len(self._channels)]

    def request(self, line: int, cycle: float,
                is_prefetch: bool = False) -> float:
        """Issue a line fetch; returns its completion cycle.

        Picks its channel inline (the body of :meth:`_channel_for`): this
        runs once per miss and per DRAM-bound prefetch.
        """
        channels = self._channels
        channel = channels[line % len(channels)]
        service = self.service_cycles
        if is_prefetch:
            start = max(cycle, channel.next_free)
            channel.next_free = start + service
            self.stats.prefetch_requests += 1
        else:
            # A demand jumps the prefetch queue but cannot preempt the
            # transfer already on the bus (modelled as one service slot of
            # the total backlog) and serialises with other demands.
            in_flight_wait = min(channel.next_free, cycle + service)
            start = max(cycle, channel.demand_next_free, in_flight_wait)
            channel.demand_next_free = start + service
            channel.next_free = max(channel.next_free, start) + service
            self.stats.demand_requests += 1
        return start + service + self.latency

    def writeback(self, line: int, cycle: float) -> None:
        """Queue a dirty-line writeback: background traffic, like a
        prefetch, it waits behind everything and consumes bandwidth but
        nothing waits on its completion (write buffers absorb it)."""
        channel = self._channel_for(line)
        start = max(cycle, channel.next_free)
        channel.next_free = start + self.service_cycles
        self.stats.writeback_requests += 1

    def backlog(self, line: int, cycle: float) -> float:
        """Cycles of queued work ahead of a new prefetch on this channel."""
        return max(0.0, self._channel_for(line).next_free - cycle)

    def utilization_hint(self, cycle: float) -> float:
        """Coarse busy signal in [0, 1]: mean channel backlog vs a deep queue.

        DSPatch's bandwidth-aware policy switches on this; a backlog of
        8+ service slots reads as saturated.
        """
        if cycle <= 0:
            return 0.0
        deep = 8 * self.service_cycles
        backlogs = [max(0.0, ch.next_free - cycle) for ch in self._channels]
        mean = sum(backlogs) / len(backlogs)
        return min(1.0, mean / deep)
