"""Extensions beyond the paper: bandwidth-adaptive PMP and an oracle.

The paper's conclusion calls the pattern-merging idea a starting point;
two natural follow-ups are implemented here:

* :class:`BandwidthAdaptivePMP` — PMP whose *speculative* low-level
  prefetches (the L2C/LLC tail that drives its 199.6% memory traffic) are
  throttled by the DRAM busy signal, borrowing DSPatch's one good idea.
  This directly targets PMP's weak spot in Fig 12a (800 MT/s) and the
  4-core runs, without touching the high-confidence L1D stream.
* :class:`OraclePrefetcher` — a trace-peeking upper bound: it prefetches
  the actual next-``depth`` future lines.  Not realisable in hardware;
  used to measure how much headroom any prefetcher has left on a
  workload (analysis and calibration only).
"""

from __future__ import annotations

from ..memtrace.trace import Trace
from .base import FillLevel, Prefetcher, PrefetchRequest, SystemView
from .pmp import PMP, PMPConfig


class BandwidthAdaptivePMP(PMP):
    """PMP that sheds low-level speculation as the DRAM channel fills.

    Below ``low_watermark`` utilization it behaves exactly like PMP;
    between the watermarks it drops LLC-level (rule-3 downgraded)
    targets; above ``high_watermark`` it keeps only L1D-confidence
    targets.  State cost: none (the busy signal already exists for
    DSPatch-style designs).
    """

    name = "pmp-bw"

    def __init__(self, config: PMPConfig | None = None, *,
                 low_watermark: float = 0.25,
                 high_watermark: float = 0.60) -> None:
        super().__init__(config)
        if not 0 <= low_watermark <= high_watermark <= 1:
            raise ValueError("watermarks must satisfy 0 <= low <= high <= 1")
        self.low_watermark = low_watermark
        self.high_watermark = high_watermark

    def _issue_from_pb(self, region: int,
                       view: SystemView) -> list[PrefetchRequest]:
        requests = super()._issue_from_pb(region, view)
        if not requests:
            return requests
        utilization = view.dram_utilization()
        if utilization < self.low_watermark:
            return requests
        if utilization >= self.high_watermark:
            return [r for r in requests if r.level == FillLevel.L1D]
        return [r for r in requests if r.level != FillLevel.LLC]


class OraclePrefetcher(Prefetcher):
    """Perfect future knowledge: prefetch the next `depth` distinct lines.

    An analysis instrument (upper bound), not a hardware design — it reads
    the trace it will be driven with.  ``lead`` controls how many accesses
    ahead of the demand stream it runs (more lead = more timeliness, more
    cache pressure).
    """

    name = "oracle"

    def __init__(self, trace: Trace, *, depth: int = 8, lead: int = 4,
                 fill_level: FillLevel = FillLevel.L1D) -> None:
        self.addresses = [access.address for access in trace.accesses]
        self.depth = depth
        self.lead = lead
        self.fill_level = fill_level
        self._cursor = 0

    def on_access(self, pc: int, address: int, cycle: float, hit: bool,
                  view: SystemView) -> list[PrefetchRequest]:
        index = self._cursor
        self._cursor += 1
        requests: list[PrefetchRequest] = []
        seen: set[int] = {address >> 6}
        position = index + self.lead
        while len(requests) < self.depth and position < len(self.addresses):
            line = self.addresses[position] >> 6
            if line not in seen:
                seen.add(line)
                requests.append(PrefetchRequest(address=line << 6,
                                                level=self.fill_level))
            position += 1
        return requests
