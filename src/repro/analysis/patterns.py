"""Pattern census over traces (Observation 1, Fig 2).

Captures every region-generation bit vector from a trace using the SMS
framework (the paper uses a 4×16 FT and 8×16 AT for its analysis, larger
than PMP's runtime tables) and counts occurrences of each *anchored*
pattern.  The headline numbers this reproduces: a tiny set of patterns
dominates (paper: top-10 ≈ 33.1% of occurrences, top-1000 ≈ 73.8%) and
most distinct patterns occur exactly once (paper: 75.6%).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..memtrace.trace import Trace
from ..prefetchers.sms import CapturedPattern, PatternCaptureFramework


def capture_patterns(trace: Trace, region_bytes: int = 4096, *,
                     ft_sets: int = 4, ft_ways: int = 16,
                     at_sets: int = 8, at_ways: int = 16) -> list[CapturedPattern]:
    """Run the SMS capture framework over a whole trace (analysis sizing)."""
    framework = PatternCaptureFramework(region_bytes, ft_sets=ft_sets,
                                        ft_ways=ft_ways, at_sets=at_sets,
                                        at_ways=at_ways)
    patterns: list[CapturedPattern] = []
    for access in trace.accesses:
        _, _, completed = framework.observe(access.pc, access.address)
        patterns.extend(completed)
    patterns.extend(framework.drain())
    return patterns


@dataclass
class PatternCensus:
    """Occurrence statistics of anchored patterns."""

    counts: Counter

    @property
    def total_occurrences(self) -> int:
        """Total pattern occurrences counted."""
        return sum(self.counts.values())

    @property
    def distinct_patterns(self) -> int:
        """Number of distinct anchored patterns."""
        return len(self.counts)

    def top_share(self, k: int) -> float:
        """Fraction of all occurrences covered by the k most frequent patterns."""
        if self.total_occurrences == 0:
            return 0.0
        top = sum(count for _, count in self.counts.most_common(k))
        return top / self.total_occurrences

    def singleton_share(self) -> float:
        """Fraction of *distinct* patterns that occur exactly once."""
        if not self.counts:
            return 0.0
        singles = sum(1 for count in self.counts.values() if count == 1)
        return singles / self.distinct_patterns


def census(patterns: Iterable[CapturedPattern]) -> PatternCensus:
    """Census of anchored patterns (the form PMP merges)."""
    counts: Counter = Counter()
    for pattern in patterns:
        counts[pattern.anchored()] += 1
    return PatternCensus(counts=counts)


def census_over_traces(traces: Sequence[Trace],
                       region_bytes: int = 4096) -> PatternCensus:
    """Suite-wide census (the paper aggregates across all 125 traces)."""
    counts: Counter = Counter()
    for trace in traces:
        for pattern in capture_patterns(trace, region_bytes):
            counts[pattern.anchored()] += 1
    return PatternCensus(counts=counts)
