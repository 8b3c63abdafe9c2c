"""Result records and the paper's derived metrics.

* **NIPC** — IPC normalised to the non-prefetching baseline (Fig 8).
* **Coverage** — reduced load misses over baseline load misses, per cache
  level (Fig 9 top).
* **Accuracy** — useful / (useful + useless) prefetches, per level
  (Fig 9 bottom, Fig 10).
* **NMT** — total DRAM requests over baseline DRAM requests (Section V-D).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..prefetchers.base import FillLevel


@dataclass
class LevelStats:
    """Snapshot of one cache level's counters."""

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_fills: int = 0
    useful_prefetches: int = 0
    useless_prefetches: int = 0
    late_prefetch_hits: int = 0

    @property
    def accuracy(self) -> float:
        """Useful / (useful + useless); 0 when nothing resolved."""
        total = self.useful_prefetches + self.useless_prefetches
        return self.useful_prefetches / total if total else 0.0

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "LevelStats":
        """Rebuild from :meth:`to_dict` output."""
        return cls(**data)


@dataclass
class SimResult:
    """Everything one simulation run produces."""

    trace_name: str
    prefetcher_name: str
    instructions: int
    cycles: float
    levels: dict[str, LevelStats] = field(default_factory=dict)
    dram_demand_requests: int = 0
    dram_prefetch_requests: int = 0
    dram_writeback_requests: int = 0
    issued_prefetches: dict[FillLevel, int] = field(default_factory=dict)
    dropped_prefetches: int = 0
    # Per-component event counts from the opt-in EventTrace observer;
    # None when tracing was off (the serialized form omits it, so golden
    # fixtures and cached results are unchanged by default).
    event_counters: dict | None = None

    @property
    def ipc(self) -> float:
        """Instructions per cycle of the measured window."""
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    @property
    def dram_requests(self) -> int:
        """Total DRAM requests (demand + prefetch + writeback)."""
        return (self.dram_demand_requests + self.dram_prefetch_requests +
                self.dram_writeback_requests)

    def nipc(self, baseline: "SimResult") -> float:
        """IPC normalised to a baseline run of the same trace."""
        base_ipc = baseline.ipc
        return self.ipc / base_ipc if base_ipc > 0 else 0.0

    def nmt(self, baseline: "SimResult") -> float:
        """Normalized Memory Traffic vs. the non-prefetching baseline."""
        base = baseline.dram_requests
        return self.dram_requests / base if base > 0 else 0.0

    def coverage(self, baseline: "SimResult", level: str = "l1d") -> float:
        """Reduced load misses at `level` relative to the baseline's misses."""
        base_misses = baseline.levels[level].demand_misses
        if base_misses == 0:
            return 0.0
        reduced = base_misses - self.levels[level].demand_misses
        return reduced / base_misses

    def accuracy(self, level: str = "l1d") -> float:
        """Prefetch accuracy at one cache level."""
        return self.levels[level].accuracy

    # -------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """JSON-safe dict: enum keys become ints, floats stay exact.

        The persistent result cache and the run manifests both store this
        form; :meth:`from_dict` must round-trip it bit-identically (floats
        survive JSON via repr-based encoding).
        """
        data = {
            "trace_name": self.trace_name,
            "prefetcher_name": self.prefetcher_name,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "levels": {name: stats.to_dict()
                       for name, stats in self.levels.items()},
            "dram_demand_requests": self.dram_demand_requests,
            "dram_prefetch_requests": self.dram_prefetch_requests,
            "dram_writeback_requests": self.dram_writeback_requests,
            "issued_prefetches": {int(level): count for level, count
                                  in self.issued_prefetches.items()},
            "dropped_prefetches": self.dropped_prefetches,
        }
        if self.event_counters is not None:
            data["event_counters"] = self.event_counters
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SimResult":
        """Rebuild a result from :meth:`to_dict` output (or parsed JSON)."""
        return cls(
            trace_name=data["trace_name"],
            prefetcher_name=data["prefetcher_name"],
            instructions=data["instructions"],
            cycles=data["cycles"],
            levels={name: LevelStats.from_dict(stats)
                    for name, stats in data["levels"].items()},
            dram_demand_requests=data["dram_demand_requests"],
            dram_prefetch_requests=data["dram_prefetch_requests"],
            dram_writeback_requests=data["dram_writeback_requests"],
            issued_prefetches={FillLevel(int(level)): count for level, count
                               in data["issued_prefetches"].items()},
            dropped_prefetches=data["dropped_prefetches"],
            event_counters=data.get("event_counters"),
        )


def geomean(values: list[float]) -> float:
    """Geometric mean; the paper's suite-wide performance aggregate."""
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        if value <= 0:
            return 0.0
        product *= value
    return product ** (1.0 / len(values))


def snapshot_level(cache_stats) -> LevelStats:
    """Copy a live :class:`repro.sim.cache.CacheStats` into a LevelStats."""
    return LevelStats(
        demand_accesses=cache_stats.demand_accesses,
        demand_hits=cache_stats.demand_hits,
        demand_misses=cache_stats.demand_misses,
        prefetch_fills=cache_stats.prefetch_fills,
        useful_prefetches=cache_stats.useful_prefetches,
        useless_prefetches=cache_stats.useless_prefetches,
        late_prefetch_hits=cache_stats.late_prefetch_hits,
    )
