"""The sampling knob set, shared by every layer that can request sampling.

A :class:`SamplingConfig` travels from the CLI / scenario spec through
:class:`~repro.experiments.runner.SuiteRunner` and
:class:`~repro.experiments.engine.SimJob` into ``simulate()``.  It is a
frozen dataclass so it can sit inside job payloads that cross process
boundaries, and it fingerprints itself into the result-cache key —
sampled results are *estimates*, so they must never alias the exact
results of unsampled runs (or of runs sampled with different knobs).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

#: Below this many accesses per window the window is too short for a
#: meaningful signature; plans that cannot reach it fall back to full
#: simulation (recorded in ``SimResult.sampling``).
MIN_WINDOW = 64


@dataclass(frozen=True)
class SamplingConfig:
    """How to sample one simulation.

    ``windows`` is the target number of fixed-size windows the measured
    region is split into (the last window absorbs the remainder);
    ``warmup_windows`` is the cache-warmup prefix simulated — stats
    discarded — before each representative; ``max_clusters`` caps the
    number of representatives actually simulated; ``threshold`` is the
    L1 signature distance under which a window joins an existing
    cluster.  The greedy leader clustering is deterministic, so these
    knobs alone fix the plan.  A run samples when it is given a config
    and runs exactly when it is given ``None``.

    The defaults are calibrated on the golden traces at the fidelity
    scale (``pmp-repro sample validate``: 120k accesses): worst-case
    NIPC error under 2% while executing under 25% of the trace.  At
    much shorter lengths the per-segment boundary cost amortises worse —
    expect wider error there, or re-calibrate with ``sample validate
    --accesses``.
    """

    windows: int = 40
    warmup_windows: int = 2
    max_clusters: int = 6
    threshold: float = 0.28
    min_window: int = MIN_WINDOW

    def __post_init__(self) -> None:
        if self.windows < 2:
            raise ValueError(f"sampling windows must be >= 2, got {self.windows}")
        if self.warmup_windows < 0:
            raise ValueError("sampling warmup_windows must be >= 0")
        if self.max_clusters < 1:
            raise ValueError("sampling max_clusters must be >= 1")
        if not self.threshold > 0:
            raise ValueError("sampling threshold must be > 0")
        if self.min_window < 1:
            raise ValueError("sampling min_window must be >= 1")

    def fingerprint(self) -> str:
        """Stable identity for cache/journal keys (sampled results are
        estimates keyed by *how* they were sampled)."""
        return ("sampling/v1:"
                f"w={self.windows},k={self.warmup_windows},"
                f"c={self.max_clusters},t={self.threshold!r},"
                f"m={self.min_window}")

    def to_dict(self) -> dict:
        """JSON-safe form (lands in ``SimResult.sampling`` and bench meta)."""
        return asdict(self)

    @classmethod
    def from_mapping(cls, table: Mapping) -> "SamplingConfig":
        """Build from a scenario's ``sim.sampling`` table (already
        schema-validated; unknown keys raise here as a backstop)."""
        known = {"windows", "warmup_windows", "max_clusters", "threshold",
                 "min_window"}
        unknown = set(table) - known
        if unknown:
            raise KeyError(f"unknown sim.sampling key(s) {sorted(unknown)}")
        return cls(**{key: table[key] for key in known if key in table})
