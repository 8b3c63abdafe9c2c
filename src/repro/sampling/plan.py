"""Sampling plans: which windows exist, which get simulated, at what weight.

:func:`build_plan` is pure and deterministic in (trace contents,
``warmup_fraction``, :class:`~repro.sampling.config.SamplingConfig`):
it windows the trace's *measured* region (the warmup prefix the full
simulation would discard is never windowed — representatives may still
reach into it for their own cache warmup), computes signatures, clusters
them, and resolves one :class:`RepresentativeWindow` per cluster.  The
plan carries everything the extrapolation and the CLI's ``sample plan``
report need; no simulation happens here.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memtrace.trace import Trace
from ..sim.engine import warmup_boundary
from .cluster import Clustering, cluster_windows
from .config import SamplingConfig
from .signature import window_signatures


@dataclass(frozen=True)
class RepresentativeWindow:
    """One cluster's simulated stand-in window."""

    cluster: int
    #: Absolute access-index bounds of the measured window.
    start: int
    end: int
    #: Where the sub-simulation actually begins: ``start`` minus the
    #: configured warmup prefix, clamped to the trace head.
    prefix_start: int
    #: Accesses this window stands for (sum of member window lengths).
    weight: int
    #: Mean member signature distance to this representative.
    dispersion: float

    @property
    def accesses(self) -> int:
        """Measured accesses of the window itself."""
        return self.end - self.start

    @property
    def simulated_accesses(self) -> int:
        """Accesses the sub-simulation executes (prefix included)."""
        return self.end - self.prefix_start


@dataclass(frozen=True)
class SamplingPlan:
    """The full deterministic sampling decision for one trace."""

    total: int
    warmup_end: int
    window_accesses: int
    bounds: tuple[tuple[int, int], ...]
    clustering: Clustering | None
    representatives: tuple[RepresentativeWindow, ...]
    #: Why sampling was skipped (None when the plan is usable).
    fallback: str | None = None

    @property
    def measured(self) -> int:
        return self.total - self.warmup_end

    @property
    def simulated_accesses(self) -> int:
        return sum(rep.simulated_accesses for rep in self.representatives)

    @property
    def fraction_simulated(self) -> float:
        """Executed accesses (warmup prefixes included) over the full
        trace length — the cost side of the fidelity trade."""
        return self.simulated_accesses / self.total if self.total else 0.0

    @property
    def weighted_dispersion(self) -> float:
        """Cluster dispersions weighted by the accesses they stand for —
        the raw relative-error estimate behind the per-metric bars."""
        total = sum(rep.weight for rep in self.representatives)
        if not total:
            return 0.0
        return sum(rep.weight * rep.dispersion
                   for rep in self.representatives) / total


def _fallback(trace: Trace, warmup_end: int, reason: str) -> SamplingPlan:
    return SamplingPlan(total=len(trace), warmup_end=warmup_end,
                        window_accesses=0, bounds=(), clustering=None,
                        representatives=(), fallback=reason)


def build_plan(trace: Trace, warmup_fraction: float,
               config: SamplingConfig) -> SamplingPlan:
    """Window, sign, cluster and pick representatives for one trace.

    Falls back (``plan.fallback`` set, no representatives) when the
    measured region cannot yield at least two windows of
    ``config.min_window`` accesses — sampling a trace that small would
    cost more than it saves.  Raises ``ValueError`` for a
    ``warmup_fraction`` outside [0, 1).
    """
    total = len(trace)
    warmup_end = warmup_boundary(total, warmup_fraction)
    measured = total - warmup_end
    if measured <= 0:
        return _fallback(trace, warmup_end, "no measured region")
    window = max(config.min_window, measured // config.windows)
    count = measured // window
    if count < 2:
        return _fallback(
            trace, warmup_end,
            f"measured region too short ({measured} accesses < 2 windows "
            f"of {config.min_window})")

    bounds = tuple(
        (warmup_end + i * window,
         total if i == count - 1 else warmup_end + (i + 1) * window)
        for i in range(count))
    signatures = window_signatures(trace, bounds)
    clustering = cluster_windows(signatures, threshold=config.threshold,
                                 max_clusters=config.max_clusters)

    weights = [0] * clustering.clusters
    for index, cluster in enumerate(clustering.assignment):
        start, end = bounds[index]
        weights[cluster] += end - start

    representatives = []
    for cluster, rep_index in enumerate(clustering.representatives):
        start, end = bounds[rep_index]
        prefix_start = max(0, start - config.warmup_windows * window)
        representatives.append(RepresentativeWindow(
            cluster=cluster, start=start, end=end, prefix_start=prefix_start,
            weight=weights[cluster],
            dispersion=clustering.dispersions[cluster]))
    return SamplingPlan(total=total, warmup_end=warmup_end,
                        window_accesses=window, bounds=bounds,
                        clustering=clustering,
                        representatives=tuple(representatives))
