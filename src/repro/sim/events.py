"""Typed memory-system events and the synchronous observer bus.

Every side-channel notification in the hierarchy — prefetch
useful/useless/fill resolutions, evictions, inclusive back-invalidations,
dirty-victim writebacks, prefetch admission drops — is published as a
typed event on an :class:`EventBus` instead of being hard-wired into the
timing code.  Subscribers (the per-level stats collector, the prefetcher
feedback bridge, the opt-in :class:`~repro.sim.observers.EventTrace`)
attach per event *type*; publishing to a type nobody listens to costs one
dict probe, so observers only pay when subscribed.

The bus is deliberately synchronous and unbuffered: handlers run inline,
in subscription order, before the publishing timing code proceeds.  That
keeps simulation results bit-identical to the pre-bus hierarchy — the
same counter increments and prefetcher callbacks happen at the same
points of the descent — while decoupling who *consumes* a notification
from the component that raised it.

**Events are transient.**  Hot publishers (the per-level components)
reuse one event instance per type per component and rewrite its fields
in place, so a handler that must keep information past its own return
has to copy the fields out — retaining the event object itself observes
whatever the *next* publication wrote.  This is what makes a
per-lookup event affordable: the observer layer costs attribute writes
plus handler calls, with no allocation on the access path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..prefetchers.base import FillLevel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .cache import CacheStats


@dataclass(slots=True)
class CacheAccess:
    """One demand lookup at one cache level (hit or miss)."""

    level: FillLevel
    line: int
    hit: bool
    is_write: bool
    cycle: float


@dataclass(slots=True)
class PrefetchFill:
    """A prefetched line was installed at a level (fill applied)."""

    level: FillLevel
    line: int
    cycle: float


@dataclass(slots=True)
class PrefetchUseful:
    """A demand touched a prefetched line (resident hit, or ``late`` when
    the demand merged with the prefetch still in flight)."""

    level: FillLevel
    line: int
    address: int
    late: bool
    cycle: float


@dataclass(slots=True)
class PrefetchUseless:
    """A prefetched line left a level unused.

    ``reason`` is ``"evicted"`` (capacity victim) or ``"flushed"``
    (still resident at end of run).  Back-invalidations of private copies
    are a separate event type (:class:`BackInvalidation`).
    """

    level: FillLevel
    line: int
    reason: str
    cycle: float


@dataclass(slots=True)
class Eviction:
    """A level chose a capacity victim while applying a fill."""

    level: FillLevel
    line: int
    prefetched: bool
    dirty: bool
    cycle: float


@dataclass(slots=True)
class BackInvalidation:
    """An inclusive LLC eviction removed a private cache's copy.

    Carries the private cache's name and its counter block so the stats
    observer can attribute the loss even when the invalidated cache
    belongs to *another core's* hierarchy (shared-LLC multicore runs).
    ``dirty`` marks a modified private copy — the evicting level must
    write the data back to DRAM, since the LLC copy it shadowed is gone.
    """

    cache_name: str
    line: int
    prefetched: bool
    dirty: bool
    cycle: float
    stats: "CacheStats"


@dataclass(slots=True)
class Writeback:
    """A dirty victim drained towards memory.

    ``absorbed`` is True when the next level down already held the line
    and simply turned dirty; False when the victim went to DRAM.
    """

    level: FillLevel
    line: int
    absorbed: bool
    cycle: float


@dataclass(slots=True)
class PrefetchIssued:
    """A prefetch was admitted into the memory system."""

    level: FillLevel
    line: int
    address: int
    cycle: float


@dataclass(slots=True)
class PrefetchDropped:
    """A prefetch was rejected at admission.

    ``reason`` is ``"resident"`` (line already at/above the target, or
    in flight there), ``"pq_full"`` or ``"mshr_full"``.
    """

    level: FillLevel
    line: int
    reason: str
    cycle: float


@dataclass(slots=True)
class HitRunRetired:
    """A vectorized block of ordinary L1 hits retired in one step.

    Published by the fast path (:mod:`repro.sim.fastpath`) when a run of
    ``count`` consecutive demand accesses — all L1 hits with no
    structural events — was executed as one NumPy block instead of
    ``count`` trips through the event kernel.  ``cycles`` and ``lines``
    are per-access arrays (issue cycle and cacheline of each access in
    trace order); ``cycle`` is the last access's issue cycle.

    Deliberately NOT in :data:`EVENT_TYPES`: it is a *reconciliation
    summary*, not a kernel event.  Subscribers that account per-access
    state (stats observer, event trace, invariant auditor) expand it into
    exactly the ``count`` :class:`CacheAccess` increments the slow path
    would have published, so listing it alongside ``CacheAccess`` in the
    generic catalogue would double-count the block.
    """

    level: FillLevel
    count: int
    cycles: object   # np.ndarray[float64] — per-access issue cycles
    lines: object    # np.ndarray[uint64] — per-access cachelines
    cycle: float     # issue cycle of the last access in the run


EVENT_TYPES = (
    CacheAccess,
    PrefetchFill,
    PrefetchUseful,
    PrefetchUseless,
    Eviction,
    BackInvalidation,
    Writeback,
    PrefetchIssued,
    PrefetchDropped,
)


class EventBus:
    """Minimal synchronous publish/subscribe keyed by event type."""

    __slots__ = ("_subscribers",)

    def __init__(self) -> None:
        self._subscribers: dict[type, list[Callable]] = {}

    def handlers(self, event_type: type) -> list[Callable]:
        """The live handler list for one event type.

        Hot publishers hold this list directly and dispatch inline
        (``for h in handlers: h(event)``) instead of paying a
        :meth:`publish` call per event; later ``subscribe`` /
        unsubscribe calls mutate the same list in place, so the
        reference never goes stale.
        """
        return self._subscribers.setdefault(event_type, [])

    def subscribe(self, event_type: type, handler: Callable) -> Callable[[], None]:
        """Register ``handler`` for ``event_type``; returns an unsubscriber."""
        handlers = self._subscribers.setdefault(event_type, [])
        handlers.append(handler)

        def unsubscribe() -> None:
            if handler in handlers:
                handlers.remove(handler)

        return unsubscribe

    def publish(self, event: object) -> None:
        """Deliver ``event`` to every subscriber of its type, in order."""
        handlers = self._subscribers.get(type(event))
        if handlers:
            for handler in handlers:
                handler(event)
