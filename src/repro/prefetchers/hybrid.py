"""Hybrid prefetching under set-dueling arbitration (beyond the paper).

PMP's spatial bit-vector merging and a temporal Markov engine are
complementary: spatial patterns dominate array/streaming phases, temporal
pairs dominate pointer chasing.  :class:`HybridPrefetcher` runs both
engines side by side and picks, per demand access, whose predictions are
actually issued — using classic **set dueling** (Qureshi et al., ISCA
2007) repurposed for prefetch-engine selection:

* demand pages hash into ``sets`` dueling sets; the first
  ``leader_sets`` are **A-leaders** (always issue engine A's requests),
  the next ``leader_sets`` are **B-leaders**, the rest are followers;
* the event bus's useful/useless prefetch feedback (PR 2) trains a
  saturating **PSEL** counter, but *only* for prefetches issued from
  leader sets — useful credits the issuing engine, useless debits it;
* followers issue the current PSEL winner's requests.

Both engines always *train* on the full access stream (training is
cheap and keeps the loser warm for phase changes); only issue is
arbitrated.  Feedback is attributed through a bounded line→issuer map
that is popped on first use, so one prefetch can never update PSEL
twice (the conservation property the set-dueling hypothesis tests pin).
"""

from __future__ import annotations

from collections import OrderedDict

from .base import FillLevel, Prefetcher, PrefetchRequest, SystemView
from .pmp import PMP
from .triangel import Triangel

_GOLDEN = 0x9E3779B1  # Fibonacci hashing multiplier for page→set spread


class SetDuelingArbiter:
    """PSEL + leader-set bookkeeping, separable for property testing.

    Roles are assigned per demand *page* so whole regions duel
    consistently.  ``psel`` below the midpoint means engine ``a`` is
    winning; ties go to ``a`` (the incumbent paper engine).
    """

    # Default leader fraction is 2/64 per engine (~3%), the classic
    # set-dueling ratio: leaders are the measurement overhead — pages
    # forced to a fixed engine — so few leaders keeps the hybrid within
    # a fraction of a percent of its better constituent while followers
    # still converge (tenants-00 calibration in the scenario catalog).
    def __init__(self, *, sets: int = 64, leader_sets: int = 2,
                 psel_bits: int = 10, attribution_entries: int = 1024) -> None:
        if 2 * leader_sets > sets:
            raise ValueError("leader sets exceed the dueling sets")
        self.sets = sets
        self.leader_sets = leader_sets
        self.psel_max = (1 << psel_bits) - 1
        self._half = 1 << (psel_bits - 1)
        self.psel = self._half
        self.attribution_entries = attribution_entries
        # issued line -> (engine, role at issue time); popped on feedback.
        self._issued: OrderedDict[int, tuple[str, str]] = OrderedDict()

    # -- role/selection -----------------------------------------------------

    def role_of(self, address: int) -> str:
        """'a' / 'b' leader or 'follower', from the demand page."""
        page = address >> 12
        index = ((page * _GOLDEN) >> 16) % self.sets
        if index < self.leader_sets:
            return "a"
        if index < 2 * self.leader_sets:
            return "b"
        return "follower"

    def winner(self) -> str:
        return "a" if self.psel <= self._half else "b"

    def select(self, address: int) -> tuple[str, str]:
        """(engine to issue, role) for one demand access."""
        role = self.role_of(address)
        if role == "follower":
            return self.winner(), role
        return role, role

    # -- attribution & PSEL -------------------------------------------------

    def record_issue(self, line: int, engine: str, role: str) -> None:
        if line in self._issued:
            del self._issued[line]
        elif len(self._issued) >= self.attribution_entries:
            self._issued.popitem(last=False)
        self._issued[line] = (engine, role)

    def issuer_of(self, line: int) -> str | None:
        """Peek the issuing engine without consuming the attribution."""
        entry = self._issued.get(line)
        return entry[0] if entry else None

    def _consume(self, line: int, good: bool) -> str | None:
        entry = self._issued.pop(line, None)
        if entry is None:
            return None
        engine, role = entry
        if role == engine:  # leader-set issue: the measurement we duel on
            toward_a = (engine == "a") == good
            if toward_a:
                self.psel = max(0, self.psel - 1)
            else:
                self.psel = min(self.psel_max, self.psel + 1)
        return engine

    def credit(self, line: int) -> str | None:
        """A prefetched line proved useful; returns the issuing engine."""
        return self._consume(line, good=True)

    def debit(self, line: int) -> str | None:
        """A prefetched line was evicted unused; returns the issuer."""
        return self._consume(line, good=False)

    def forget(self, line: int) -> None:
        self._issued.pop(line, None)


class HybridPrefetcher(Prefetcher):
    """PMP + a temporal engine under set-dueling issue arbitration."""

    name = "hybrid"

    def __init__(self, engine_a: Prefetcher | None = None,
                 engine_b: Prefetcher | None = None, *,
                 arbiter: SetDuelingArbiter | None = None) -> None:
        self.a = engine_a if engine_a is not None else PMP()
        self.b = engine_b if engine_b is not None else Triangel()
        self.arbiter = arbiter if arbiter is not None else SetDuelingArbiter()
        # The hybrid consumes hit runs iff A can and B is a guaranteed
        # no-op on hits — then delegating to A is exactly on_access.
        self.supports_hit_runs = (self.a.supports_hit_runs
                                  and self.b.hit_run_transparent)

    # -- protocol -----------------------------------------------------------

    def on_access(self, pc: int, address: int, cycle: float, hit: bool,
                  view: SystemView) -> list[PrefetchRequest]:
        requests_a = self.a.on_access(pc, address, cycle, hit, view)
        requests_b = self.b.on_access(pc, address, cycle, hit, view)
        if not requests_a and not requests_b:
            return []
        engine, role = self.arbiter.select(address)
        forwarded = requests_a if engine == "a" else requests_b
        for request in forwarded:
            self.arbiter.record_issue(request.address >> 6, engine, role)
        return forwarded

    def hit_run_consume(self, pc: int, address: int) -> bool:
        # B is hit-run transparent (checked in __init__), so a hit only
        # exercises A; A's own hook declines whenever it would emit,
        # which covers every case where the hybrid would need the duel.
        return self.a.hit_run_consume(pc, address)

    def hit_run_consume_block(self, pcs, addrs) -> int:
        return self.a.hit_run_consume_block(pcs, addrs)

    def on_evict(self, line_address: int) -> None:
        self.a.on_evict(line_address)
        self.b.on_evict(line_address)
        self.arbiter.forget(line_address >> 6)

    # -- feedback routing ---------------------------------------------------

    def on_prefetch_fill(self, address: int, level: FillLevel) -> None:
        engine = self.arbiter.issuer_of(address >> 6)
        if engine == "a":
            self.a.on_prefetch_fill(address, level)
        elif engine == "b":
            self.b.on_prefetch_fill(address, level)

    def on_prefetch_useful(self, address: int, level: FillLevel) -> None:
        engine = self.arbiter.credit(address >> 6)
        if engine == "a":
            self.a.on_prefetch_useful(address, level)
        elif engine == "b":
            self.b.on_prefetch_useful(address, level)

    def on_prefetch_useless(self, address: int, level: FillLevel) -> None:
        engine = self.arbiter.debit(address >> 6)
        if engine == "a":
            self.a.on_prefetch_useless(address, level)
        elif engine == "b":
            self.b.on_prefetch_useless(address, level)

