"""Triangel — timely and compact on-chip temporal prefetching (Ainsworth
& Mukhanov, ISCA 2024 / arXiv:2406.10627).

Triangel's thesis is that classic on-chip temporal prefetchers waste
their metadata partition on PCs whose miss streams never repeat.  It
adds three filters in front of the Markov (address → next address)
table:

* a **training-unit sampler** tracks, per load PC, whether the pairs it
  produces are later *reused* (history sampler hits) and whether the
  stream advances fast enough to be worth chasing; only PCs whose
  usefulness score clears a threshold may write metadata;
* **lookahead**: on a Markov hit, the successor *and* the successor's
  successor are issued, hiding one extra miss latency (the paper's
  timeliness fix over its predecessors' single-successor lookup);
* runtime feedback resizes confidence — we model it by bleeding a PC's
  score on useless-prefetch feedback and boosting it on useful fills.

Hardware budget (modelled by :func:`repro.storage.triangel_budget`): the
paper's primary configuration partitions up to 512KB of LLC for the
Markov table; the on-chip structures (training unit 256 entries, history
sampler, metadata caches) add ~2.8KB of dedicated SRAM as modelled.  Here the
fixed `metadata_lines` bound stands in for the Triangel paper's LLC
partition, so Triangel's edge must come from *filtering*, not capacity.

The engine trains on L1D misses only, so it is transparent to the
hit-run fast path.
"""

from __future__ import annotations

from collections import OrderedDict

from ..memtrace.access import hash_pc
from .base import FillLevel, Prefetcher, PrefetchRequest, SystemView

# Score thresholds for the training-unit sampler.  A PC starts neutral,
# earns credit when its recorded pairs are reused (sampler hit) or its
# prefetches are useful, and loses credit on useless feedback.
_SCORE_MAX = 15
_SCORE_TRAIN = 4  # may write Markov metadata at or above this score
_SCORE_START = 4


class Triangel(Prefetcher):
    """Sampler-filtered temporal prefetcher with lookahead-2 issue."""

    name = "triangel"
    # Trains on the miss stream only; an L1 hit mutates nothing and
    # returns nothing, so hit runs can be skipped wholesale.
    supports_hit_runs = True
    hit_run_transparent = True

    def __init__(self, *, metadata_lines: int = 4096, lookahead: int = 2,
                 sampler_entries: int = 256, train_units: int = 256,
                 fill_level: FillLevel = FillLevel.L2C) -> None:
        self.metadata_lines = metadata_lines
        self.lookahead = lookahead
        self.sampler_entries = sampler_entries
        self.train_units = train_units
        self.fill_level = fill_level
        # Markov table: line -> next line (LLC partition stand-in).
        self._next: OrderedDict[int, int] = OrderedDict()
        # Training units: PC hash -> (last line, score).
        self._units: OrderedDict[int, tuple[int, int]] = OrderedDict()
        # History sampler: a small recency set of recorded pairs' keys;
        # seeing a key again means that PC's stream repeats.
        self._sampler: OrderedDict[int, None] = OrderedDict()
        # In-flight attribution: issued line -> PC hash, so feedback can
        # credit or debit the PC that triggered the prefetch.
        self._issued_by: OrderedDict[int, int] = OrderedDict()

    # -- sampler bookkeeping ------------------------------------------------

    def _bump_score(self, key: int, delta: int) -> None:
        entry = self._units.get(key)
        if entry is None:
            return
        line, score = entry
        self._units[key] = (line, max(0, min(_SCORE_MAX, score + delta)))

    def _sample(self, previous: int, current: int) -> bool:
        """Record the pair in the sampler; True if it was already there."""
        key = (previous * 0x9E3779B97F4A7C15 + current) & 0xFFFF_FFFF
        if key in self._sampler:
            self._sampler.move_to_end(key)
            return True
        if len(self._sampler) >= self.sampler_entries:
            self._sampler.popitem(last=False)
        self._sampler[key] = None
        return False

    # -- Markov table -------------------------------------------------------

    def _remember_pair(self, previous: int, current: int) -> None:
        if previous == current:
            return
        if previous in self._next:
            self._next.move_to_end(previous)
        elif len(self._next) >= self.metadata_lines:
            self._next.popitem(last=False)
        self._next[previous] = current

    # -- protocol -----------------------------------------------------------

    def on_access(self, pc: int, address: int, cycle: float, hit: bool,
                  view: SystemView) -> list[PrefetchRequest]:
        if hit:
            return []
        key = hash_pc(pc, 12)
        line = address >> 6

        entry = self._units.get(key)
        if entry is not None:
            self._units.move_to_end(key)
            previous, score = entry
            if self._sample(previous, line):
                score = min(_SCORE_MAX, score + 1)
            if score >= _SCORE_TRAIN:
                self._remember_pair(previous, line)
            self._units[key] = (line, score)
        else:
            if len(self._units) >= self.train_units:
                self._units.popitem(last=False)
            self._units[key] = (line, _SCORE_START)
            score = _SCORE_START

        if score < _SCORE_TRAIN:
            return []

        requests: list[PrefetchRequest] = []
        current = line
        for _ in range(self.lookahead):
            successor = self._next.get(current)
            if successor is None:
                break
            requests.append(PrefetchRequest(address=successor << 6,
                                            level=self.fill_level))
            if len(self._issued_by) >= 512:
                self._issued_by.popitem(last=False)
            self._issued_by[successor] = key
            current = successor
        return requests

    # -- feedback -----------------------------------------------------------

    def on_prefetch_useful(self, address: int, level: FillLevel) -> None:
        key = self._issued_by.pop(address >> 6, None)
        if key is not None:
            self._bump_score(key, +1)

    def on_prefetch_useless(self, address: int, level: FillLevel) -> None:
        key = self._issued_by.pop(address >> 6, None)
        if key is not None:
            self._bump_score(key, -2)

    def on_evict(self, line_address: int) -> None:
        self._issued_by.pop(line_address >> 6, None)
