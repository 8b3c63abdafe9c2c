"""Differential tests: the optimized hot paths vs naive references.

The profiling-guided optimization pass rewrote the kernel's hottest
loops — set-bit iteration in :meth:`CounterVector.merge`, in-place
halving, version-stamped extraction/arbitration memos in PMP, and
plain-dict LRU stacks in the capture tables and prefetch buffer.  Each
rewrite must be *semantically invisible*: these tests drive the
optimized implementation and a deliberately boring reference with
identical randomized inputs and assert bit-identical outputs.  (The
demand path's equivalent is ``tests/test_differential.py``, which runs
the event kernel against :class:`repro.sim.refmodel.RefModel`.)  The
trace generators, which return columns and draw in bulk, are held to
the per-access row loops they replaced, together with the numpy draw
properties that make their bulk draws exact.
"""

from bisect import bisect_right
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memtrace import synthetic as syn
from repro.prefetchers.pmp import (
    PMP,
    PMPConfig,
    CounterVector,
    PrefetchBuffer,
    arbitrate,
)
from repro.prefetchers.sms import CapturedPattern, SetAssociativeTable
from repro.sim.refmodel import RefCounterVector


# ------------------------------------------------------- counter vectors

@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=4, max_value=16),
       st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1),
                min_size=1, max_size=60))
def test_counter_vector_matches_reference(bits, length, merges):
    """Set-bit-walk merge + in-place decay == naive per-position loop."""
    fast = CounterVector(length, bits)
    ref = RefCounterVector(length, bits)
    for raw in merges:
        anchored = (raw | 1) & ((1 << length) - 1)  # trigger bit always set
        fast.merge(anchored)
        ref.merge(anchored)
        assert fast.counters == ref.counters
        assert fast.frequencies() == ref.frequencies()


@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=40))
def test_version_changes_on_every_merge(merges):
    """The memo key: any mutation must be visible in ``version``."""
    vector = CounterVector(8, 4)
    seen = {vector.version}
    for raw in merges:
        vector.merge(raw | 1)
        assert vector.version not in seen, "merge left the version stale"
        seen.add(vector.version)


# ------------------------------------------------------------ prediction

def _fresh_predict(pmp: PMP, pc: int, trigger_offset: int):
    """What ``_predict`` must return, computed with no memo at all."""
    cfg = pmp.config
    if cfg.structure == "combined":
        index = (pmp._opt_index(trigger_offset) << cfg.pc_bits) \
            | pmp._ppt_index(pc)
        return pmp._extract(pmp.combined[index])
    if cfg.structure == "opt":
        return pmp._extract(pmp.opt[pmp._opt_index(trigger_offset)])
    if cfg.structure == "ppt":
        return pmp._extract(pmp.ppt[pmp._ppt_index(pc)])
    opt_pattern = pmp._extract(pmp.opt[pmp._opt_index(trigger_offset)])
    ppt_pattern = pmp._extract(pmp.ppt[pmp._ppt_index(pc)])
    return arbitrate(opt_pattern, ppt_pattern, cfg.monitoring_range)


def _pattern(pmp: PMP, pc: int, trigger: int, bits: int) -> CapturedPattern:
    length = pmp.config.pattern_length
    trigger %= length
    bit_vector = ((bits & ((1 << length) - 1)) | (1 << trigger))
    return CapturedPattern(region=0, pc=pc, trigger_offset=trigger,
                           bit_vector=bit_vector, length=length)


# Small pc/trigger domains so trains and predicts collide often — memo
# hits, memo invalidations and cold misses all occur in most examples.
_OPS = st.lists(
    st.tuples(st.sampled_from(["train", "predict"]),
              st.integers(min_value=0, max_value=7),
              st.integers(min_value=0, max_value=15),
              st.integers(min_value=0, max_value=(1 << 16) - 1)),
    min_size=1, max_size=80)


@settings(max_examples=40, deadline=None)
@given(_OPS, st.sampled_from(["dual", "opt", "ppt", "combined"]))
def test_memoised_predict_matches_fresh_extraction(ops, structure):
    """Version-stamped extraction/arbitration memos never serve stale
    patterns, under arbitrary train/predict interleavings."""
    pmp = PMP(PMPConfig(region_bytes=1024, structure=structure))
    for op, pc, trigger, bits in ops:
        if op == "train":
            pmp._merge(_pattern(pmp, pc, trigger, bits))
        else:
            assert pmp._predict(pc, trigger) == _fresh_predict(pmp, pc, trigger)


@settings(max_examples=40, deadline=None)
@given(_OPS)
def test_predict_memo_invalidates_after_merge(ops):
    """Back-to-back predicts agree before and after each training merge."""
    pmp = PMP(PMPConfig(region_bytes=1024))
    for op, pc, trigger, bits in ops:
        before = pmp._predict(pc, trigger)
        assert pmp._predict(pc, trigger) == before  # memo hit is stable
        if op == "train":
            pmp._merge(_pattern(pmp, pc, trigger, bits))
            assert pmp._predict(pc, trigger) == _fresh_predict(pmp, pc, trigger)


# -------------------------------------------------------- dict-LRU stacks

class _RefLRUTable:
    """OrderedDict reference for :class:`SetAssociativeTable`."""

    def __init__(self, sets: int, ways: int) -> None:
        self.sets = sets
        self.ways = ways
        self._data = [OrderedDict() for _ in range(sets)]

    def _set_for(self, key):
        return self._data[(key >> 12) % self.sets]

    def get(self, key, *, touch=True):
        entry_set = self._set_for(key)
        value = entry_set.get(key)
        if value is not None and touch:
            entry_set.move_to_end(key)
        return value

    def insert(self, key, value):
        entry_set = self._set_for(key)
        victim = None
        if key in entry_set:
            del entry_set[key]
        elif len(entry_set) >= self.ways:
            victim = entry_set.popitem(last=False)
        entry_set[key] = value
        return victim

    def pop(self, key):
        return self._set_for(key).pop(key, None)

    def contents(self):
        """Per-set (key, value) rows in LRU→MRU order."""
        return [list(s.items()) for s in self._data]


_TABLE_OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "get", "peek", "pop"]),
              st.integers(min_value=0, max_value=23)),
    min_size=1, max_size=120)


@settings(max_examples=60, deadline=None)
@given(_TABLE_OPS, st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=4))
def test_set_associative_table_matches_ordereddict(ops, sets, ways):
    """Plain-dict LRU stacks == OrderedDict: hits, victims and order."""
    fast = SetAssociativeTable(sets, ways)
    ref = _RefLRUTable(sets, ways)
    for i, (op, raw_key) in enumerate(ops):
        key = raw_key << 12  # spread across the >>12 set hash
        if op == "insert":
            assert fast.insert(key, i) == ref.insert(key, i)
        elif op == "get":
            assert fast.get(key) == ref.get(key)
        elif op == "peek":
            assert fast.get(key, touch=False) == ref.get(key, touch=False)
        else:
            assert fast.pop(key) == ref.pop(key)
        assert (key in fast) == (ref.get(key, touch=False) is not None)
    assert [list(s.items()) for s in fast._data] == ref.contents()


class _RefPrefetchBuffer:
    """OrderedDict reference for :class:`PrefetchBuffer`'s LRU policy."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self._data = OrderedDict()

    def insert(self, region, targets):
        if region in self._data:
            del self._data[region]
        elif len(self._data) >= self.entries:
            self._data.popitem(last=False)
        self._data[region] = targets

    def pending(self, region):
        targets = self._data.get(region)
        if targets is not None:
            self._data.move_to_end(region)
        return targets


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["insert", "pending"]),
                          st.integers(min_value=0, max_value=9)),
                min_size=1, max_size=80),
       st.integers(min_value=1, max_value=4))
def test_prefetch_buffer_lru_matches_ordereddict(ops, entries):
    fast = PrefetchBuffer(entries)
    ref = _RefPrefetchBuffer(entries)
    for i, (op, region) in enumerate(ops):
        if op == "insert":
            fast.insert(region, [(i, None)])
            ref.insert(region, [(i, None)])
        else:
            assert fast.pending(region) == ref.pending(region)
    assert list(fast._data.items()) == list(ref._data.items())


# ------------------------------------------------------ trace synthesis
#
# The generators return four columns and draw in bulk where a loop makes
# one kind of draw.  The references below are the per-access row loops
# they replaced: each emits one (pc, address, is_write, gap) row per
# access and makes every draw as a scalar call.

_LINES = syn.LINES_PER_REGION
_REGION = syn.REGION_BYTES


def _ref_emit(out, pc, region, offset, gap, is_write=False):
    out.append((pc, region + ((offset % _LINES) << 6), is_write, gap))


def _ref_stream(rng, count, *, segment=0, pc=0x400100, gap=48):
    out = []
    base = syn._segment_base(segment)
    line = int(rng.integers(0, 1 << 20)) * _LINES
    for _ in range(count):
        region = base + (line // _LINES) * _REGION
        _ref_emit(out, pc, region, line % _LINES, gap)
        line += 1
    return out


def _ref_strided(rng, count, stride, *, segment=1, pc=0x400200, gap=44,
                 start_offset=None):
    out = []
    base = syn._segment_base(segment)
    line = int(rng.integers(0, 1 << 20)) * _LINES
    if start_offset is not None:
        line += start_offset
    for _ in range(count):
        region = base + (line // _LINES) * _REGION
        _ref_emit(out, pc, region, line % _LINES, gap)
        line += stride
    return out


def _ref_backward_scan(rng, count, *, segment=2, pc=0x400300, gap=40,
                       stride=1):
    out = []
    base = syn._segment_base(segment)
    line = int(rng.integers(1 << 18, 1 << 20)) * _LINES + _LINES - 1
    for _ in range(count):
        if line < _LINES:
            line = int(rng.integers(1 << 18, 1 << 20)) * _LINES + _LINES - 1
        region = base + (line // _LINES) * _REGION
        _ref_emit(out, pc, region, line % _LINES, gap)
        line -= stride
    return out


def _ref_neighborhood_walk(rng, count, *, segment=3,
                           pc_pool=(0x400400, 0x400410, 0x400420), gap=56,
                           spread=3, revisit=0.6):
    out = []
    base = syn._segment_base(segment)
    line = int(rng.integers(0, 1 << 18)) * _LINES
    pcs = list(pc_pool)
    for _ in range(count):
        if rng.random() < revisit:
            delta = int(rng.integers(1, spread + 1))
        else:
            line = int(rng.integers(0, 1 << 18)) * _LINES + int(
                rng.integers(0, _LINES))
            delta = 0
        line += delta
        region = base + (line // _LINES) * _REGION
        pc = pcs[int(rng.integers(0, len(pcs)))]
        _ref_emit(out, pc, region, line % _LINES, gap)
    return out


def _ref_pattern_replay(rng, count, library=None, *, segment=4,
                        n_regions=4096, gap=72, zipf_a=1.4, noise=0.05,
                        pc_base=0x400500):
    if library is None:
        library = syn.default_pattern_library()
    out = []
    base = syn._segment_base(segment)
    ranks = np.arange(1, len(library) + 1, dtype=float)
    weights = ranks ** (-zipf_a)
    weights /= weights.sum()
    emitted = 0
    while emitted < count:
        idx = int(rng.choice(len(library), p=weights))
        trigger, deltas = library[idx]
        region = base + int(rng.integers(0, n_regions)) * _REGION
        pc = pc_base + (idx % 3) * 0x40
        _ref_emit(out, pc, region, trigger, gap)
        emitted += 1
        deltas = [int(d) for d in rng.permutation(list(deltas))]
        for delta in deltas:
            if rng.random() < noise:
                continue
            offset = trigger + delta
            if rng.random() < noise:
                offset += int(rng.integers(-1, 2))
            _ref_emit(out, pc, region, offset, gap)
            emitted += 1
            if emitted >= count:
                break
    return out


def _ref_pointer_chase(rng, count, *, segment=5, pc=0x400600, gap=56,
                       working_lines=1 << 16):
    out = []
    base = syn._segment_base(segment)
    for _ in range(count):
        line = int(rng.integers(0, working_lines))
        region = base + (line // _LINES) * _REGION
        _ref_emit(out, pc, region, line % _LINES, gap)
    return out


def _ref_graph_traversal(rng, count, *, segment=6, n_vertices=1 << 14,
                         avg_degree=8, gap=36):
    out = []
    base = syn._segment_base(segment)
    vertex_base = base
    edge_base = base + (1 << 28)
    data_base = base + (1 << 29)
    pc_vertex, pc_edge, pc_data = 0x400700, 0x400710, 0x400720
    vertex_line = 0
    emitted = 0
    while emitted < count:
        region = vertex_base + (vertex_line // _LINES) * _REGION
        _ref_emit(out, pc_vertex, region, vertex_line % _LINES, gap)
        vertex_line = (vertex_line + 1) % (n_vertices // 8)
        emitted += 1
        degree = int(rng.poisson(avg_degree))
        edge_line = int(rng.integers(0, n_vertices * avg_degree // 8))
        for e in range(degree):
            if emitted >= count:
                break
            line = edge_line + e
            region = edge_base + (line // _LINES) * _REGION
            _ref_emit(out, pc_edge, region, line % _LINES, gap)
            emitted += 1
            if emitted >= count:
                break
            target_line = int(rng.integers(0, n_vertices))
            region = data_base + (target_line // _LINES) * _REGION
            _ref_emit(out, pc_data, region, target_line % _LINES, gap)
            emitted += 1
    return out


def _ref_hot_loop(rng, count, *, segment=7, lines=512, pc_pool_size=16,
                  write_every=7, max_gap=4):
    out = []
    base = syn._segment_base(segment)
    start = int(rng.integers(0, 1 << 16)) * _LINES
    gaps = rng.integers(0, max_gap + 1, size=count)
    for i in range(count):
        slot = i % lines
        line = start + slot
        region = base + (line // _LINES) * _REGION
        pc = 0x400800 + 8 * (slot % pc_pool_size)
        _ref_emit(out, pc, region, line % _LINES, int(gaps[i]),
                  is_write=slot % write_every == 0)
    return out


def _ref_compose(rng, parts, total, *, chunk=2048, epochs=1):
    weights = np.array([w for _, _, w in parts], dtype=float)
    weights /= weights.sum()
    if epochs <= 1:
        return _ref_compose_epoch(rng, parts, weights, total, chunk)
    out = []
    per_epoch = total // epochs
    for epoch in range(epochs):
        rotated = np.roll(weights, epoch)
        want = per_epoch if epoch < epochs - 1 else total - len(out)
        out.extend(_ref_compose_epoch(rng, parts, rotated, want, chunk))
    return out[:total]


def _ref_compose_epoch(rng, parts, weights, total, chunk):
    streams = []
    for (gen, kwargs, _), share in zip(parts, weights):
        n = max(1, int(total * share) + 2)
        streams.append(gen(rng, n, **kwargs))
    out = []
    cursors = [0] * len(streams)
    while any(cursors[i] < len(s) for i, s in enumerate(streams)):
        for i, s in enumerate(streams):
            take = min(max(1, int(chunk * weights[i])), len(s) - cursors[i])
            if take <= 0:
                continue
            out.extend(s[cursors[i]:cursors[i] + take])
            cursors[i] += take
    return out[:total]


def _rows(columns):
    """A generator's columns as rows of plain ints and bools."""
    pcs, addresses, writes, gaps = (column.tolist() for column in columns)
    return list(zip(pcs, addresses, map(bool, writes), gaps))


def _after(rng):
    """Draws that expose the generator state a call leaves behind: a whole
    64-bit word and a half word (which may come from the buffer)."""
    return rng.random(), int(rng.integers(0, 1000)), int(rng.integers(0, 1 << 40))


_REFERENCES = {
    syn.stream: _ref_stream, syn.strided: _ref_strided,
    syn.backward_scan: _ref_backward_scan,
    syn.neighborhood_walk: _ref_neighborhood_walk,
    syn.pattern_replay: _ref_pattern_replay,
    syn.pointer_chase: _ref_pointer_chase,
    syn.graph_traversal: _ref_graph_traversal, syn.hot_loop: _ref_hot_loop,
}

_SMALL_LIBRARY = [(0, [1, 2, 3]), (63, [-1, -2, -9]), (30, []),
                  (5, [40, 70, -6, 0])]

_GENERATOR_CASES = [
    (syn.stream, {}), (syn.stream, {"segment": 3, "pc": 7, "gap": 0}),
    (syn.strided, {"stride": 3}), (syn.strided, {"stride": 67}),
    (syn.strided, {"stride": 5, "start_offset": 37}),
    (syn.strided, {"stride": -2, "start_offset": -70}),
    (syn.backward_scan, {}), (syn.backward_scan, {"stride": 3}),
    # Strides this large walk below the first region within a few steps,
    # so the walk re-draws its start many times.
    (syn.backward_scan, {"stride": 1 << 21}),
    (syn.backward_scan, {"stride": (1 << 24) + 5}),
    (syn.backward_scan, {"stride": 0}), (syn.backward_scan, {"stride": -4}),
    (syn.neighborhood_walk, {}),
    (syn.neighborhood_walk, {"spread": 1, "revisit": 0.9, "pc_pool": [5]}),
    (syn.neighborhood_walk, {"revisit": 0.0}),
    (syn.neighborhood_walk, {"revisit": 1.0}),
    (syn.pattern_replay, {}), (syn.pattern_replay, {"noise": 0.3}),
    (syn.pattern_replay, {"noise": 0.0, "n_regions": 1}),
    (syn.pattern_replay, {"library": _SMALL_LIBRARY, "noise": 0.2,
                          "zipf_a": 0.5}),
    (syn.pointer_chase, {}), (syn.pointer_chase, {"working_lines": 1}),
    (syn.pointer_chase, {"working_lines": 1 << 33}),
    (syn.graph_traversal, {}),
    (syn.graph_traversal, {"n_vertices": 1 << 10, "avg_degree": 1}),
    (syn.graph_traversal, {"n_vertices": 64, "avg_degree": 2}),
    (syn.graph_traversal, {"n_vertices": 1 << 15, "avg_degree": 40}),
    (syn.hot_loop, {}),
    (syn.hot_loop, {"lines": 5, "pc_pool_size": 3, "write_every": 2,
                    "max_gap": 0}),
    (syn.hot_loop, {"lines": 100, "write_every": 1}),
]


@pytest.mark.parametrize("count", [0, 1, 2, 3, 333, 1000])
@pytest.mark.parametrize("gen,kwargs", _GENERATOR_CASES,
                         ids=lambda value: getattr(value, "__name__", None))
def test_generator_columns_match_row_loop(gen, kwargs, count):
    """Each generator's columns equal its row loop's output exactly and
    leave the generator in the same state, over several seeds."""
    for seed in (0, 1, 7, 2022):
        fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        columns = gen(fast_rng, count, **kwargs)
        assert [column.dtype for column in columns] == \
            [np.int64, np.int64, np.bool_, np.int64]
        assert _rows(columns) == _REFERENCES[gen](ref_rng, count, **kwargs)
        assert _after(fast_rng) == _after(ref_rng)


def test_pattern_replay_can_emit_one_access_past_count():
    """A visit whose trigger fills the count still emits its first kept
    delta (the row loop checks the count only after a delta): the
    columns keep that overshoot rather than trim it."""
    lengths = {len(_ref_pattern_replay(np.random.default_rng(seed), 1))
               for seed in range(20)}
    assert lengths == {2}
    assert len(syn.pattern_replay(np.random.default_rng(3), 1)[0]) == 2


_COMPOSE_PARTS = [
    (syn.stream, {"gap": 50}, 0.08), (syn.strided, {"stride": 3}, 0.1),
    (syn.backward_scan, {}, 0.25), (syn.neighborhood_walk, {"spread": 2}, 0.1),
    (syn.pattern_replay, {"noise": 0.1}, 0.39),
    (syn.pointer_chase, {"working_lines": 1 << 14}, 0.08),
]
_GRAPH_PARTS = [
    (syn.graph_traversal, {"avg_degree": 10, "n_vertices": 1 << 13}, 0.55),
    (syn.pointer_chase, {}, 0.2), (syn.stream, {}, 0.1),
    (syn.hot_loop, {"lines": 64}, 0.15),
]


@pytest.mark.parametrize("parts", [_COMPOSE_PARTS, _GRAPH_PARTS],
                         ids=["spec", "graph"])
@pytest.mark.parametrize("total,chunk,epochs", [
    (1, 2048, 1), (2, 2048, 1), (7, 2048, 3), (2000, 2048, 1),
    (2000, 2048, 2), (5000, 2048, 3), (4000, 2048, 4),
    # Chunks far smaller than every stream's share: many rounds.
    (3000, 64, 1), (3000, 100, 2), (1500, 16, 3),
])
def test_compose_splices_columns_like_rows(parts, total, chunk, epochs):
    """compose's column splice equals the row splice of the reference
    generators, epochs and all, and leaves the same generator state."""
    ref_parts = [(_REFERENCES[gen], kwargs, weight)
                 for gen, kwargs, weight in parts]
    for seed in (0, 5):
        fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        columns = syn.compose(fast_rng, parts, total, chunk=chunk, epochs=epochs)
        assert _rows(columns) == _ref_compose(ref_rng, ref_parts, total,
                                              chunk=chunk, epochs=epochs)
        assert _after(fast_rng) == _after(ref_rng)


# What the bulk draws rest on: numpy's Generator draws a vector with the
# per-element routine of a scalar draw and keeps its half-word buffer in
# the bit generator.

@pytest.mark.parametrize("low,high", [
    (0, 3), (-1, 2), (1, 5), (0, 64), (0, 1 << 18), (1 << 18, 1 << 20),
    (0, (1 << 32) - 1), (0, 1 << 32), (0, (1 << 32) + 1), (0, 1 << 33),
    (5, 1 << 40)])
@pytest.mark.parametrize("prefix", [0, 1, 2])
def test_vector_integers_equal_scalar_integers(low, high, prefix):
    """n scalar integers(low, high) calls equal one size-n call and leave
    the same state, also when a half word is buffered before them."""
    scalar, vector = np.random.default_rng(11), np.random.default_rng(11)
    for rng in (scalar, vector):
        for _ in range(prefix):
            rng.integers(0, 10)
    expected = [int(scalar.integers(low, high)) for _ in range(257)]
    assert vector.integers(low, high, size=257).tolist() == expected
    assert _after(scalar) == _after(vector)


def test_vector_random_equals_scalar_random():
    scalar, vector = np.random.default_rng(12), np.random.default_rng(12)
    scalar.integers(0, 10)
    vector.integers(0, 10)
    expected = [scalar.random() for _ in range(257)]
    assert vector.random(size=257).tolist() == expected
    assert _after(scalar) == _after(vector)


def test_bisect_right_on_the_cdf_equals_choice():
    """pattern_replay's library draw: one random() placed by bisect_right
    in the cdf choice builds equals choice(n, p=weights)."""
    ranks = np.arange(1, 13, dtype=float)
    weights = ranks ** -1.4
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    chosen, bisected = np.random.default_rng(13), np.random.default_rng(13)
    for _ in range(10_000):
        assert int(chosen.choice(12, p=weights)) == \
            bisect_right(cdf, bisected.random())
    assert _after(chosen) == _after(bisected)


@pytest.mark.parametrize("length", [0, 1, 2, 7, 31])
def test_shuffling_a_list_equals_permutation(length):
    """pattern_replay shuffles a copy of a loop body's deltas, which
    draws and orders what rng.permutation(deltas) does."""
    deltas = list(range(-3, length - 3))
    permuted, shuffled = np.random.default_rng(14), np.random.default_rng(14)
    for _ in range(50):
        order = deltas.copy()
        shuffled.shuffle(order)
        assert permuted.permutation(deltas).tolist() == order
    assert _after(permuted) == _after(shuffled)
