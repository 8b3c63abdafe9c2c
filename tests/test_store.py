"""TraceStore: disk caching of built suite traces."""

import os
from dataclasses import replace

import pytest

from repro.memtrace.champsim import pack_record
from repro.memtrace.store import TraceStore
from repro.memtrace.trace import Trace
from repro.memtrace.workloads import compile_scenario, quick_suite
from repro.scenarios import parse_scenario_text
from repro.scenarios.catalog import cached_catalog


class TestTraceStore:
    def test_build_then_load(self, tmp_path):
        store = TraceStore(tmp_path)
        spec = quick_suite()[0]
        first = store.get(spec, 500)
        assert store.misses == 1 and store.hits == 0
        second = store.get(spec, 500)
        assert store.hits == 1
        assert first.accesses == second.accesses

    def test_distinct_lengths_cached_separately(self, tmp_path):
        store = TraceStore(tmp_path)
        spec = quick_suite()[0]
        a = store.get(spec, 300)
        b = store.get(spec, 600)
        assert len(a) == 300 and len(b) == 600
        assert store.misses == 2

    def test_corrupt_entry_rebuilt(self, tmp_path):
        store = TraceStore(tmp_path)
        spec = quick_suite()[0]
        store.get(spec, 300)
        path = store._path_for(spec, 300)
        path.write_bytes(b"garbage")
        trace = store.get(spec, 300)
        assert len(trace) == 300

    def test_truncated_entry_rebuilt(self, tmp_path):
        # A file cut short (a crash mid-write, a full disk) must not be
        # served as a shorter trace.
        store = TraceStore(tmp_path)
        spec = quick_suite()[0]
        built = store.get(spec, 1000)
        path = store._path_for(spec, 1000)
        path.write_bytes(path.read_bytes()[:-400])
        with pytest.raises(ValueError, match="truncated"):
            Trace.load_binary(path)
        trace = store.get(spec, 1000)
        assert trace.accesses == built.accesses
        assert store.misses == 2 and store.hits == 0
        assert Trace.load_binary(path).accesses == built.accesses

    def test_clear(self, tmp_path):
        store = TraceStore(tmp_path)
        for spec in quick_suite()[:3]:
            store.get(spec, 200)
        assert store.clear() == 3
        assert list(tmp_path.glob("*.pmptrc")) == []

    def test_build_all(self, tmp_path):
        store = TraceStore(tmp_path)
        traces = store.build_all(quick_suite()[:2], 250)
        assert [len(t) for t in traces] == [250, 250]

    def test_changed_recipe_builds_afresh(self, tmp_path):
        # Same name and seed, another recipe: the stored trace is stale.
        store = TraceStore(tmp_path)
        by_name = {spec.name: spec for spec in quick_suite()}
        original = by_name["spec06-00"]
        stored = store.get(original, 300)
        changed = replace(by_name["ligra-00"], name=original.name,
                          seed=original.seed)
        fresh = changed.build(300)
        assert fresh.accesses != stored.accesses
        assert store.get(changed, 300).accesses == fresh.accesses
        assert store.misses == 2 and store.hits == 0


def test_build_digest_tracks_the_recipe():
    catalog = cached_catalog()
    scenario = catalog.get("spec06-00")
    digest = compile_scenario(scenario, catalog.directory).digest
    assert compile_scenario(scenario, catalog.directory).digest == digest
    # The seed is keyed separately, so it does not enter the digest...
    assert compile_scenario(replace(scenario, seed=scenario.seed + 1),
                            catalog.directory).digest == digest
    # ...while any recipe change does.
    reweighted = replace(scenario.parts[0], weight=scenario.parts[0].weight / 2)
    for changed in (replace(scenario, epochs=scenario.epochs + 1),
                    replace(scenario, parts=(reweighted,) + scenario.parts[1:])):
        assert compile_scenario(changed, catalog.directory).digest != digest


_CHAMPSIM_SCENARIO = """\
schema_version = 1

[scenario]
name = "real"
family = "champsim"
kind = "champsim"

[scenario.source]
path = "t.trace"
"""


def _write_champsim(path, lines, start=1):
    path.write_bytes(b"".join(pack_record(0x400, source_memory=(i * 64,))
                              for i in range(start, start + lines)))


class TestChampsimDigest:
    """A ChampSim file rewritten at the same path is not served stale."""

    @pytest.fixture
    def source(self, tmp_path):
        path = tmp_path / "t.trace"
        _write_champsim(path, 50)
        return path

    def _compile(self, source):
        [scenario] = parse_scenario_text(_CHAMPSIM_SCENARIO)
        return compile_scenario(scenario, source.parent)

    def test_rewritten_file_builds_afresh(self, source, tmp_path):
        store = TraceStore(tmp_path / "store")
        first = self._compile(source)
        assert [a.address for a in store.get(first, 20)][:2] == [64, 128]
        # New content at the same path, with the old mtime put back: the
        # size alone tells the files apart.
        stat = source.stat()
        _write_champsim(source, 60, start=1000)
        os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        second = self._compile(source)
        assert second.digest != first.digest
        assert [a.address for a in store.get(second, 20)][:2] == [64_000,
                                                                  64_064]
        assert store.misses == 2 and store.hits == 0

    def test_digest_tracks_the_mtime(self, source):
        digest = self._compile(source).digest
        assert self._compile(source).digest == digest
        stat = source.stat()
        os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
        assert self._compile(source).digest != digest
