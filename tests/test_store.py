"""TraceStore: disk caching of built suite traces."""

from dataclasses import replace

from repro.memtrace.store import TraceStore
from repro.memtrace.workloads import compile_scenario, quick_suite
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
