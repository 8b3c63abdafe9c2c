"""The 125-trace suite: family split, determinism, classification."""

from repro.memtrace.workloads import (
    build_suite,
    classify_suite,
    full_suite,
    quick_suite,
)


class TestSuiteShape:
    def test_125_traces_total(self):
        assert len(full_suite()) == 125

    def test_table_vi_family_split(self):
        suite = full_suite()
        by_family = {}
        for spec in suite:
            by_family[spec.family] = by_family.get(spec.family, 0) + 1
        assert by_family == {"spec06": 38, "spec17": 36, "ligra": 42,
                             "parsec": 9}

    def test_unique_names_and_seeds(self):
        suite = full_suite()
        assert len({s.name for s in suite}) == 125
        assert len({s.seed for s in suite}) == 125

    def test_quick_suite_covers_all_families(self):
        families = {spec.family for spec in quick_suite()}
        assert families == {"spec06", "spec17", "ligra", "parsec"}


class TestBuild:
    def test_build_is_deterministic(self):
        spec = quick_suite()[0]
        a, b = spec.build(1000), spec.build(1000)
        assert a.accesses == b.accesses

    def test_build_length(self):
        trace = quick_suite()[0].build(1234)
        assert len(trace) == 1234

    def test_different_specs_differ(self):
        specs = quick_suite()
        a = specs[0].build(500)
        b = specs[1].build(500)
        assert a.accesses != b.accesses

    def test_build_suite_default(self):
        traces = build_suite(accesses=300)
        assert len(traces) == len(quick_suite())
        assert all(len(t) == 300 for t in traces)

    def test_traces_exceed_paper_mpki_floor(self):
        """Paper: all traces have > 5 LLC MPKI."""
        for spec in quick_suite():
            trace = spec.build(12_000)
            assert trace.estimated_mpki() > 5, spec.name


class TestClassification:
    def test_buckets_partition_the_suite(self):
        specs = quick_suite()
        buckets = classify_suite(specs, accesses=6_000)
        classified = [s for bucket in buckets.values() for s in bucket]
        assert sorted(s.name for s in classified) == sorted(s.name for s in specs)

    def test_bucket_keys(self):
        buckets = classify_suite(quick_suite()[:2], accesses=4_000)
        assert set(buckets) == {"low", "medium", "high"}
