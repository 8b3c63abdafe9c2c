"""The bench subsystem: schema, regression gate, CLI, macro determinism.

Correctness tests only — nothing here times anything for real beyond
one smoke-sized ``fill_queue`` micro pass (the cheapest benchmark, no
trace required) used to exercise the CLI end to end.  Throughput
*numbers* are checked in CI's bench-smoke job against the committed
baseline, not here.
"""

import json

import pytest

from repro.bench.compare import compare_docs, load_baseline
from repro.bench.cli import bench_main
from repro.bench.harness import (
    BenchRecord,
    build_bench_doc,
    environment_fingerprint,
    measure,
    run_timed,
)
from repro.bench.macro import build_macro_trace, run_macro
from repro.bench.micro import MICRO_BENCHMARKS
from repro.bench.schema import BENCH_SCHEMA_VERSION, validate_bench


def record(name="demo", throughput=1000.0, units="ops/s", **meta) -> BenchRecord:
    return BenchRecord(name=name, repeats=2, number=1,
                       per_repeat_seconds=[0.002, 0.001], wall_seconds=0.001,
                       throughput=throughput, units=units, meta=meta)


def doc_with(*records: BenchRecord) -> dict:
    return build_bench_doc("micro", "micro", list(records))


# ------------------------------------------------------------------ schema

class TestSchema:
    def test_harness_documents_validate(self):
        doc = doc_with(record())
        assert validate_bench(doc) == []
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION

    def test_environment_fingerprint_is_schema_complete(self):
        doc = doc_with(record())
        doc["environment"] = environment_fingerprint()
        assert validate_bench(doc) == []

    def test_missing_document_field_is_reported(self):
        doc = doc_with(record())
        del doc["environment"]
        assert any("environment" in p for p in validate_bench(doc))

    def test_unknown_kind_is_reported(self):
        doc = doc_with(record())
        doc["kind"] = "nano"
        assert any("kind" in p for p in validate_bench(doc))

    def test_duplicate_benchmark_names_are_reported(self):
        doc = doc_with(record())
        doc["benchmarks"].append(dict(doc["benchmarks"][0]))
        assert any("duplicate" in p for p in validate_bench(doc))

    def test_repeats_timing_length_mismatch_is_reported(self):
        doc = doc_with(record())
        doc["benchmarks"][0]["per_repeat_seconds"] = [0.1, 0.2, 0.3]
        assert any("per_repeat_seconds" in p for p in validate_bench(doc))

    def test_wrong_schema_version_is_reported(self):
        doc = doc_with(record())
        doc["schema_version"] = BENCH_SCHEMA_VERSION + 1
        assert any("schema_version" in p for p in validate_bench(doc))

    def test_every_problem_is_reported_at_once(self):
        doc = doc_with(record())
        doc["kind"] = "nano"
        doc["benchmarks"][0]["throughput"] = 0
        assert len(validate_bench(doc)) >= 2


# -------------------------------------------------------- timing primitives

class TestHarness:
    def test_run_timed_rejects_degenerate_counts(self):
        with pytest.raises(ValueError):
            run_timed(lambda: None, number=0, repeats=1)
        with pytest.raises(ValueError):
            run_timed(lambda: None, number=1, repeats=0)

    def test_setup_runs_before_every_repeat_outside_timing(self):
        calls = []
        run_timed(lambda: calls.append("fn"), number=2, repeats=3,
                  setup=lambda: calls.append("setup"))
        assert calls == ["setup", "fn", "fn"] * 3

    def test_measure_derives_throughput_from_best_repeat(self):
        rec = measure("t", lambda: sum(range(50_000)), number=4, repeats=3,
                      ops_per_call=100.0, units="ops/s", profile_n=0)
        best = min(rec.per_repeat_seconds)
        assert rec.wall_seconds == pytest.approx(best, rel=1e-3)
        assert rec.throughput == pytest.approx(400.0 / best, rel=2e-2)
        assert rec.profile == []


# ------------------------------------------------------------- compare gate

class TestCompare:
    def test_improvement_and_in_threshold_noise_pass(self):
        base = doc_with(record(throughput=1000.0))
        cur = doc_with(record(throughput=950.0))  # -5% < 10% threshold
        result = compare_docs(cur, base, threshold_pct=10.0)
        assert result.ok
        cur = doc_with(record(throughput=1500.0))  # improvement
        assert compare_docs(cur, base, threshold_pct=10.0).ok

    def test_drop_past_threshold_regresses(self):
        base = doc_with(record(throughput=1000.0))
        cur = doc_with(record(throughput=850.0))  # -15%
        result = compare_docs(cur, base, threshold_pct=10.0)
        assert not result.ok
        [delta] = result.regressions
        assert delta.name == "demo"
        assert delta.change_pct == pytest.approx(-15.0)

    def test_threshold_is_exclusive(self):
        base = doc_with(record(throughput=1000.0))
        cur = doc_with(record(throughput=900.0))  # exactly -10%
        assert compare_docs(cur, base, threshold_pct=10.0).ok

    def test_workload_shape_mismatch_skips_instead_of_gating(self):
        base = doc_with(record(throughput=1000.0, scale="default"))
        cur = doc_with(record(throughput=100.0, scale="smoke"))
        result = compare_docs(cur, base, threshold_pct=10.0)
        assert result.ok
        [delta] = result.deltas
        assert not delta.comparable and "shape" in delta.note

    def test_fastpath_mode_is_part_of_the_workload_shape(self):
        # An event-kernel-only (--no-fastpath) run is a different
        # workload for speed purposes: a 10x drop against a fastpath-on
        # baseline must SKIP as incomparable, never gate (or pass!)
        # silently.
        base = doc_with(record(throughput=1000.0, fastpath=True))
        cur = doc_with(record(throughput=100.0, fastpath=False))
        result = compare_docs(cur, base, threshold_pct=10.0)
        assert result.ok
        [delta] = result.deltas
        assert not delta.comparable and "shape" in delta.note

    def test_benchmark_missing_from_baseline_warns_by_default(self):
        base = doc_with(record(name="old", throughput=1000.0))
        cur = doc_with(record(name="new", throughput=1.0))
        result = compare_docs(cur, base, threshold_pct=10.0)
        assert result.ok
        assert result.missing_in_baseline == ["new"]
        assert result.missing_in_current == ["old"]

    def test_require_all_turns_missing_baseline_into_failure(self):
        base = doc_with(record(name="old", throughput=1000.0))
        cur = doc_with(record(name="new", throughput=1.0))
        result = compare_docs(cur, base, threshold_pct=10.0, require_all=True)
        assert not result.ok
        assert result.missing_in_baseline == []

    def test_zero_throughput_baseline_is_incomparable_not_a_crash(self):
        # Regression: a 0.0-throughput baseline row used to crash the
        # gate with ZeroDivisionError; it now SKIPs with a note.  The
        # harness refuses to *emit* such a row, but a hand-edited or
        # bit-rotted baseline file can still carry one.
        base = doc_with(record(throughput=1.0))
        base["benchmarks"][0]["throughput"] = 0.0
        cur = doc_with(record(throughput=1000.0))
        result = compare_docs(cur, base, threshold_pct=10.0)
        assert result.ok
        [delta] = result.deltas
        assert not delta.comparable
        assert not delta.regressed
        assert "zero-throughput" in delta.note
        assert "SKIP (zero-throughput baseline)" in result.report(10.0)

    def test_require_all_miss_renders_as_failure_not_skip(self):
        # Regression: require_all synthesizes deltas that are regressed
        # *and* incomparable; report() used to render them as SKIP, so
        # the human table contradicted the failing exit code.
        base = doc_with(record(name="old", throughput=1000.0))
        cur = doc_with(record(name="new", throughput=1.0))
        result = compare_docs(cur, base, threshold_pct=10.0,
                              require_all=True)
        assert not result.ok
        report = result.report(10.0)
        assert "REGRESSED (missing in baseline)" in report
        assert "SKIP" not in report

    def test_negative_threshold_is_rejected(self):
        doc = doc_with(record())
        with pytest.raises(ValueError):
            compare_docs(doc, doc, threshold_pct=-1.0)

    def test_report_names_the_verdicts(self):
        base = doc_with(record(throughput=1000.0))
        cur = doc_with(record(throughput=500.0))
        report = compare_docs(cur, base, threshold_pct=10.0).report(10.0)
        assert "REGRESSED" in report and "demo" in report


class TestLoadBaseline:
    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_baseline(tmp_path / "nope.json")

    def test_unparseable_file_raises_value_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_baseline(path)

    def test_schema_invalid_file_raises_value_error(self, tmp_path):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps({"schema_version": 1}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)

    def test_valid_baseline_round_trips(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(doc_with(record())))
        assert load_baseline(path)["benchmarks"][0]["name"] == "demo"


# --------------------------------------------------------------------- CLI

FAST_MICRO = ["micro", "--only", "fill_queue", "--scale", "smoke",
              "--repeats", "1", "--profile-top", "0"]


class TestCli:
    def test_list_exits_zero_and_names_every_benchmark(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        for bench in MICRO_BENCHMARKS:
            assert bench.name in out

    def test_unknown_micro_name_is_usage_error(self, capsys):
        assert bench_main(["micro", "--only", "nope"]) == 2

    def test_micro_run_writes_a_valid_document(self, tmp_path, capsys):
        assert bench_main([*FAST_MICRO, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "BENCH_micro.json").read_text())
        assert validate_bench(doc) == []
        [row] = doc["benchmarks"]
        assert row["name"] == "fill_queue"
        assert row["meta"]["scale"] == "smoke"

    def test_compare_gates_regressions_with_exit_one(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert bench_main([*FAST_MICRO, "--out", str(out)]) == 0
        doc = json.loads((out / "BENCH_micro.json").read_text())
        # Inflate the baseline far past any plausible machine noise:
        # with --repeats 1 a scheduler stall in the *first* run can make
        # the rerun look ~10x faster, so 10x is not safely past noise on
        # a loaded machine — 1000x is.
        doc["benchmarks"][0]["throughput"] *= 1000
        baseline = tmp_path / "BENCH_baseline.json"
        baseline.write_text(json.dumps(doc))
        assert bench_main([*FAST_MICRO, "--out", str(out),
                           "--compare", str(baseline)]) == 1
        # The same rerun passes against its own (honest) numbers.
        honest = json.loads((out / "BENCH_micro.json").read_text())
        baseline.write_text(json.dumps(honest))
        assert bench_main([*FAST_MICRO, "--out", str(out), "--compare",
                           str(baseline), "--threshold", "99"]) == 0

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        assert bench_main([*FAST_MICRO, "--out", str(tmp_path), "--compare",
                           str(tmp_path / "absent.json")]) == 2


# ------------------------------------------------------ macro determinism

class TestMacroDeterminism:
    def test_macro_sample_is_content_stable(self):
        first = build_macro_trace(accesses=2_000)
        second = build_macro_trace(accesses=2_000)
        assert first.content_hash() == second.content_hash()
        assert len(first) == 2_000

    def test_macro_meta_pins_the_simulation_outcome(self):
        first = run_macro(accesses=2_000, repeats=1, profile_n=0)
        second = run_macro(accesses=2_000, repeats=1, profile_n=0)
        assert [r.name for r in first] == ["simulate_pmp", "simulate_hot_loop"]
        for a, b in zip(first, second):
            for key in ("trace_content_hash", "result_instructions",
                        "result_cycles", "result_ipc"):
                assert a.meta[key] == b.meta[key], (a.name, key)
            assert a.units == "accesses/s"
            assert a.meta["accesses"] == 2_000
            assert a.meta["fastpath"] is True

    def test_macro_meta_records_the_fastpath_mode(self):
        # Same workload, opposite modes: identical simulation outcome,
        # different shape key — the comparator must refuse to pair them.
        [on, _] = run_macro(accesses=2_000, repeats=1, profile_n=0)
        [off, _] = run_macro(accesses=2_000, repeats=1, profile_n=0,
                             fastpath=False)
        assert on.meta["fastpath"] is True
        assert off.meta["fastpath"] is False
        assert on.meta["result_ipc"] == off.meta["result_ipc"]
