"""The declarative scenario layer: specs, schema, catalog, expected-gating.

The load-bearing test is :class:`TestGoldenBitIdentity`: the committed
catalog must rebuild the legacy 125-trace suite (and the bench pins)
bit-identically, pinned by content hashes captured from the pre-catalog
hard-coded recipes, and the other catalog scenarios and the long builds
as the row-emitting generators built them.
"""

import json
from pathlib import Path

import pytest

from repro.memtrace import champsim
from repro.memtrace.champsim import pack_record
from repro.memtrace.workloads import (
    DEFAULT_TRACE_ACCESSES,
    compile_scenario,
    expand_scenario,
    full_suite,
    quick_suite,
)
from repro.scenarios import (
    CatalogNotFound,
    ScenarioError,
    ScenarioSpec,
    cached_catalog,
    dumps_scenarios,
    load_catalog,
    parse_scenario_text,
    scale_defaults,
    validate_scenario_doc,
)
from repro.scenarios.cli import scenarios_main

GOLDEN = Path(__file__).parent / "golden" / "scenario_catalog_hashes.json"

MINIMAL = """\
schema_version = 1

[scenario]
name = "demo"
family = "demo"
seed = 42

[[scenario.recipe.parts]]
generator = "stream"
weight = 1.0
"""


def _doc(**overrides):
    import tomllib
    doc = tomllib.loads(MINIMAL)
    doc["scenario"].update(overrides)
    return doc


def _with_defaults_table():
    doc = _doc()
    doc["defaults"] = {"scale": {"accesses": 1000}}
    return doc


class TestRoundTrip:
    def test_parse_dump_parse_is_identity(self):
        specs = parse_scenario_text(MINIMAL)
        text = dumps_scenarios(specs)
        assert parse_scenario_text(text) == specs

    def test_catalog_specs_survive_a_dump_parse_cycle(self):
        catalog = cached_catalog()
        for spec in catalog.select():
            assert parse_scenario_text(spec.to_toml()) == [spec]

    def test_floats_round_trip_exactly(self):
        # 0.08 + 0.04*2 = 0.12000000000000001: the catalog's recipe
        # weights carry full float precision through TOML (repr-based
        # emission), which the golden bit-identity depends on.
        weight = 0.08 + 0.04 * 2
        spec = parse_scenario_text(MINIMAL)[0]
        part = spec.parts[0]
        tweaked = ScenarioSpec(
            name=spec.name, family=spec.family, seed=spec.seed,
            parts=(type(part)(part.generator, weight, part.params),))
        back = parse_scenario_text(tweaked.to_toml())[0]
        assert back.parts[0].weight == weight

    def test_multi_scenario_files_use_array_tables(self):
        spec = parse_scenario_text(MINIMAL)[0]
        other = ScenarioSpec(name="demo2", family="demo", seed=43,
                             parts=spec.parts)
        text = dumps_scenarios([spec, other])
        assert "[[scenario]]" in text
        assert parse_scenario_text(text) == [spec, other]


class TestSchemaRejections:
    def test_all_problems_reported_at_once(self):
        doc = _doc()
        del doc["scenario"]["seed"]
        doc["scenario"]["mystery"] = 1
        problems = validate_scenario_doc(doc)
        assert any("seed" in p for p in problems)
        assert any("mystery" in p for p in problems)

    def test_unknown_generator_lists_known_ones(self):
        doc = _doc(recipe={"parts": [{"generator": "warp", "weight": 1.0}]})
        problems = validate_scenario_doc(doc)
        assert any("unknown generator 'warp'" in p and "stream" in p
                   for p in problems)

    def test_nonpositive_weight_rejected(self):
        doc = _doc(recipe={"parts": [{"generator": "stream", "weight": 0}]})
        assert any("positive number" in p
                   for p in validate_scenario_doc(doc))

    def test_synthetic_rejects_source(self):
        doc = _doc(source={"path": "x.trace"})
        assert any("only champsim scenarios" in p
                   for p in validate_scenario_doc(doc))

    def test_champsim_requires_source(self):
        doc = _doc(kind="champsim")
        del doc["scenario"]["recipe"]
        assert any("need a source" in p for p in validate_scenario_doc(doc))

    @pytest.mark.parametrize("doc, field", [
        (_doc(expected={"min_ipc": 0.5}), "min_ipc"),
        (_doc(expected={"max_nipc": 2.0}), "max_nipc"),
        (_doc(expected={"min_coverage": 0.2}), "min_coverage"),
        (_doc(expected={"coverage_level": "l1d"}), "coverage_level"),
        (_doc(expected={"max_mpki": 500.0}), "max_mpki"),
        (_doc(sim={"config": {"dram_mt_per_sec": 800}}), "config"),
        (_doc(sim={"warmup_fraction": 0.5}), "warmup_fraction"),
        (_doc(scale={"accesses": 2000, "acesses_typo": 5}), "acesses_typo"),
        (_with_defaults_table(), "defaults"),
    ], ids=["min_ipc", "max_nipc", "min_coverage", "coverage_level",
            "max_mpki", "sim.config", "sim.warmup_fraction",
            "scale-typo", "defaults-table"])
    def test_field_nothing_reads_is_rejected_by_name(self, doc, field):
        """The simulated system and the warmup are not properties of a
        scenario, and a value nothing reads would be quietly ignored:
        each such field fails validation, and the problem names it."""
        problems = validate_scenario_doc(doc)
        assert any(repr(field) in p for p in problems), problems

    def test_bad_expected_assertion_rejected(self):
        doc = _doc(expected={"min_speedup": 2.0})
        assert any("unknown assertion(s) ['min_speedup']" in p
                   for p in validate_scenario_doc(doc))

    def test_sampling_table_validates_known_keys_and_types(self):
        # Every run is exact: a sim.sampling table is an unknown sim
        # field, never a table that is quietly ignored.
        doc = _doc(sim={"sampling": {"windows": 40, "threshold": 0.3}})
        assert any("unknown field(s) ['sampling']" in p
                   for p in validate_scenario_doc(doc))

    def test_expected_tolerance_must_be_a_small_fraction(self):
        doc = _doc(expected={"tolerance": 0.05, "min_accuracy": 0.5})
        assert validate_scenario_doc(doc) == []
        doc = _doc(expected={"tolerance": 1.5})
        assert any("tolerance" in p for p in validate_scenario_doc(doc))
        doc = _doc(expected={"tolerance": -0.1})
        assert any("tolerance" in p for p in validate_scenario_doc(doc))

    def test_wrong_schema_version_rejected(self):
        import tomllib
        doc = tomllib.loads(MINIMAL)
        doc["schema_version"] = 99
        assert any("schema_version" in p for p in validate_scenario_doc(doc))

    def test_parse_raises_scenario_error_with_problem_list(self):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario_text(MINIMAL.replace('seed = 42\n', ''))
        assert any("seed" in p for p in excinfo.value.problems)

    def test_yaml_spec_is_rejected(self, tmp_path):
        """Scenarios are TOML only: a YAML spec is rejected, whether or
        not PyYAML is installed."""
        path = tmp_path / "spec.yaml"
        path.write_text("schema_version: 1\n")
        with pytest.raises(ScenarioError, match="TOML parse error"):
            from repro.scenarios import parse_scenario_file
            parse_scenario_file(path)


class TestCatalog:
    def test_committed_catalog_loads(self):
        catalog = load_catalog()
        assert len(catalog.select()) >= 125

    def test_suite_selection_is_the_paper_split(self):
        suite = cached_catalog().suite()
        families = {}
        for spec in suite:
            families[spec.family] = families.get(spec.family, 0) + 1
        assert families == {"spec06": 38, "spec17": 36, "ligra": 42,
                            "parsec": 9}

    def test_suite_is_seed_ordered(self):
        seeds = [s.seed for s in cached_catalog().suite()]
        assert seeds == sorted(seeds)

    def test_unknown_name_suggests_neighbours(self):
        with pytest.raises(KeyError, match="spec06-00"):
            cached_catalog().get("spec06-000")

    def test_duplicate_names_across_files_rejected(self, tmp_path):
        text = MINIMAL
        (tmp_path / "a.toml").write_text(text)
        (tmp_path / "b.toml").write_text(text)
        with pytest.raises(ScenarioError, match="duplicate"):
            load_catalog(tmp_path)

    def test_missing_directory_raises_catalog_not_found(self, tmp_path):
        with pytest.raises(CatalogNotFound):
            load_catalog(tmp_path / "nowhere")

    def test_scale_defaults_are_the_one_source_of_truth(self):
        assert DEFAULT_TRACE_ACCESSES == scale_defaults("accesses")
        from repro.bench.macro import MACRO_ACCESSES, MACRO_SMOKE_ACCESSES
        from repro.experiments.runner import DEFAULT_ACCESSES
        assert DEFAULT_ACCESSES == scale_defaults("experiment_accesses")
        assert MACRO_ACCESSES == scale_defaults("bench_accesses")
        assert MACRO_SMOKE_ACCESSES == scale_defaults("smoke_accesses")

    def test_invalid_scale_defaults_raise_as_load_catalog_does(self,
                                                              tmp_path):
        """A catalog.toml that fails validation is an error wherever it
        is read; a missing one still falls back to the built-in scale."""
        (tmp_path / "catalog.toml").write_text(
            "[defaults.scale]\nexperiment_accesses = 0\n")
        with pytest.raises(ScenarioError, match="experiment_accesses"):
            load_catalog(tmp_path)
        with pytest.raises(ScenarioError, match="experiment_accesses"):
            scale_defaults("experiment_accesses", directory=tmp_path)
        assert scale_defaults("experiment_accesses",
                              directory=tmp_path / "nowhere") == 25_000

    def test_env_override_changes_default_dir(self, tmp_path, monkeypatch):
        (tmp_path / "only.toml").write_text(MINIMAL)
        monkeypatch.setenv("REPRO_SCENARIOS", str(tmp_path))
        from repro.scenarios import default_catalog_dir, invalidate_cache
        invalidate_cache()
        try:
            assert default_catalog_dir() == tmp_path
            assert load_catalog().select()[0].name == "demo"
        finally:
            invalidate_cache()


class TestGoldenBitIdentity:
    def test_catalog_rebuilds_the_legacy_suite_bit_identically(self):
        golden = json.loads(GOLDEN.read_text())
        pin = golden["pin_accesses"]
        catalog = cached_catalog()
        mismatches = []
        for workload in full_suite(catalog):
            if golden["hashes"][workload.name] != \
                    workload.build(pin).content_hash():
                mismatches.append(workload.name)
        assert not mismatches, f"catalog drifted from legacy: {mismatches}"

    def test_bench_pins_are_bit_identical(self):
        golden = json.loads(GOLDEN.read_text())
        bench = golden["bench_accesses"]
        catalog = cached_catalog()
        for name in ("spec06-00", "hot-loop-00"):
            workload = compile_scenario(catalog.get(name), catalog.directory)
            assert golden["hashes"][f"{name}@{bench}"] == \
                workload.build(bench).content_hash()

    def test_non_suite_scenarios_are_pinned(self):
        golden = json.loads(GOLDEN.read_text())
        pin = golden["pin_accesses"]
        catalog = cached_catalog()
        built = {spec.name: compile_scenario(spec, catalog.directory)
                 .build(pin).content_hash()
                 for spec in catalog.select() if "suite" not in spec.tags}
        assert built == golden["non_suite_hashes"]

    def test_benchmark_recipes_are_pinned_at_length(self):
        """At 25,000 accesses compose splices each stream over a dozen
        rounds, not the one or two of the 2,000-access pins.  CI's
        scenario-catalog job checks every scenario at this length."""
        golden = json.loads(GOLDEN.read_text())
        accesses = golden["long_accesses"]
        catalog = cached_catalog()
        assert len(golden["long_hashes"]) == len(catalog.select())
        for name in ("spec06-00", "spec17-02", "ligra-00", "parsec-00"):
            workload = compile_scenario(catalog.get(name), catalog.directory)
            assert golden["long_hashes"][name] == \
                workload.build(accesses).content_hash(), name

    def test_quick_suite_still_spans_families(self):
        assert {s.family for s in quick_suite()} == \
            {"spec06", "spec17", "ligra", "parsec"}


class TestChampsimScenarios:
    def _write_trace(self, path, n, start=1):
        path.write_bytes(b"".join(
            pack_record(0x400, source_memory=(i * 64,))
            for i in range(start, start + n)))

    def test_champsim_scenario_compiles_and_builds(self, tmp_path,
                                                   monkeypatch):
        self._write_trace(tmp_path / "t.trace", 50)
        spec = parse_scenario_text("""\
schema_version = 1

[scenario]
name = "real"
family = "champsim"
kind = "champsim"

[scenario.source]
path = "t.trace"
""")[0]
        decoded = []
        iter_records = champsim.iter_records

        def counting(stream, **kwargs):
            for record in iter_records(stream, **kwargs):
                decoded.append(record)
                yield record

        monkeypatch.setattr(champsim, "iter_records", counting)
        workload = compile_scenario(spec, base_dir=tmp_path)
        trace = workload.build(20)
        assert len(trace) == 20
        assert [a.address for a in trace.accesses[:3]] == [64, 128, 192]
        assert len(decoded) <= 20   # decoding stops at the 20th access

    def test_directory_source_expands_per_file(self, tmp_path):
        self._write_trace(tmp_path / "a.trace", 10)
        self._write_trace(tmp_path / "b.trace", 10, start=100)
        spec = parse_scenario_text("""\
schema_version = 1

[scenario]
name = "bulk"
family = "champsim"
kind = "champsim"

[scenario.source]
path = "."
""")[0]
        workloads = expand_scenario(spec, base_dir=tmp_path)
        assert [w.name for w in workloads] == ["bulk/a", "bulk/b"]
        with pytest.raises(ValueError, match="expands to 2"):
            compile_scenario(spec, base_dir=tmp_path)


class TestExpected:
    """Unit tests for evaluate_expected (no simulation)."""

    class _StubTrace:
        name = "t"

        def estimated_mpki(self):
            return 10.0

    def _result(self, ipc=1.0, useful=8, useless=2, misses=50, dram=100,
                name="pmp"):
        from repro.sim.stats import LevelStats, SimResult
        return SimResult(
            trace_name="t", prefetcher_name=name, instructions=1000,
            cycles=1000.0 / ipc,
            levels={"l1d": LevelStats(demand_accesses=1000,
                                      demand_misses=misses,
                                      useful_prefetches=useful,
                                      useless_prefetches=useless)},
            dram_demand_requests=dram)

    def _evaluate(self, expected, results=None, baseline=None):
        from repro.scenarios.expect import evaluate_expected
        return evaluate_expected(expected, trace=self._StubTrace(),
                                 results=results or {"pmp": self._result()},
                                 baseline=baseline)

    def test_missing_baseline_still_evaluates_baseline_free_checks(self):
        # Regression: a missing baseline used to early-return, silently
        # skipping min_accuracy/min_mpki — which need no baseline.  Now
        # only the baseline-relative keys fail and the rest still run.
        report = self._evaluate({"min_nipc": 1.0, "max_nmt": 1.5,
                                 "min_accuracy": 0.5, "min_mpki": 5.0})
        assert not report.ok
        [failure] = report.failed
        assert "min_nipc/max_nmt" in failure and "baseline" in failure
        assert any("min_accuracy@l1d" in p for p in report.passed)
        assert any("min_mpki" in p for p in report.passed)

    def test_min_accuracy_alone_needs_no_baseline(self):
        report = self._evaluate({"min_accuracy": 0.5})
        assert report.ok
        report = self._evaluate({"min_accuracy": 0.9})
        assert not report.ok

    def test_tolerance_slackens_min_and_max_bounds(self):
        baseline = self._result(ipc=1.0, name="baseline")
        results = {"pmp": self._result(ipc=0.97)}
        strict = {"min_nipc": 1.0}
        assert not self._evaluate(strict, results, baseline).ok
        slack = {"min_nipc": 1.0, "tolerance": 0.05}
        report = self._evaluate(slack, results, baseline)
        assert report.ok
        assert any("tolerance" in p for p in report.passed)
        # max_* bounds stretch upward by the same fraction.
        results = {"pmp": self._result(dram=104)}
        assert not self._evaluate({"max_nmt": 1.0}, results, baseline).ok
        assert self._evaluate({"max_nmt": 1.0, "tolerance": 0.05},
                              results, baseline).ok

    def test_tolerance_applies_to_nipc_order(self):
        baseline = self._result(ipc=1.0, name="baseline")
        results = {"pmp": self._result(ipc=1.18),
                   "spp": self._result(ipc=1.20, name="spp")}
        strict = {"nipc_order": ["pmp", "spp"]}
        assert not self._evaluate(strict, results, baseline).ok
        assert self._evaluate({**strict, "tolerance": 0.05},
                              results, baseline).ok

    def test_tolerance_does_not_slacken_mpki(self):
        # MPKI measures the trace, not the simulation: exact.
        report = self._evaluate({"min_mpki": 10.5, "tolerance": 0.1})
        assert not report.ok

    def test_out_of_range_tolerance_raises(self):
        with pytest.raises(ValueError, match="tolerance"):
            self._evaluate({"tolerance": 1.0, "min_accuracy": 0.5})

    def test_nipc_order_with_missing_engine_fails_without_crashing(self):
        # Negative path (PR 10): an nipc_order naming an engine absent
        # from the results — e.g. an unregistered prefetcher — must
        # surface as an expectation failure, never as an exception.
        baseline = self._result(ipc=1.0, name="baseline")
        report = self._evaluate({"nipc_order": ["hybrid", "no-such-engine"]},
                                results={"hybrid": self._result(ipc=1.2,
                                                                name="hybrid")},
                                baseline=baseline)
        assert not report.ok
        assert any("no-such-engine" in f for f in report.failed)


class TestCliExitCodes:
    def _spec_file(self, tmp_path, expected_block):
        path = tmp_path / "spec.toml"
        path.write_text(f"""\
schema_version = 1

[scenario]
name = "gate-demo"
family = "demo"
seed = 11

[scenario.scale]
accesses = 2000

[[scenario.recipe.parts]]
generator = "stream"
weight = 1.0

[scenario.expected]
{expected_block}
""")
        return str(path)

    def test_passing_expectations_exit_zero(self, tmp_path, capsys):
        path = self._spec_file(tmp_path, "min_mpki = 0.0")
        assert scenarios_main(["run", "--spec", path]) == 0
        assert "PASS min_mpki" in capsys.readouterr().out

    def test_failing_expectations_exit_one(self, tmp_path, capsys):
        path = self._spec_file(tmp_path, "min_mpki = 500.0")
        assert scenarios_main(["run", "--spec", path]) == 1
        assert "FAIL min_mpki" in capsys.readouterr().out

    def test_no_gate_reports_but_exits_zero(self, tmp_path, capsys):
        path = self._spec_file(tmp_path, "min_mpki = 500.0")
        assert scenarios_main(["run", "--spec", path, "--no-gate"]) == 0
        assert "FAIL min_mpki" in capsys.readouterr().out

    def test_invalid_spec_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text("schema_version = 1\n")
        assert scenarios_main(["run", "--spec", str(path)]) == 2

    def test_missing_spec_file_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.toml"
        assert scenarios_main(["run", "--spec", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert "Traceback" not in err

    def test_unknown_scenario_exits_two(self, capsys):
        assert scenarios_main(["run", "no-such-scenario"]) == 2

    def test_warmup_flag_is_a_usage_error(self, tmp_path, capsys):
        """Every run uses the 20% warmup: ``--warmup`` is gone, and a
        fraction that used to be honoured is an unknown argument."""
        path = self._spec_file(tmp_path, "min_mpki = 0.0")
        with pytest.raises(SystemExit) as excinfo:
            scenarios_main(["run", "--spec", path, "--warmup", "0.5"])
        assert excinfo.value.code == 2
        assert "--warmup" in capsys.readouterr().err

    @pytest.mark.parametrize("warmup", ["1.5", "-0.5"])
    def test_warmup_outside_unit_interval_exits_two(self, tmp_path, capsys,
                                                    warmup):
        """An out-of-range fraction still exits 2 and never reaches the
        runner: argparse rejects ``--warmup`` as an unknown argument."""
        path = self._spec_file(tmp_path, "min_mpki = 0.0")
        with pytest.raises(SystemExit) as excinfo:
            scenarios_main(["run", "--spec", path, "--warmup", warmup])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "--warmup" in err

    def test_nipc_order_with_unregistered_prefetcher_exits_two(
            self, tmp_path, capsys):
        # The run derives its engine list from the expected block; an
        # nipc_order naming an unregistered prefetcher must exit 2 with
        # a diagnostic, not crash mid-simulation (PR 10 negative path).
        path = self._spec_file(
            tmp_path, 'nipc_order = ["hybrid", "not-an-engine"]')
        assert scenarios_main(["run", "--spec", path]) == 2
        err = capsys.readouterr().err
        assert "unknown prefetcher" in err and "not-an-engine" in err

    def test_explicit_unregistered_prefetcher_flag_exits_two(
            self, tmp_path, capsys):
        path = self._spec_file(tmp_path, "min_mpki = 0.0")
        assert scenarios_main(["run", "--spec", path,
                               "--prefetcher", "hybridd"]) == 2
        assert "unknown prefetcher" in capsys.readouterr().err

    def test_negative_accesses_exits_two_before_simulating(
            self, monkeypatch, capsys):
        import repro.sim.engine

        def refuse(*args, **kwargs):
            raise AssertionError("simulated despite --accesses -5")

        monkeypatch.setattr(repro.sim.engine, "simulate", refuse)
        assert scenarios_main(["run", "spec06-00", "--accesses", "-5",
                               "--no-gate"]) == 2
        captured = capsys.readouterr()
        assert "--accesses" in captured.err
        assert "== scenario" not in captured.out

    def test_sample_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            scenarios_main(["run", "spec06-00", "--sample"])
        assert excinfo.value.code == 2

    def test_validate_rejects_a_sampling_table(self, tmp_path, capsys):
        path = tmp_path / "sampled.toml"
        path.write_text(MINIMAL + "\n[scenario.sim.sampling]\nwindows = 40\n")
        assert scenarios_main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"FAIL {path}" in out and "sampling" in out

    def test_validate_flags_broken_files(self, tmp_path, capsys):
        good = tmp_path / "good.toml"
        good.write_text(MINIMAL)
        bad = tmp_path / "bad.toml"
        bad.write_text("schema_version = 1\n[scenario]\nname = 'x'\n")
        assert scenarios_main(["validate", str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"ok   {good}" in out and f"FAIL {bad}" in out

    def test_validate_committed_catalog_is_clean(self, capsys):
        assert scenarios_main(["validate"]) == 0

    def test_list_and_show(self, capsys):
        assert scenarios_main(["list", "--family", "thrash"]) == 0
        out = capsys.readouterr().out
        assert "thrash-00" in out and "spec06-00" not in out
        assert scenarios_main(["show", "thrash-00"]) == 0
        assert 'name = "thrash-00"' in capsys.readouterr().out


class TestExperimentCliIntegration:
    def test_scenario_flag_selects_catalog_workloads(self, tmp_path, capsys):
        from repro.cli import main
        cache = tmp_path / "cache"
        code = main(["fig8", "--scenario", "thrash-00", "--accesses",
                     "2000", "--cache-dir", str(cache), "--no-journal"])
        assert code == 0
        capsys.readouterr()
        manifests = list((cache / "manifests").glob("fig8-*.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert manifest["traces"] == ["thrash-00"]
