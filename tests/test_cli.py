"""CLI: argument handling and one fast end-to-end command."""

import pytest

from repro.cli import COMMANDS, main


@pytest.fixture
def ran(monkeypatch):
    """Replace every experiment with a stub that records its name."""
    from repro import cli

    ran = []
    for name in cli.COMMANDS:
        monkeypatch.setitem(cli.COMMANDS, name,
                            lambda _args, name=name: ran.append(name))
    return ran


class TestParser:
    def test_storage_command_runs(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "Table V" in out
        assert "4.3KB" in out or "4.26" in out or "pmp" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_all_commands_registered(self):
        expected = {"fig8", "fig9", "table1", "fig2", "fig4", "fig5",
                    "table8", "extraction", "structures", "table9",
                    "table10", "table11", "fig12a", "fig12b", "fig13",
                    "storage"}
        assert set(COMMANDS) == expected

    def test_table1_small(self, capsys):
        assert main(["table1", "--accesses", "4000", "--traces", "1"]) == 0
        out = capsys.readouterr().out
        assert "Pattern Collision Rate" in out

    def test_fig2_small(self, capsys):
        assert main(["fig2", "--accesses", "4000", "--traces", "1"]) == 0
        out = capsys.readouterr().out
        assert "top 10 share" in out

    def test_fig5_small(self, capsys):
        assert main(["fig5", "--accesses", "4000"]) == 0
        out = capsys.readouterr().out
        assert "Trigger Offset" in out

    def test_fig5_draws_its_trace_from_the_selected_suite(self, capsys):
        """``--scenario`` reaches Fig 5: its maps are of that scenario,
        not of the quick suite's first trace."""
        assert main(["fig5", "--scenario", "thrash-00",
                     "--accesses", "2000"]) == 0
        out = capsys.readouterr().out
        assert "Fig 5 heat map — thrash-00 indexed by" in out
        assert "spec06-00" not in out

    def test_all_simulates_each_distinct_job_key_once(self, tmp_path,
                                                      monkeypatch, capsys):
        """``all`` runs every experiment on one runner, so a job key two
        experiments share (the default PMP, the baseline suite) is
        simulated once, and one manifest named after ``all`` counts the
        whole invocation."""
        import json

        from repro import cli
        from repro.experiments.engine import ExperimentEngine

        monkeypatch.setitem(cli.COMMANDS, "fig13", lambda _args: None)
        keys = []
        run_jobs = ExperimentEngine.run_jobs

        def recording(engine, jobs):
            keys.extend(job.key() for job in jobs)
            return run_jobs(engine, jobs)

        monkeypatch.setattr(ExperimentEngine, "run_jobs", recording)
        assert main(["all", "--accesses", "2000", "--traces", "1",
                     "--no-cache", "--no-journal",
                     "--cache-dir", str(tmp_path)]) == 0
        (manifest,) = (tmp_path / "manifests").glob("*.json")
        assert manifest.name.startswith("all-")
        data = json.loads(manifest.read_text())
        assert data["jobs"] == len(keys)
        assert data["simulated"] == len(set(keys)) < len(keys)

    def test_table9_small(self, tmp_path, capsys):
        assert main(["table9", "--accesses", "3000", "--traces", "1",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pattern length" in out and "overhead" in out

    def test_structures_small(self, tmp_path, capsys):
        assert main(["structures", "--accesses", "3000", "--traces", "1",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dual" in out

    def test_table10_runs_both_sweeps_on_one_runner(self, tmp_path, capsys):
        """One manifest covers both Table X sweeps: 5 offset widths plus
        the baseline, then 6 counter sizes plus the baseline, per trace.
        Of those 13 jobs 11 simulate: offset width 6 and counter size 5
        are both the default PMP, and the second sweep reuses the first's
        baseline suite.  Two runners built the baselines twice and wrote
        two manifests that could share a millisecond, and so a file
        name."""
        import json

        assert main(["table10", "--accesses", "2000", "--traces", "1",
                     "--cache-dir", str(tmp_path)]) == 0
        (manifest,) = (tmp_path / "manifests").glob("table10-*.json")
        data = json.loads(manifest.read_text())
        assert (data["jobs"], data["simulated"]) == (13, 11)
        assert data["extra"]["reused"] == 2

    def test_table10_without_stores_simulates_each_key_once(self, tmp_path,
                                                            capsys):
        """With no result cache and no journal to replay from, the engine
        itself runs the default PMP that both Table X sweeps hold once."""
        import json

        assert main(["table10", "--accesses", "2000", "--traces", "1",
                     "--no-cache", "--no-journal",
                     "--cache-dir", str(tmp_path)]) == 0
        (manifest,) = (tmp_path / "manifests").glob("table10-*.json")
        assert json.loads(manifest.read_text())["simulated"] == 11

    def test_trace_cache_option(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["table9", "--accesses", "2000", "--traces", "1",
                     "--trace-cache", cache_dir,
                     "--cache-dir", str(tmp_path / "results")]) == 0
        import pathlib
        assert list(pathlib.Path(cache_dir).glob("*.pmptrc"))


class TestParallelEngineFlags:
    def test_run_prefix_with_workers_and_cache(self, capsys, tmp_path):
        argv = ["run", "table9", "--accesses", "2000", "--traces", "1",
                "--workers", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Table IX" in out
        assert "manifest:" in out
        manifests = list((tmp_path / "manifests").glob("table9-*.json"))
        assert len(manifests) == 1

    def test_warm_cache_rerun_simulates_nothing(self, capsys, tmp_path):
        import json

        argv = ["table9", "--accesses", "2000", "--traces", "1",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "0 simulated" in capsys.readouterr().out
        warm = max((tmp_path / "manifests").glob("table9-*.json"))
        data = json.loads(warm.read_text())
        assert data["simulated"] == 0
        assert data["cache_hits"] == data["jobs"] > 0

    def test_no_cache_flag_disables_persistence(self, capsys, tmp_path):
        argv = ["table11", "--accesses", "2000", "--traces", "1",
                "--no-cache", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert not (tmp_path / "results").exists()
        # The manifest is still written for observability.
        assert list((tmp_path / "manifests").glob("table11-*.json"))

    def test_trace_events_flag_reports_and_persists_counters(self, capsys,
                                                             tmp_path):
        import json

        argv = ["table11", "--accesses", "2000", "--traces", "1",
                "--trace-events", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "event counters" in out
        assert "CacheAccess" in out
        manifest = max((tmp_path / "manifests").glob("table11-*.json"))
        data = json.loads(manifest.read_text())
        counters = data["extra"]["event_counters"]
        assert counters["CacheAccess"]["L1D"] > 0


class TestFig13Flags:
    """Fig 13 takes the trace, access, ``--workers``, ``--job-timeout``
    and ``--fail-fast`` options, so it refuses the engine flags it would
    silently drop."""

    @pytest.mark.parametrize("experiment", ["fig13", "all"])
    def test_dropped_flags_exit_2_before_running(self, experiment, ran,
                                                 tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([experiment, "--job-timeout", "5", "--fail-fast",
                  "--trace-events", "--run-id", "r1",
                  "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert ran == []
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert "--trace-events" in message and "--run-id" in message
        assert "--job-timeout" not in message
        assert "--fail-fast" not in message
        assert "fig13 would ignore" in message

    def test_flags_fig13_already_honours_are_accepted(self, ran, tmp_path):
        assert main(["fig13", "--no-cache", "--no-journal", "--no-fastpath",
                     "--workers", "2", "--job-timeout", "60", "--fail-fast",
                     "--cache-dir", str(tmp_path)]) == 0
        assert ran == ["fig13"]


class TestSizeFlags:
    """A size that cannot describe a run exits 2 naming its flag, before
    any experiment starts: a negative ``--traces`` would slice the suite
    from its end, and an empty trace would print a table of zeros."""

    @pytest.mark.parametrize("flag, value", [
        ("--traces", "-1"), ("--traces", "-7"),
        ("--accesses", "0"), ("--accesses", "-5"),
    ])
    def test_invalid_size_exits_2_before_running(self, flag, value, ran,
                                                 tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig8", flag, value, "--no-cache", "--no-journal",
                  "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert ran == []
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert flag in message

    @pytest.mark.parametrize("experiment", ["fig13", "all"])
    def test_fig13_needs_two_accesses_to_halve(self, experiment, ran,
                                               tmp_path, capsys):
        """Fig 13 gives each core half of ``--accesses``: at 1 that is an
        empty trace, whose table would read 0.000 for every engine."""
        with pytest.raises(SystemExit) as excinfo:
            main([experiment, "--accesses", "1", "--no-cache",
                  "--no-journal", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert ran == []
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert "--accesses" in message
        assert main(["fig13", "--accesses", "2", "--no-cache",
                     "--no-journal", "--cache-dir", str(tmp_path)]) == 0
        assert ran == ["fig13"]

    def test_zero_traces_means_the_whole_quick_suite(self, monkeypatch,
                                                     tmp_path):
        from repro import cli
        from repro.memtrace.workloads import quick_suite

        specs = []
        monkeypatch.setitem(cli.COMMANDS, "fig8",
                            lambda args: specs.append(cli._specs(args)))
        assert main(["fig8", "--traces", "0", "--accesses", "1",
                     "--cache-dir", str(tmp_path)]) == 0
        assert [s.name for s in specs[0]] == [s.name
                                              for s in quick_suite()]


class TestNoSampledMode:
    """Every run is exact: a sampled-mode flag or the ``sample`` command
    group is a usage error, never a run that is quietly exact."""

    @pytest.mark.parametrize("argv", [
        "fig8 --sample",
        "fig8 --sample-windows 64",
        "fig8 --sample-warmup 2",
        "sample validate",
        "sample plan --trace spec06-00",
    ])
    def test_exits_2(self, argv, ran, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv.split())
        assert excinfo.value.code == 2
        assert ran == []


class TestFabricOnlyFlags:
    """``--lease-ttl`` and ``--fabric-poll`` configure only the ``--fabric``
    broker, so a run without it refuses them instead of ignoring them."""

    @pytest.fixture
    def configs(self, monkeypatch):
        from repro import cli

        configs = []
        monkeypatch.setitem(cli.COMMANDS, "fig8",
                            lambda args: configs.append(cli._fabric(args)))
        return configs

    def test_without_fabric_exit_2_naming_each_flag(self, configs, tmp_path,
                                                    capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig8", "--workers", "2", "--lease-ttl", "0.0001",
                  "--fabric-poll", "0.01", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert configs == []
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert "--lease-ttl" in message and "--fabric-poll" in message
        assert "--fabric" in message

    def test_with_fabric_the_flags_reach_the_broker(self, configs, tmp_path):
        from repro.fabric import FabricConfig

        assert main(["fig8", "--fabric", "--lease-ttl", "7",
                     "--fabric-poll", "0.2", "--cache-dir",
                     str(tmp_path)]) == 0
        assert main(["fig8", "--fabric", "--cache-dir", str(tmp_path)]) == 0
        assert configs == [FabricConfig(lease_ttl=7.0, poll_interval=0.2),
                           FabricConfig()]


class TestPositiveSeconds:
    """A deadline, lease lifetime or poll cadence of zero or less cannot
    describe a run: ``--job-timeout -1`` failed every leased job as
    timed out, ``--lease-ttl 0`` failed every job as lease-expired, and
    ``--job-timeout 0`` silently meant no deadline."""

    @pytest.mark.parametrize("argv, flag", [
        ("fig8 --workers 2 --job-timeout -1", "--job-timeout"),
        ("fig8 --job-timeout 0", "--job-timeout"),
        ("fig8 --fabric --workers 2 --lease-ttl 0", "--lease-ttl"),
        ("fig8 --fabric --fabric-poll -0.5", "--fabric-poll"),
        ("fabric worker --poll -1", "--poll"),
    ])
    def test_exit_2_naming_the_flag(self, argv, flag, ran, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv.split(), "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert ran == []
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert flag in message and "positive" in message


class TestCatalogErrors:
    """A catalog the run cannot use is a usage error, as it is for
    ``pmp-repro scenarios``: exit 2 with an ``error:`` line, before any
    experiment starts."""

    @pytest.mark.parametrize("experiment", ["fig8", "table1"])
    def test_missing_catalog_exits_2(self, experiment, ran, tmp_path,
                                     capsys):
        missing = tmp_path / "nowhere"
        assert main([experiment, "--catalog", str(missing),
                     "--cache-dir", str(tmp_path)]) == 2
        assert ran == []
        assert capsys.readouterr().err.startswith(
            f"error: no scenario catalog at {missing}")

    def test_unknown_scenario_exits_2(self, ran, tmp_path, capsys):
        assert main(["fig8", "--scenario", "nope",
                     "--cache-dir", str(tmp_path)]) == 2
        assert ran == []
        assert capsys.readouterr().err.startswith(
            "error: no scenario named 'nope'")

    def test_invalid_spec_in_catalog_exits_2(self, ran, tmp_path, capsys):
        catalog = tmp_path / "scenarios"
        catalog.mkdir()
        (catalog / "bad.toml").write_text(
            'schema_version = 1\n\n[scenario]\nname = "bad"\n')
        assert main(["fig8", "--catalog", str(catalog),
                     "--cache-dir", str(tmp_path)]) == 2
        assert ran == []
        assert capsys.readouterr().err.startswith(
            f"error: {catalog / 'bad.toml'}: invalid scenario document")

    @pytest.mark.parametrize("selector, error", [
        ([], "no scenario named 'spec06-00'"),
        (["--full-suite"], "is tagged 'suite'"),
    ])
    def test_catalog_without_the_suite_exits_2(self, selector, error, ran,
                                               tmp_path, capsys):
        """The ``--catalog`` directory is the one that runs: an empty one
        is an error, not a fallback to the committed catalog."""
        catalog = tmp_path / "scenarios"
        catalog.mkdir()
        assert main(["fig8", "--catalog", str(catalog), *selector,
                     "--cache-dir", str(tmp_path)]) == 2
        assert ran == []
        assert error in capsys.readouterr().err


class TestSuiteSelectors:
    """``--scenario`` names the traces and ``--full-suite`` takes all of
    them, so a suite flag either one overrides exits 2 naming it instead
    of being ignored."""

    @pytest.mark.parametrize("argv, overridden", [
        ("--full-suite --traces 2", ["--traces"]),
        ("--scenario thrash-00 --traces 2", ["--traces"]),
        ("--scenario thrash-00 --full-suite --traces 2",
         ["--full-suite", "--traces"]),
    ])
    def test_overridden_flag_exits_2(self, argv, overridden, ran, tmp_path,
                                     capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig8", *argv.split(), "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert ran == []
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert all(flag in message for flag in overridden)
        assert "would be ignored" in message

    def test_each_selector_alone_runs(self, ran, tmp_path):
        for argv in (["--full-suite"], ["--scenario", "thrash-00"],
                     ["--traces", "2"]):
            assert main(["fig8", *argv, "--cache-dir", str(tmp_path)]) == 0
        assert ran == ["fig8"] * 3


class TestRunIdentity:
    """``--resume`` is the one way to continue a run: ``--run-id`` names
    a new one, and the CLI refuses to reopen an existing run with it."""

    @pytest.fixture
    def journals(self, monkeypatch):
        from repro import cli

        journals = []
        monkeypatch.setitem(cli.COMMANDS, "fig8",
                            lambda args: journals.append(cli._journal(args)))
        return journals

    def test_existing_run_id_exits_2_naming_resume(self, journals, tmp_path,
                                                   capsys):
        assert main(["fig8", "--run-id", "run-x", "--cache-dir",
                     str(tmp_path)]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["fig8", "--run-id", "run-x", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert len(journals) == 1
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert "--resume run-x" in message
        assert main(["fig8", "--resume", "run-x", "--cache-dir",
                     str(tmp_path)]) == 0
        assert [j.run_id for j in journals] == ["run-x", "run-x"]

    def test_run_id_with_resume_exits_2(self, journals, tmp_path, capsys):
        assert main(["fig8", "--run-id", "run-x", "--cache-dir",
                     str(tmp_path)]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["fig8", "--resume", "run-x", "--run-id", "run-y",
                  "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert len(journals) == 1
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert "--resume run-x" in message
        assert not (tmp_path / "runs" / "run-y").exists()
