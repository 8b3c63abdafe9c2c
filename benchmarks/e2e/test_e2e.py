"""Smoke test of the end-to-end benchmark at tiny scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  It calls the
workload functions in-process on one trace of 2 000 accesses (1 000 per
core on Fig 13) with three warm replays, so it checks the benchmark's
plumbing, not its timings.
"""

from __future__ import annotations

import json

import pytest

import run
import workloads

TINY = workloads.Scale(traces=1, fig8_accesses=2_000, fig13_accesses=1_000,
                       warm_replays=3, trace_replays=1)
BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
SEED = 7
FIG8_JOBS = 11 * TINY.traces  # 9 engines, pmp-limit and the baseline


@pytest.fixture(scope="module")
def specs():
    return workloads.draw_specs(SEED, TINY.traces)


@pytest.fixture(scope="module")
def verifier(tmp_path_factory):
    """One digest ledger shared by every run of the module."""
    return workloads.Verifier(tmp_path_factory.mktemp("ledger"))


@pytest.fixture(scope="module")
def plain(specs, verifier, tmp_path_factory):
    """Every workload once, untraced."""
    root = tmp_path_factory.mktemp("plain")
    return {name: workloads.run_workload(name, specs, SEED, root / name,
                                         scale=TINY, verifier=verifier)
            for name in workloads.WORKLOADS}


def test_every_metric_prints_with_its_unit(plain):
    for name, payload in plain.items():
        payload = {**payload, "setups": [0.5]}
        metrics = run.e2e_metrics(payload)
        printed = {line.split()[0]: line.split()[-1]
                   for line in run.render(name, payload, metrics)[1:]}
        for metric in BENCHMARK["end_to_end"]:
            assert printed[metric["name"]] == metric["unit"], name
            assert metrics[metric["name"]]["value"] > 0, name
        assert payload["attempted"] > 0 and payload["failed"] == 0, name


def test_fig8_modes_agree_job_by_job(plain):
    serial, pool, warm = (plain[name]["digests"] for name in
                          ("fig8-serial", "fig8-workers2", "fig8-warm"))
    assert len(serial) == FIG8_JOBS
    assert serial == pool == warm


@pytest.mark.parametrize("fault", ["perturb", "raise"])
def test_faulty_result_counts_as_failed(fault, plain, specs, verifier,
                                        tmp_path, monkeypatch):
    from repro.experiments import engine as engine_module

    simulate = engine_module.simulate

    def faulty(trace, prefetcher, *args, **kwargs):
        if prefetcher.name == "pmp" and fault == "raise":
            raise RuntimeError("injected")
        result = simulate(trace, prefetcher, *args, **kwargs)
        if prefetcher.name == "pmp":
            result.cycles += 1.0
        return result

    monkeypatch.setattr(engine_module, "simulate", faulty)
    if fault == "raise":
        # A job that raised counts even on a seed's first run, before any
        # reference digest exists: check against a fresh ledger.
        verifier = workloads.Verifier(tmp_path / "ledger")
    payload = workloads.run_workload("fig8-serial", specs, SEED,
                                     tmp_path / "run", scale=TINY,
                                     verifier=verifier)
    assert payload["attempted"] == FIG8_JOBS
    assert payload["failed"] == TINY.traces  # the pmp job of each trace


def test_trace_emits_every_per_layer_metric(specs, verifier, tmp_path):
    listed = {metric["name"]: metric["unit"]
              for metric in BENCHMARK["per_layer"]}
    for name in workloads.WORKLOADS:
        payload = workloads.run_workload(name, specs, SEED, tmp_path / name,
                                         scale=TINY, traced=True,
                                         verifier=verifier)
        assert payload["missing_boundaries"] == [], name
        assert payload["failed"] == 0, name
        emitted = {metric: unit
                   for metric, (_, unit) in payload["per_layer"].items()}
        assert emitted == listed, name
        spans = json.loads((tmp_path / name / "spans.json").read_text())
        assert spans["workload"] == name and spans["spans"], name
