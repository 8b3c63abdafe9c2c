"""Golden-trace regression tests: pinned stats for fixed-seed traces.

The fixture (``tests/golden/golden_stats.json``) pins the complete
``SimResult`` — hits, misses, issued/useful prefetches per level, DRAM
traffic, cycles — plus NIPC to 6 decimals, for the no-prefetch baseline,
PMP, SPP and a traced PMP run (its event counters included) on two small
fixed-seed traces.  It also pins 4-core shared-LLC runs (per-lane
warmups included), which step the simulator differently.  Any drift in
how runs are stepped, the cache hierarchy, or ``prefetchers/pmp.py``
fails here with the exact counter that moved.  For intentional behaviour
changes, regenerate with ``PYTHONPATH=src python tests/golden/regen.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.memtrace.workloads import full_suite

from .golden.regen import (
    ACCESSES,
    GOLDEN_PATH,
    MULTICORE_RUNS,
    TRACE_RUNS,
    multicore_trace_sets,
    run_multicore,
    run_single,
)

GOLDEN = json.loads(Path(GOLDEN_PATH).read_text())


@pytest.fixture(scope="module")
def traces():
    by_name = {spec.name: spec for spec in full_suite()}
    return {name: by_name[name].build(ACCESSES)
            for name in GOLDEN["traces"]}


@pytest.mark.parametrize("trace_name", sorted(GOLDEN["traces"]))
@pytest.mark.parametrize("pf_name", sorted(TRACE_RUNS))
def test_golden_stats_exact(traces, trace_name, pf_name):
    """Every counter of every run matches the checked-in snapshot."""
    expected = dict(GOLDEN["traces"][trace_name][pf_name])
    expected_nipc = expected.pop("nipc6")

    result = run_single(traces[trace_name], pf_name)
    got = result.to_dict()
    # Round-trip through JSON so int-vs-str dict keys compare like the
    # fixture (json object keys are always strings).
    got = json.loads(json.dumps(got))

    assert got == expected, (
        f"{trace_name}/{pf_name} drifted — if intentional, regenerate via "
        f"PYTHONPATH=src python tests/golden/regen.py")

    baseline = GOLDEN["traces"][trace_name]["none"]
    baseline_ipc = baseline["instructions"] / baseline["cycles"]
    nipc = result.ipc / baseline_ipc
    assert round(nipc, 6) == expected_nipc


@pytest.fixture(scope="module")
def trace_sets():
    return multicore_trace_sets()


@pytest.mark.parametrize("name", sorted(MULTICORE_RUNS))
def test_golden_multicore_exact(trace_sets, name):
    """4-core runs reproduce every core's attributed counters."""
    got = json.loads(json.dumps(run_multicore(trace_sets, name)))
    assert got == GOLDEN["multicore"][name], (
        f"multicore/{name} drifted — if intentional, regenerate via "
        f"PYTHONPATH=src python tests/golden/regen.py")


def _sane(data: dict) -> None:
    assert data["instructions"] > 0
    assert data["cycles"] > 0


def test_golden_fixture_sane():
    """The fixture itself covers what the test matrix expects."""
    assert set(GOLDEN["traces"]) == {"spec06-00", "ligra-00"}
    for runs in GOLDEN["traces"].values():
        assert set(runs) == {"none", "pmp", "spp", "pmp+events"}
        assert runs["none"]["issued_prefetches"] in ({}, {"1": 0, "2": 0, "3": 0})
        for name, data in runs.items():
            _sane(data)
            assert ("event_counters" in data) == TRACE_RUNS[name][1]
        # Tracing is pure observation: the traced run's counters are
        # the untraced run's.
        traced = dict(runs["pmp+events"])
        del traced["event_counters"]
        assert traced == runs["pmp"]

    assert set(GOLDEN["multicore"]) == set(MULTICORE_RUNS)
    for name, per_core in GOLDEN["multicore"].items():
        assert [data["trace_name"].rsplit("@", 1)[1]
                for data in per_core] == ["0", "1", "2", "3"]
        for data in per_core:
            _sane(data)
    # Per-lane warmups measure each lane's own tail: later boundaries
    # leave fewer measured instructions on the same trace.
    mixed = GOLDEN["multicore"]["mix/pmp"]
    staggered = GOLDEN["multicore"]["mix/pmp/lane-warmups"]
    assert staggered[0]["instructions"] > mixed[0]["instructions"]
    assert staggered[3]["instructions"] < mixed[3]["instructions"]
