"""Author, validate, and run a custom scenario spec.

Workloads in this repo are declarative: a TOML document describes the
pattern recipe, scale, seed, and an ``expected:`` block of post-run
assertions.  This example writes a small custom scenario to
a temp file, validates it against the schema (showing what a rejection
looks like), compiles it to a trace, and runs the expected-assertion
gate programmatically — everything ``pmp-repro scenarios run`` does.

Run:  python examples/scenario_run.py
"""

import tempfile
from pathlib import Path

from repro import PMP, simulate
from repro.memtrace.workloads import compile_scenario
from repro.prefetchers.base import NoPrefetcher
from repro.scenarios import (
    ScenarioError,
    evaluate_expected,
    parse_scenario_file,
    parse_scenario_text,
)

SPEC = """\
schema_version = 1

[scenario]
name = "my-replay-mix"
family = "custom"
seed = 1234
description = "Replay-dominated mix with an irregular tail."

[scenario.scale]
accesses = 12000

[scenario.recipe]
epochs = 2

[[scenario.recipe.parts]]
generator = "pattern_replay"
weight = 0.7

[scenario.recipe.parts.params]
segment = 4
noise = 0.05

[[scenario.recipe.parts]]
generator = "pointer_chase"
weight = 0.3

[scenario.recipe.parts.params]
segment = 5
working_lines = 32768

[scenario.expected]
min_mpki = 5.0
min_nipc = { pmp = 1.0 }
max_nmt = { pmp = 3.0 }
"""

BROKEN = SPEC.replace('generator = "pattern_replay"',
                      'generator = "warp_drive"')


def main() -> None:
    print("A schema rejection reports every problem at once:")
    try:
        parse_scenario_text(BROKEN, source="broken.toml")
    except ScenarioError as exc:
        for problem in exc.problems:
            print(f"  - {problem}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "my_scenario.toml"
        path.write_text(SPEC)
        spec = parse_scenario_file(path)[0]
        print(f"\nValidated {spec.name} (family {spec.family}, "
              f"{len(spec.parts)} recipe parts, seed {spec.seed})")

        workload = compile_scenario(spec)
        trace = workload.build(spec.accesses)
        print(f"Built {len(trace)} accesses, "
              f"~{trace.estimated_mpki():.1f} MPKI")

        print("Simulating baseline and PMP ...")
        baseline = simulate(trace, NoPrefetcher())
        result = simulate(trace, PMP())
        print(f"  NIPC {result.nipc(baseline):.4f}, "
              f"NMT {result.nmt(baseline):.4f}")

        report = evaluate_expected(spec.expected, trace=trace,
                                   results={"pmp": result},
                                   baseline=baseline)
        for line in report.lines():
            print(line)
        print("expected: all assertions passed" if report.ok
              else "expected: FAILED — scenarios run would exit non-zero")
        # The CLI equivalent of everything above:
        #   pmp-repro scenarios validate my_scenario.toml
        #   pmp-repro scenarios run --spec my_scenario.toml


if __name__ == "__main__":
    main()
