"""Fig 5 — pattern heat maps for an MCF-like trace.

Paper shape: indexed by trigger offset, an MCF-like trace shows a
near-trigger "slash" and backward lines (structure); indexed by hashed
PC+Address the same patterns scatter across all rows (no structure).
"""

import numpy as np

from repro.analysis.heatmap import (
    diagonal_mass,
    heatmap_for_trace,
    render_ascii,
    row_concentration,
)
from repro.memtrace import synthetic as syn
from repro.memtrace.trace import Trace


def _mcf_like_trace(accesses=20_000):
    rng = np.random.default_rng(20)
    return Trace.from_arrays("mcf-like", syn.compose(rng, [
        (syn.backward_scan, {"segment": 2}, 0.4),
        (syn.neighborhood_walk, {"segment": 3}, 0.4),
        (syn.pointer_chase, {"segment": 5}, 0.2),
    ], accesses), family="spec06")


def test_fig5_heatmaps(benchmark):
    trace = _mcf_like_trace()

    def build():
        return {name: heatmap_for_trace(trace, name)
                for name in ("Trigger Offset", "PC", "PC+Address")}

    maps = benchmark.pedantic(build, rounds=1, iterations=1)

    print()
    for name, matrix in maps.items():
        print(f"--- {trace.name} indexed by {name} "
              f"(concentration {row_concentration(matrix):.3f}, "
              f"diagonal mass {diagonal_mass(matrix):.3f}) ---")
        print(render_ascii(matrix))

    trigger_map = maps["Trigger Offset"]
    scattered = maps["PC+Address"]
    assert row_concentration(trigger_map) >= row_concentration(scattered), \
        "Fig 5: trigger-offset indexing preserves structure"
    assert diagonal_mass(trigger_map) > diagonal_mass(scattered), \
        "Fig 5a: the near-trigger slash only exists under trigger-offset indexing"
    # Fig 5d: PC-indexed maps concentrate into a few horizontal rows.
    pc_map = maps["PC"]
    assert row_concentration(pc_map) > row_concentration(scattered), \
        "Fig 5d: PCs distribute patterns into a few concentrated sets"
