"""Every shipped prefetcher on one workload.

Runs the registered competitors (the paper's five plus the Pangloss, Gaze
and Triangel ports and the set-dueling hybrid) and the other engines that
produce numbers (Next-Line, Design B, SPP without its filter, PMP-Limit,
bandwidth-adaptive PMP, Bingo at the LLC and the oracle) on a single
mixed workload, and prints a ranking with storage, coverage and traffic.

Run:  python examples/prefetcher_zoo.py
"""

from repro.memtrace.workloads import quick_suite
from repro.prefetchers import (
    COMPETITORS,
    SPP,
    BandwidthAdaptivePMP,
    DesignB,
    NextLine,
    OraclePrefetcher,
    make_pmp_limit,
)
from repro.prefetchers.bingo import make_bingo_at_llc
from repro.sim.engine import simulate
from repro.storage import bingo_budget, table_v, zoo_budgets


def main() -> None:
    trace = quick_suite()[0].build(25_000)
    baseline = simulate(trace)
    print(f"workload {trace.name}: {len(trace)} accesses, baseline IPC "
          f"{baseline.ipc:.3f}\n")

    zoo = [factory() for factory in COMPETITORS.values()] + [
        NextLine(degree=2), DesignB(32), SPP(), make_pmp_limit(),
        BandwidthAdaptivePMP(), make_bingo_at_llc(),
        OraclePrefetcher(trace, depth=12, lead=8),
    ]
    rows = []
    for prefetcher in zoo:
        result = simulate(trace, prefetcher)
        rows.append((result.nipc(baseline), prefetcher.name, result))

    storage = {name: budget.total_kib
               for name, budget in {**table_v(), **zoo_budgets()}.items()}
    storage["pmp-limit"] = storage["pmp-bw"] = storage["pmp"]
    storage["bingo@llc"] = bingo_budget(enhanced=False).total_kib
    print(f"{'prefetcher':<12} {'NIPC':>6} {'storage':>8} {'covL1':>6} "
          f"{'covL2':>6} {'NMT':>6}")
    for nipc, name, result in sorted(rows, reverse=True):
        kib = storage.get(name)
        storage_text = f"{kib:.1f}KB" if kib else "-"
        print(f"{name:<12} {nipc:>6.3f} {storage_text:>8} "
              f"{result.coverage(baseline, 'l1d') * 100:>5.1f}% "
              f"{result.coverage(baseline, 'l2c') * 100:>5.1f}% "
              f"{result.nmt(baseline):>6.2f}")
    print("\n(oracle = trace-peeking upper bound, not hardware; storage per")
    print(" Table V and repro.storage.zoo_budgets, hybrid = arbiter only)")


if __name__ == "__main__":
    main()
