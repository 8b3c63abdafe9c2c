"""Reusable conformance harness every shipped prefetcher must pass.

Every engine must honour the same engine-facing contracts: the
:class:`~repro.prefetchers.base.Prefetcher` protocol, deterministic
construction (the result cache's per-configuration keys rest on it), the
hit-run fast-path rules, the invariant auditor's conservation laws, and
the sampled-simulation stitching assumptions.  This module packages those
contracts as named check functions so ``tests/test_prefetcher_conformance``
can parametrize (engine x check) over the live registry plus the
unregistered engines it lists — a new engine registered in
``COMPETITORS`` is conformance-tested with zero new test code.

Each check takes a zero-argument factory (so every run gets a fresh
instance) and raises :class:`ConformanceError` with a diagnostic on
violation.  The checks are intentionally engine-agnostic: they assert
only what *every* hardware prefetcher model must guarantee, never
per-engine quality numbers (those live in the scenario catalog).
"""

from __future__ import annotations

from typing import Callable

from ..memtrace.workloads import quick_suite
from ..sim.engine import simulate
from ..storage import ADDRESS_BITS
from .base import FillLevel, NullSystemView, Prefetcher

PrefetcherFactory = Callable[[], Prefetcher]

# One shared workload at unit-test scale: a real suite trace exercises
# triggers, promotions, evictions and prefetch feedback for every engine
# family (spatial, temporal, delta, RL).
_TRACE_ACCESSES = 4_000
_MAX_REQUESTS_PER_ACCESS = 256


class ConformanceError(AssertionError):
    """A prefetcher broke one of the engine-facing contracts."""


def conformance_trace(accesses: int = _TRACE_ACCESSES):
    """The canonical conformance workload (deterministic)."""
    return quick_suite()[0].build(accesses)


def _result_fingerprint(result) -> dict:
    data = result.to_dict()
    data.pop("sampling", None)
    return data


# --------------------------------------------------------------- checks

def check_determinism(factory: PrefetcherFactory, trace) -> None:
    """Two fresh instances over the same trace must agree bit-for-bit.

    Catches hidden global state, id()/hash-order dependence, and
    unseeded randomness — all of which would break golden traces and
    the experiment cache.
    """
    first = simulate(trace, factory())
    second = simulate(trace, factory())
    if first.to_dict() != second.to_dict():
        raise ConformanceError(
            f"{factory().name}: re-running the same trace with a fresh "
            "instance changed the result — the engine is not deterministic")


def check_construction_determinism(factory: PrefetcherFactory,
                                   trace) -> None:
    """Two fresh instances from one factory must fingerprint equal.

    The experiment engine keys every job of a configuration with the
    fingerprint of the first job's fresh instance; a factory whose
    instances differ (a per-instance counter, an unseeded draw, an
    address) would key the other jobs by the first instance's state.
    """
    from ..experiments.cache import prefetcher_fingerprint

    if prefetcher_fingerprint(factory()) != prefetcher_fingerprint(factory()):
        raise ConformanceError(
            f"{factory().name}: two fresh instances from one factory "
            "fingerprint differently — construction is not deterministic")


def check_warmup_discipline(factory: PrefetcherFactory, trace) -> None:
    """Measured stats must cover exactly the post-warmup window.

    Demand accesses are prefetcher-independent, so every engine's
    measured L1D demand count must equal the post-warmup slice; an
    engine that perturbs stats across the boundary (e.g. by touching
    hierarchy counters directly) breaks this.
    """
    warmup_fraction = 0.25
    result = simulate(trace, factory(), warmup_fraction=warmup_fraction)
    expected = len(trace) - int(len(trace) * warmup_fraction)
    measured = result.levels["l1d"].demand_accesses
    if measured != expected:
        raise ConformanceError(
            f"{factory().name}: measured {measured} L1D demand accesses, "
            f"expected the {expected}-access post-warmup window")
    if result.instructions <= 0 or result.cycles <= 0:
        raise ConformanceError(
            f"{factory().name}: empty measured window "
            f"(instructions={result.instructions}, cycles={result.cycles})")


def check_address_legality(factory: PrefetcherFactory, trace) -> None:
    """Every returned request must be a legal machine prefetch.

    Offline drive (NullSystemView, unbounded headroom) so the engine's
    raw output is visible: line-aligned byte addresses inside the
    ``ADDRESS_BITS`` physical space, levels drawn from
    :class:`FillLevel`, and a sane per-access request count.
    """
    prefetcher = factory()
    view = NullSystemView()
    limit = 1 << ADDRESS_BITS
    for pc, address in zip(trace.pcs[:_TRACE_ACCESSES],
                           trace.addresses[:_TRACE_ACCESSES]):
        requests = prefetcher.on_access(pc, address, 0.0, False, view)
        if len(requests) > _MAX_REQUESTS_PER_ACCESS:
            raise ConformanceError(
                f"{prefetcher.name}: {len(requests)} requests from one "
                f"access (cap {_MAX_REQUESTS_PER_ACCESS})")
        for request in requests:
            if not isinstance(request.address, int):
                raise ConformanceError(
                    f"{prefetcher.name}: non-int prefetch address "
                    f"{request.address!r}")
            if not 0 <= request.address < limit:
                raise ConformanceError(
                    f"{prefetcher.name}: address {request.address:#x} "
                    f"outside the {ADDRESS_BITS}-bit physical space")
            if request.address % 64:
                raise ConformanceError(
                    f"{prefetcher.name}: address {request.address:#x} is "
                    "not cacheline-aligned")
            if not isinstance(request.level, FillLevel):
                raise ConformanceError(
                    f"{prefetcher.name}: illegal fill level "
                    f"{request.level!r}")
            # Feedback hooks must tolerate any address they issued.
            prefetcher.on_prefetch_fill(request.address, request.level)
            prefetcher.on_prefetch_useful(request.address, request.level)
            prefetcher.on_prefetch_useless(request.address, request.level)
        prefetcher.on_evict(address & ~0x3F)


def check_feedback_conservation(factory: PrefetcherFactory, trace) -> None:
    """A full run under the invariant auditor must not violate the
    kernel's conservation laws (useful + useless + in-flight == issued,
    demand-hit accounting, PQ occupancy bounds)."""
    from ..sim.invariants import InvariantViolation

    try:
        simulate(trace, factory(), check_invariants=True)
    except InvariantViolation as violation:
        raise ConformanceError(
            f"{factory().name}: invariant auditor rejected the run: "
            f"{violation}") from violation


def check_hit_run_differential(factory: PrefetcherFactory, trace) -> None:
    """Fast path on vs off must be bit-identical.

    For ``supports_hit_runs`` engines this pins the consume-exactly-or-
    decline-untouched contract (and ``hit_run_transparent`` claims); for
    the rest it is a free sanity check that the flag is honoured.
    """
    fast = simulate(trace, factory(), fastpath=True)
    slow = simulate(trace, factory(), fastpath=False)
    if fast.to_dict() != slow.to_dict():
        raise ConformanceError(
            f"{factory().name}: fastpath on/off diverged — the hit-run "
            "hooks do not replicate on_access exactly")


def check_sampling_stitch_safety(factory: PrefetcherFactory, trace) -> None:
    """Sampled simulation must stitch safely around the engine.

    On a trace too small to window, the planner falls back to the exact
    engine and the result must be bit-identical to an unsampled run —
    any engine state leaking across the sampled/exact boundary (module
    globals, class-level caches) breaks the equality.
    """
    from ..sampling.config import SamplingConfig

    tiny = quick_suite()[0].build(100)
    sampled = simulate(tiny, factory(), sampling=SamplingConfig())
    exact = simulate(tiny, factory())
    if not (sampled.sampling and sampled.sampling.get("fallback")):
        raise ConformanceError(
            f"{factory().name}: expected the tiny-trace sampling fallback")
    if _result_fingerprint(sampled) != _result_fingerprint(exact):
        raise ConformanceError(
            f"{factory().name}: sampled fallback result differs from the "
            "exact run — engine state leaked across the sampling boundary")


# A stable, ordered catalogue: tests parametrize over this so the suite
# grows automatically when a check is added.
CONFORMANCE_CHECKS: dict[str, Callable[[PrefetcherFactory, object], None]] = {
    "determinism": check_determinism,
    "construction_determinism": check_construction_determinism,
    "warmup_discipline": check_warmup_discipline,
    "address_legality": check_address_legality,
    "feedback_conservation": check_feedback_conservation,
    "hit_run_differential": check_hit_run_differential,
    "sampling_stitch_safety": check_sampling_stitch_safety,
}


def run_conformance(factory: PrefetcherFactory, trace=None,
                    checks: dict | None = None) -> list[str]:
    """Run every check; returns the list of failure messages (empty =
    conformant).  Import-friendly for CI smokes and notebooks."""
    if trace is None:
        trace = conformance_trace()
    failures = []
    for name, check in (checks or CONFORMANCE_CHECKS).items():
        try:
            check(factory, trace)
        except ConformanceError as error:
            failures.append(f"{name}: {error}")
    return failures
