"""Conformance of every shipped prefetcher.

Every engine in ``COMPETITORS`` is auto-discovered, and every engine that
produces a number without being registered is listed in
:data:`UNREGISTERED`.  Each runs through the shared conformance suite
(:mod:`repro.prefetchers.conformance`): determinism, construction
determinism, warmup discipline, address legality, feedback conservation,
the hit-run differential, and sampled-stitching safety.  A guard fails
when an engine defined under ``repro.prefetchers`` is in neither, and the
registry's duplicate-name guard is pinned here too, next to the discovery
it protects.
"""

import importlib
import inspect
import itertools
import pkgutil
import typing
from functools import partial

import pytest

import repro.prefetchers
from repro.memtrace.trace import Trace
from repro.prefetchers import (
    COMPETITORS,
    SPP,
    BandwidthAdaptivePMP,
    CompetitorRegistry,
    DesignB,
    Gaze,
    HybridPrefetcher,
    NextLine,
    NoPrefetcher,
    OraclePrefetcher,
    Pangloss,
    Prefetcher,
    Triangel,
    make_pmp_limit,
    register_competitor,
)
from repro.prefetchers.bingo import make_bingo_at_llc
from repro.prefetchers.conformance import (
    CONFORMANCE_CHECKS,
    ConformanceError,
    check_address_legality,
    conformance_trace,
    run_conformance,
)

#: Shipped engines that produce numbers outside ``COMPETITORS``.
UNREGISTERED = {
    "none": NoPrefetcher,            # the baseline every NIPC divides by
    "next-line": NextLine,           # the constant-stride anchor
    "design-b": DesignB,             # Table VIII
    "pmp-limit": make_pmp_limit,     # Fig 8, Fig 13
    "pmp-bw": BandwidthAdaptivePMP,  # the bandwidth-adaptive extension
    "spp": SPP,                      # the golden fixtures
    "bingo@llc": make_bingo_at_llc,  # the V-B placement knob
    "oracle": OraclePrefetcher,      # the headroom upper bound
}

ENGINES = sorted(COMPETITORS)
GRID = ENGINES + sorted(UNREGISTERED)


def factory_for(engine, trace):
    """The zero-argument factory of ``engine`` driven over ``trace``."""
    if engine in COMPETITORS:
        return COMPETITORS[engine]
    if engine == "oracle":  # reads the trace it is driven with
        return partial(OraclePrefetcher, trace)
    return UNREGISTERED[engine]


@pytest.fixture(scope="module")
def trace():
    return conformance_trace()


@pytest.fixture(scope="module")
def byte_trace(trace):
    """The conformance trace at byte, not line, granularity, as ChampSim
    ingestion keeps raw addresses."""
    byte_trace = Trace(name=f"{trace.name}-bytes", family=trace.family,
                       seed=trace.seed)
    byte_trace.extend(access._replace(address=access.address + 8 * (i % 8))
                      for i, access in enumerate(trace))
    return byte_trace


# --------------------------------------------------- the conformance grid

@pytest.mark.parametrize("check", list(CONFORMANCE_CHECKS))
@pytest.mark.parametrize("engine", ENGINES)
def test_registered_engine_conforms(engine, check, trace):
    """(engine x check) grid over the live registry."""
    CONFORMANCE_CHECKS[check](COMPETITORS[engine], trace)


@pytest.mark.parametrize("check", list(CONFORMANCE_CHECKS))
@pytest.mark.parametrize("engine", sorted(UNREGISTERED))
def test_unregistered_engine_conforms(engine, check, trace):
    """(engine x check) grid over the shipped engines outside the registry."""
    CONFORMANCE_CHECKS[check](factory_for(engine, trace), trace)


@pytest.mark.parametrize("engine", GRID)
def test_byte_addresses_yield_line_aligned_prefetches(engine, byte_trace):
    """Unaligned demand addresses must still produce line-aligned requests."""
    check_address_legality(factory_for(engine, byte_trace), byte_trace)


def _shipped_engines():
    """Every Prefetcher subclass, and every public function returning
    one, defined under ``repro.prefetchers``.

    Each submodule is imported first, so a module the package ``__init__``
    does not import cannot escape the grid.
    """
    package = repro.prefetchers.__name__
    modules = [repro.prefetchers] + [
        importlib.import_module(f"{package}.{info.name}")
        for info in pkgutil.iter_modules(repro.prefetchers.__path__)]
    classes, pending = set(), [Prefetcher]
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__.startswith(package):
                classes.add(cls)
    factories = {
        value for module in modules for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__
        and not name.startswith("_")
        and typing.get_type_hints(value).get("return") in classes}
    return classes, factories


def test_every_shipped_engine_is_in_the_grid(trace):
    """An engine class, or a factory that renames one, must be registered
    or listed in UNREGISTERED."""
    made = [factory_for(engine, trace)() for engine in GRID]
    made_types = {type(engine) for engine in made}
    made_engines = {(type(engine), engine.name) for engine in made}
    classes, factories = _shipped_engines()
    missing = sorted(cls.__qualname__ for cls in classes
                     if cls not in made_types)
    for factory in sorted(factories, key=lambda f: f.__name__):
        engine = factory()
        if (type(engine), engine.name) not in made_engines:
            missing.append(f"{factory.__name__}()")
    assert not missing, f"shipped engines outside the grid: {missing}"


def test_zoo_engines_are_registered():
    """The PR-10 ports are first-class competitors."""
    assert COMPETITORS["pangloss"] is Pangloss
    assert COMPETITORS["gaze"] is Gaze
    assert COMPETITORS["triangel"] is Triangel
    assert COMPETITORS["hybrid"] is HybridPrefetcher
    for name, factory in COMPETITORS.items():
        assert factory().name == name


def test_run_conformance_reports_failures_not_raises(trace):
    """The aggregate runner collects diagnostics for CI smokes."""

    class Liar(Pangloss):
        """Breaks legality on purpose: misaligned address."""

        name = "liar"

        def on_access(self, pc, address, cycle, hit, view):
            from repro.prefetchers.base import PrefetchRequest
            return [PrefetchRequest(address=0x1001)]

    failures = run_conformance(Liar, trace)
    assert failures
    assert any("address_legality" in f for f in failures)


def test_construction_determinism_rejects_a_stamped_factory():
    """A factory that numbers its instances breaks per-configuration keys."""
    serial = itertools.count()

    def stamped():
        engine = NextLine()
        engine.serial = next(serial)
        return engine

    with pytest.raises(ConformanceError, match="fingerprint differently"):
        CONFORMANCE_CHECKS["construction_determinism"](stamped, None)


def test_conformance_error_is_an_assertion(trace):
    with pytest.raises(ConformanceError):
        raise ConformanceError("x")
    assert issubclass(ConformanceError, AssertionError)


# ----------------------------------------------- registry shadowing guard

class TestRegistryShadowing:
    """Duplicate registration used to silently replace the old engine."""

    def test_duplicate_assignment_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            COMPETITORS["pmp"] = Pangloss
        assert COMPETITORS["pmp"] is not Pangloss  # untouched

    def test_register_competitor_helper_raises_on_duplicate(self):
        with pytest.raises(ValueError, match="pangloss"):
            register_competitor("pangloss", Gaze)

    def test_update_routes_through_the_guard(self):
        registry = CompetitorRegistry({"a": Pangloss})
        with pytest.raises(ValueError, match="already registered"):
            registry.update({"a": Gaze})
        assert registry["a"] is Pangloss

    def test_in_place_union_routes_through_the_guard(self):
        registry = CompetitorRegistry({"a": Pangloss})
        with pytest.raises(ValueError, match="already registered"):
            registry |= {"a": Gaze}
        assert registry["a"] is Pangloss

    def test_explicit_delete_allows_reregistration(self):
        registry = CompetitorRegistry()
        registry["x"] = Pangloss
        del registry["x"]
        registry["x"] = Gaze  # explicit replacement is fine
        assert registry["x"] is Gaze

    def test_registry_still_behaves_like_a_dict(self):
        # The experiment runners use dict(), .items(), `in`, sorted().
        assert "pmp" in COMPETITORS
        assert dict(COMPETITORS)["pmp"] is COMPETITORS["pmp"]
        assert sorted(COMPETITORS) == sorted(dict(COMPETITORS))
