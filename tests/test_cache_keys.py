"""Result-cache keys: what a prefetcher fingerprint tells apart, and what not.

The key encoding (:func:`repro.experiments.cache.canonical`) hashes a list
of exact floats or exact ints, or a list of equal-length rows of them, as
one token.  These tests pin that the tokens keep the key exact:

* every prefetcher configuration the experiment modules build keys the
  same on every construction, and only spellings of one configuration
  share a key;
* a batch fingerprints each configuration once, and every job's key is
  the one hashed from its own fresh prefetcher;
* keys do not depend on the process (hash seed, object addresses);
* values that differ in a scalar's type, a float's sign or a list's
  layout never share a key, while the documented aliases (tuple and list,
  dict order) do.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import OrderedDict, defaultdict
from pathlib import Path

from hypothesis import given, strategies as st

from repro.experiments import engine as engine_module
from repro.experiments.cache import (CACHE_VERSION, canonical, fingerprint,
                                     prefetcher_fingerprint)
from repro.experiments.engine import ExperimentEngine
from repro.experiments.runner import SuiteRunner
from repro.experiments.single_core import run_single_core
from repro.memtrace.workloads import quick_suite
from repro.prefetchers import COMPETITORS
from repro.prefetchers.base import FillLevel, NoPrefetcher
from repro.prefetchers.design_b import DesignB
from repro.prefetchers.pmp import PMP, PMPConfig, make_pmp_limit
from repro.prefetchers.pythia import Pythia

SRC = Path(__file__).resolve().parent.parent / "src"


def _pmp(**knobs):
    return lambda: PMP(PMPConfig(**knobs))


#: Every prefetcher configuration the experiment modules build (the
#: registry, Fig 8's pmp-limit and baseline, Table VIII's Design B sweep
#: and its PMP reference, every PMPConfig value ablations.py sweeps), plus
#: Pythia's Q-table initialisations, signed zero included, and table size.
CONFIGURATIONS = {
    **COMPETITORS,
    "pmp-limit": make_pmp_limit,
    "baseline": NoPrefetcher,
    **{f"design_b:{ways}": (lambda w=ways: DesignB(w))
       for ways in (8, 32, 128, 512)},
    "design_b:pmp": PMP,
    **{f"extraction={v}": _pmp(extraction=v) for v in ("afe", "ane", "are")},
    **{f"structure={v}": _pmp(structure=v)
       for v in ("dual", "combined", "opt", "ppt")},
    **{f"region_bytes={v}": _pmp(region_bytes=v) for v in (4096, 2048, 1024)},
    **{f"trigger_offset_bits={v}": _pmp(trigger_offset_bits=v)
       for v in (4, 5, 6, 8, 10)},
    **{f"opt_counter_bits={v}": _pmp(opt_counter_bits=v)
       for v in (2, 3, 4, 5, 6, 8)},
    **{f"monitoring_range={v}": _pmp(monitoring_range=v) for v in (1, 2, 4, 8)},
    **{f"optimistic_init={v!r}": (lambda v=v: Pythia(optimistic_init=v))
       for v in (0.5, 0.25, 0.0, -0.0)},
    "table_size=1024": lambda: Pythia(table_size=1024),
}

#: The spellings of the default PMP and the default Pythia: the only
#: configurations that may share a key.
DEFAULT_PMP = {"pmp", "design_b:pmp", "extraction=afe", "structure=dual",
               "region_bytes=4096", "trigger_offset_bits=6",
               "opt_counter_bits=5", "monitoring_range=2"}
DEFAULT_PYTHIA = {"pythia", "optimistic_init=0.5"}


class TestConfigurationKeys:
    def test_fresh_instances_fingerprint_equal(self):
        for name, factory in CONFIGURATIONS.items():
            assert (prefetcher_fingerprint(factory())
                    == prefetcher_fingerprint(factory())), name

    def test_only_default_spellings_share_a_key(self):
        groups = defaultdict(set)
        for name, factory in CONFIGURATIONS.items():
            groups[prefetcher_fingerprint(factory())].add(name)
        aliases = sorted((g for g in groups.values() if len(g) > 1), key=len)
        assert aliases == [DEFAULT_PYTHIA, DEFAULT_PMP]
        assert (len(CONFIGURATIONS), len(groups)) == (46, 38)


class TestPerConfigurationKeys:
    def test_fig8_batch_fingerprints_each_configuration_once(
            self, tmp_path, monkeypatch):
        """Fig 8's 44 jobs are 11 configurations over 4 traces: the engine
        fingerprints 11 prefetchers, and every key is the per-job key."""
        fingerprinted = []

        def counting(prefetcher):
            fingerprinted.append(prefetcher.name)
            return prefetcher_fingerprint(prefetcher)

        expected = []
        run_jobs = ExperimentEngine.run_jobs

        def recording(engine, jobs):
            # Each job's own fresh prefetcher, fingerprinted before the
            # batch simulates (and so trains) it.
            expected.extend(fingerprint([
                CACHE_VERSION, job.trace.content_hash(),
                prefetcher_fingerprint(job.prefetcher),
                job.config.fingerprint(), repr(job.warmup_fraction)])
                for job in jobs)
            return run_jobs(engine, jobs)

        monkeypatch.setattr(engine_module, "prefetcher_fingerprint", counting)
        monkeypatch.setattr(ExperimentEngine, "run_jobs", recording)
        runner = SuiteRunner(specs=quick_suite()[:4], accesses=200,
                             cache=tmp_path)
        run_single_core(runner, include_pmp_limit=True)

        assert len(expected) == 44
        assert sorted(fingerprinted) == sorted([*COMPETITORS, "pmp-limit",
                                                "none"])
        # The cache stores each result under the key the engine used.
        stored = {path.stem for path in runner.cache.results_dir.iterdir()}
        assert stored == set(expected) and len(stored) == 44


#: Fingerprints every Prefetcher subclass that builds without arguments;
#: prints {class: [fingerprint, canonical state holds "0x"]} as JSON.  The
#: state is the attribute dict the fingerprint hashes beside the class.
_FINGERPRINT_ALL = """
import importlib, json, pkgutil
import repro.prefetchers as package
from repro.experiments.cache import canonical, prefetcher_fingerprint
from repro.prefetchers.base import Prefetcher

for module in pkgutil.iter_modules(package.__path__):
    importlib.import_module(f"{package.__name__}.{module.name}")
classes, todo = [], [Prefetcher]
while todo:
    cls = todo.pop()
    classes.append(cls)
    todo.extend(cls.__subclasses__())
out = {}
for cls in classes:
    try:
        prefetcher = cls()
    except TypeError:  # needs constructor arguments
        continue
    out[f"{cls.__module__}.{cls.__qualname__}"] = [
        prefetcher_fingerprint(prefetcher),
        "0x" in json.dumps(canonical(vars(prefetcher)))]
print(json.dumps(out))
"""


def _fingerprints_under_hash_seed(seed: str) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": f"{SRC}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    proc = subprocess.run([sys.executable, "-c", _FINGERPRINT_ALL], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestProcessIndependence:
    def test_keys_survive_hash_seed_and_hold_no_addresses(self):
        first = _fingerprints_under_hash_seed("1")
        second = _fingerprints_under_hash_seed("4242")
        assert first == second
        assert len(first) >= len(COMPETITORS) + 1
        assert "repro.prefetchers.pythia.Pythia" in first
        assert [name for name, (_, address) in first.items() if address] == []


class TestNoAliasing:
    def test_signed_zero(self):
        assert fingerprint(0.0) != fingerprint(-0.0)
        assert fingerprint([0.0, 1.0]) != fingerprint([-0.0, 1.0])
        assert fingerprint([[0.0], [1.0]]) != fingerprint([[-0.0], [1.0]])

    def test_int_float_bool(self):
        for wrap in (lambda x: x, lambda x: [x], lambda x: [x, x],
                     lambda x: [[x], [x]]):
            keys = {fingerprint(wrap(v)) for v in (1, 1.0, True)}
            assert len(keys) == 3

    def test_enum_and_its_value(self):
        assert fingerprint(FillLevel.L2C) != fingerprint(2)
        assert fingerprint([FillLevel.L2C]) != fingerprint([2])
        assert (fingerprint({"level": FillLevel.L2C})
                != fingerprint({"level": 2}))

    def test_ragged_rows(self):
        assert fingerprint([[1, 2], [3]]) != fingerprint([[1], [2, 3]])
        assert fingerprint([[1, 2], [3, 4]]) != fingerprint([[1, 2, 3, 4]])
        assert fingerprint([[1, 2], [3, 4]]) != fingerprint([1, 2, 3, 4])

    def test_ints_beyond_64_bits(self):
        assert canonical([1, 2**70])[0] == "int-repr"
        assert canonical([[2**70], [1]])[0] == "int-repr"
        assert canonical([2**63 - 1, -2**63])[0] == "q"
        keys = {fingerprint(v) for v in
                ([1, 2**70], [1, 2**70 + 1], [2**70, 1], [[1], [2**70]],
                 [1, 2**64 + 2**70])}
        assert len(keys) == 5


class TestDesignedAliases:
    def test_tuple_and_list(self):
        assert fingerprint((1, 2)) == fingerprint([1, 2])
        assert fingerprint([(1.0,), [2.0]]) == fingerprint(((1.0,), (2.0,)))
        assert fingerprint((1, "a")) == fingerprint([1, "a"])

    def test_dict_order(self):
        items = [("b", 2), (3, [1.0]), ("a", None)]
        assert fingerprint(dict(items)) == fingerprint(dict(items[::-1]))
        assert fingerprint(OrderedDict(items)) == fingerprint(dict(items[::-1]))


def exact(value):
    """``value`` with every scalar replaced by its exact type and repr."""
    if isinstance(value, (list, tuple)):
        return tuple(exact(item) for item in value)
    return type(value), repr(value)


def swapped(value):
    """``value`` with every list turned into a tuple and vice versa."""
    if isinstance(value, list):
        return tuple(swapped(item) for item in value)
    if isinstance(value, tuple):
        return [swapped(item) for item in value]
    return value


def retyped(value):
    """``value`` with each scalar swapped for one of another type or sign
    that Python still calls equal: ``True -> 1 -> 1.0 -> 1``, ``0.0 -> -0.0``."""
    if isinstance(value, (list, tuple)):
        return [retyped(item) for item in value]
    if type(value) is bool:
        return int(value)
    if type(value) is int and abs(value) <= 2**53:
        return float(value)
    if type(value) is float and value == 0:
        return -value
    if type(value) is float and value.is_integer():
        return int(value)
    return value


def flattened(value):
    """``value`` with one level of rows joined, where every item is a row."""
    if (isinstance(value, (list, tuple)) and value
            and all(isinstance(row, (list, tuple)) for row in value)):
        return [item for row in value for item in row]
    return value


#: Scalars that Python calls equal across types and signs.
confusable = st.sampled_from((0, 1, 0.0, -0.0, 1.0, False, True))
scalars = st.one_of(confusable, st.none(), st.booleans(), st.integers(),
                    st.integers(min_value=-2**70, max_value=2**70),
                    st.floats(allow_nan=False), st.text(max_size=2))
#: Homogeneous lists and equal-length rows, so the bulk tokens (and their
#: ``int-repr`` fallback) are drawn often, next to mixed nests.
rows = st.integers(min_value=0, max_value=3).flatmap(
    lambda width: st.lists(st.one_of(
        st.lists(st.floats(allow_nan=False), min_size=width, max_size=width),
        st.lists(st.integers(), min_size=width, max_size=width)),
        max_size=3))
blocks = st.one_of(st.lists(st.floats(allow_nan=False), max_size=4),
                   st.lists(st.integers(), max_size=4),
                   st.lists(confusable, max_size=3), rows)
nested = st.recursive(st.one_of(scalars, blocks),
                      lambda children: st.lists(children, max_size=3)
                      | st.lists(children, max_size=3).map(tuple),
                      max_leaves=12)


@given(st.data())
def test_fingerprints_equal_exactly_when_values_equal(data):
    first = data.draw(nested)
    for second in (data.draw(nested), swapped(first), retyped(first),
                   flattened(first)):
        assert ((fingerprint(first) == fingerprint(second))
                == (exact(first) == exact(second))), second
