"""Persistent, content-addressed simulation result cache.

Every ``simulate()`` call the experiment engine makes is identified by a
content hash over everything that determines its output:

* the trace (name, seed, and the full packed access stream),
* the prefetcher (class plus its entire freshly-constructed state, which
  captures every config knob without per-prefetcher plumbing),
* the full :class:`~repro.sim.params.SystemConfig`,
* the warmup fraction and a cache-format version salt.

The prefetcher state is encoded by :func:`canonical`, which hashes a
Q-table or counter table in one C-level pass rather than value by value.

Results are stored one JSON file per key under ``<dir>/results/``, in the
:meth:`SimResult.to_dict` form, so a warm-cache rerun of any experiment
matrix replays the exact numbers without a single new simulation.  The
hit/miss counters feed the per-experiment run manifests.

**Integrity**: every entry carries a SHA-256 checksum over its result
payload, verified on read.  An entry that fails to parse or to verify is
*quarantined* — moved to ``<dir>/quarantine/`` and counted (the run
manifest reports the count) — rather than silently treated as a miss and
deleted, so corruption is visible and the bytes stay available for
post-mortem.

**Versions**: :data:`CACHE_VERSION` salts every key, so entries written
under an older version are never read again; they stay behind as dead
files until ``clear()``.

1. The first format.
2. Added the per-entry integrity checksum.
3. Bulk, type-tagged key encoding (every key changed).  Resuming a run
   journal written under version 2 re-simulates its jobs, because the
   journal is keyed by the same job keys.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from array import array
from collections import OrderedDict
from enum import Enum
from itertools import chain
from pathlib import Path

import numpy as np

from ..prefetchers.base import Prefetcher
from ..sim.stats import SimResult

#: Salt of every key.  Bump whenever SimResult semantics, simulator
#: behaviour, the entry format or the key encoding changes in a way that
#: invalidates stored entries (history in the module docstring).
CACHE_VERSION = 3

log = logging.getLogger("repro.experiments.cache")

_MAX_DEPTH = 16

#: ``array`` typecodes of the element types a bulk token packs.
_TYPECODES = {float: "d", int: "q"}


def canonical(obj, depth: int = 0):
    """A deterministic, type-tagged, JSON-serialisable view of (nearly) any object.

    Used to fingerprint prefetcher state.  ``None``, bools, ints and strs
    stand for themselves (JSON keeps ``1`` and ``true`` apart); every other
    value becomes a list headed by a tag:

    * ``["f", repr]``: a float; ``repr`` keeps ``-0.0`` apart from ``0.0``.
    * ``["d" | "q", shape, sha256]``: a non-empty list or tuple whose
      elements are all exactly ``float`` (``"d"``) or all exactly ``int``
      (``"q"``), or a list of equal-length such rows (a 2-entry shape),
      hashed as ``array('d' | 'q')`` bytes.  Bools and IntEnums are not
      exact ints, so they never join one.
    * ``["int-repr", shape, sha256]``: the same for ints beyond 64 bits,
      hashing the ``repr`` of the values.
    * ``["list", items]``: any other list or tuple.
    * ``["dict", [[key, value], ...]]``: items sorted by encoded key.
    * ``["set", items]``, ``["bytes", sha256]`` and
      ``["ndarray", dtype, shape, sha256]`` (numpy scalars too).
    * ``["enum", class, value]``: an Enum member, IntEnums such as
      ``FillLevel`` included.
    * ``["obj", class, state]``: any other object, by its ``__dict__`` or
      ``__slots__``.
    * ``["repr", class, repr]``: an object with no attribute state, or one
      nested deeper than ``_MAX_DEPTH``.

    Exact types (and ``OrderedDict``) dispatch through a table; other
    subclasses (enums, named tuples, ``defaultdict``) take the isinstance
    chain.  By design a tuple aliases the list of the same items, and a
    dict (or ``OrderedDict``) aliases any reordering of its items.
    """
    if depth > _MAX_DEPTH:
        return _opaque(obj)
    encode = _BY_TYPE.get(type(obj))
    if encode is not None:
        return encode(obj, depth)
    if isinstance(obj, Enum):
        return ["enum", _qualname(obj), canonical(obj.value, depth + 1)]
    if isinstance(obj, (np.ndarray, np.generic)):
        data = np.asarray(obj)
        return ["ndarray", str(data.dtype), list(data.shape),
                _sha256(data.tobytes())]
    if isinstance(obj, dict):
        return _mapping(obj, depth)
    if isinstance(obj, (list, tuple)):
        return _sequence(obj, depth)
    if isinstance(obj, (set, frozenset)):
        return _set(obj, depth)
    state = _instance_state(obj)
    if state is None:
        return _opaque(obj)
    return ["obj", _qualname(obj), _mapping(state, depth + 1)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _qualname(obj) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def _opaque(obj) -> list:
    return ["repr", _qualname(obj), repr(obj)]


def _itself(obj, depth):
    return obj


def _float(obj, depth):
    return ["f", repr(obj)]


def _bytes(obj, depth):
    return ["bytes", _sha256(obj)]


def _scalar_block(seq) -> list | None:
    """The bulk token for ``seq``, or None if it does not qualify."""
    if not seq:
        return None
    kinds = set(map(type, seq))
    if kinds <= {list, tuple}:
        widths = set(map(len, seq))
        if len(widths) != 1 or 0 in widths:
            return None
        shape = [len(seq), widths.pop()]
        flat = list(chain.from_iterable(seq))
        kinds = set(map(type, flat))
    else:
        shape, flat = [len(seq)], seq
    typecode = _TYPECODES.get(kinds.pop()) if len(kinds) == 1 else None
    if typecode is None:
        return None
    try:
        packed = array(typecode, flat).tobytes()
    except OverflowError:
        return ["int-repr", shape, _sha256(repr(list(flat)).encode())]
    return [typecode, shape, _sha256(packed)]


def _sequence(seq, depth):
    block = _scalar_block(seq)
    if block is not None:
        return block
    return ["list", [canonical(item, depth + 1) for item in seq]]


def _mapping(mapping, depth):
    # Keys are unique, so their encodings are too: sorting by the encoded
    # key alone is a total order and never compares values.
    items = [(canonical(k, depth + 1), canonical(v, depth + 1))
             for k, v in mapping.items()]
    items.sort(key=lambda item: repr(item[0]))
    return ["dict", items]


def _set(items, depth):
    return ["set", sorted((canonical(item, depth + 1) for item in items),
                          key=repr)]


_BY_TYPE = {type(None): _itself, bool: _itself, int: _itself, str: _itself,
            float: _float, bytes: _bytes, list: _sequence, tuple: _sequence,
            dict: _mapping, OrderedDict: _mapping, set: _set,
            frozenset: _set}


def _instance_state(obj) -> dict | None:
    """Attribute dict of an arbitrary object (handles __slots__), if any."""
    state = getattr(obj, "__dict__", None)
    if state:
        return dict(state)
    slots = getattr(type(obj), "__slots__", None)
    if slots:
        return {name: getattr(obj, name) for name in slots
                if hasattr(obj, name)}
    return None


def fingerprint(obj) -> str:
    """SHA-256 hex digest of :func:`canonical` as compact JSON."""
    payload = json.dumps(canonical(obj), separators=(",", ":"))
    return _sha256(payload.encode("utf-8"))


def prefetcher_fingerprint(prefetcher: Prefetcher) -> str:
    """Identity of a freshly-constructed prefetcher: class + initial state.

    Construction is deterministic for every prefetcher in the repo, so
    hashing the initial state distinguishes configurations (a
    ``PMP(PMPConfig(region_bytes=2048))`` hashes differently from the
    default) without requiring each class to declare its knobs.
    """
    return fingerprint([type(prefetcher).__module__,
                        type(prefetcher).__qualname__,
                        prefetcher.name,
                        _instance_state(prefetcher) or {}])


def result_checksum(result_dict: dict) -> str:
    """SHA-256 over the canonical JSON serialisation of a result payload."""
    payload = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CorruptCacheEntry(ValueError):
    """A cache file existed but failed parsing or checksum verification."""


class ResultCache:
    """Directory-backed store of :class:`SimResult`s keyed by content hash."""

    def __init__(self, directory: str | Path = ".repro-cache") -> None:
        self.directory = Path(directory)
        self.results_dir = self.directory / "results"
        self.quarantine_dir = self.directory / "quarantine"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Corrupt entries quarantined by this cache instance.
        self.corrupt = 0
        #: Structured {key, path, reason} record per quarantined entry.
        self.corrupt_events: list[dict] = []

    def _path_for(self, key: str) -> Path:
        return self.results_dir / f"{key}.json"

    def _load_verified(self, path: Path) -> SimResult:
        """Parse one entry, verifying its integrity checksum."""
        with path.open() as fh:
            data = json.load(fh)
        stored = data["checksum"]
        actual = result_checksum(data["result"])
        if stored != actual:
            raise CorruptCacheEntry(
                f"checksum mismatch: stored {stored[:12]}…, "
                f"payload hashes to {actual[:12]}…")
        return SimResult.from_dict(data["result"])

    def _quarantine(self, key: str, path: Path, reason: str) -> None:
        """Move a corrupt entry aside (counted, logged, kept for autopsy).

        Destinations are suffixed (``<key>.1.json``, ``<key>.2.json``…)
        when the name is taken: a key that is re-corrupted after being
        re-simulated must not overwrite the earlier evidence —
        recurring corruption of one key is exactly the post-mortem case
        the quarantine exists for.
        """
        self.corrupt += 1
        destination = self.quarantine_dir / path.name
        suffix = 0
        while destination.exists():
            suffix += 1
            destination = self.quarantine_dir / f"{path.stem}.{suffix}{path.suffix}"
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            path.replace(destination)
        except OSError:
            path.unlink(missing_ok=True)
            destination = None
        event = {"key": key, "path": str(destination or path),
                 "reason": reason}
        self.corrupt_events.append(event)
        log.warning("quarantined corrupt cache entry %s…: %s (moved to %s)",
                    key[:12], reason, destination or "nowhere; deleted")

    def get(self, key: str) -> SimResult | None:
        """The stored, integrity-checked result for a key, or None.

        Counts hits and misses; a corrupt entry is quarantined and
        counted separately (``corrupt`` / ``corrupt_events``), then
        reported as a miss so the job re-simulates.
        """
        path = self._path_for(key)
        try:
            result = self._load_verified(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError) as exc:
            self._quarantine(key, path, f"{type(exc).__name__}: {exc}")
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimResult) -> None:
        """Persist one checksummed result (atomic via rename).

        The entry is staged under a hidden per-process name (the scheme of
        :func:`repro.fabric.protocol.write_json_atomic`): processes sharing
        the directory never rename each other's staging file away, and
        ``len()`` and ``clear()`` never count one.
        """
        path = self._path_for(key)
        tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
        result_dict = result.to_dict()
        with tmp.open("w") as fh:
            json.dump({"version": CACHE_VERSION, "key": key,
                       "checksum": result_checksum(result_dict),
                       "result": result_dict}, fh)
        tmp.replace(path)

    def __len__(self) -> int:
        return sum(1 for _ in self.results_dir.glob("*.json"))

    def clear(self) -> int:
        """Delete all stored results; returns how many were removed."""
        removed = 0
        for path in self.results_dir.glob("*.json"):
            path.unlink()
            removed += 1
        return removed
