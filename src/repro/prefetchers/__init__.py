"""Hardware data prefetchers: PMP (the paper's contribution) and rivals."""

from .base import (
    FillLevel,
    NoPrefetcher,
    NullSystemView,
    Prefetcher,
    PrefetchRequest,
    SystemView,
)
from .bingo import Bingo
from .design_b import DesignB
from .dspatch import DSPatch
from .extensions import BandwidthAdaptivePMP, OraclePrefetcher
from .gaze import Gaze
from .hybrid import HybridPrefetcher, SetDuelingArbiter
from .pangloss import Pangloss
from .pmp import (
    PMP,
    CounterVector,
    PMPConfig,
    PrefetchBuffer,
    arbitrate,
    coarsen_bits,
    extract_afe,
    extract_ane,
    extract_are,
    make_pmp,
    make_pmp_limit,
)
from .pythia import Pythia
from .simple import NextLine
from .triangel import Triangel
from .sms import (
    CapturedPattern,
    PatternCaptureFramework,
    SetAssociativeTable,
    rotate_left,
    rotate_right,
)
from .spp import SPP, SPPWithPPF

class CompetitorRegistry(dict):
    """Name → factory registry that refuses silent shadowing.

    Registering a name twice used to silently replace the earlier engine
    — a hazard once plugins/tests started extending the zoo.  Assignment
    now raises :class:`ValueError` for an existing name; tests that need
    to swap a factory must ``del`` the old entry first (or build their
    own dict), making the replacement explicit.
    """

    def __setitem__(self, name, factory):
        if name in self:
            raise ValueError(
                f"prefetcher {name!r} is already registered; duplicate "
                "registration would silently shadow the existing engine")
        super().__setitem__(name, factory)

    def update(self, *args, **kwargs):  # route through the guard
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    def __ior__(self, other):  # dict.__ior__ would bypass update()
        self.update(other)
        return self


def register_competitor(name: str, factory) -> None:
    """Add an engine to :data:`COMPETITORS` (raises on duplicates)."""
    COMPETITORS[name] = factory


# The paper's five-way headline comparison (Fig 8) plus the PR-10 zoo:
# Pangloss/Gaze/Triangel ports and the set-dueling hybrid.  Iteration
# order is registration order; experiments sort names where it matters.
COMPETITORS = CompetitorRegistry()
COMPETITORS.update({
    "dspatch": DSPatch,
    "bingo": Bingo,
    "spp+ppf": SPPWithPPF,
    "pythia": Pythia,
    "pmp": PMP,
    "pangloss": Pangloss,
    "gaze": Gaze,
    "triangel": Triangel,
    "hybrid": HybridPrefetcher,
})

__all__ = [
    "BandwidthAdaptivePMP",
    "COMPETITORS",
    "Bingo",
    "CapturedPattern",
    "CompetitorRegistry",
    "CounterVector",
    "DSPatch",
    "DesignB",
    "FillLevel",
    "Gaze",
    "HybridPrefetcher",
    "NextLine",
    "NoPrefetcher",
    "NullSystemView",
    "OraclePrefetcher",
    "PMP",
    "PMPConfig",
    "Pangloss",
    "PatternCaptureFramework",
    "PrefetchBuffer",
    "Prefetcher",
    "PrefetchRequest",
    "Pythia",
    "SPP",
    "SPPWithPPF",
    "SetAssociativeTable",
    "SetDuelingArbiter",
    "SystemView",
    "Triangel",
    "arbitrate",
    "coarsen_bits",
    "extract_afe",
    "extract_ane",
    "extract_are",
    "make_pmp",
    "make_pmp_limit",
    "register_competitor",
    "rotate_left",
    "rotate_right",
]
