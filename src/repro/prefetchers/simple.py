"""Next-line prefetching: the simplest constant-stride baseline.

The paper's related work (Section VI-A) discusses the constant-stride
family, which cannot express the variable-stride patterns PMP targets.
Next-Line is kept as that family's one anchor for the examples and tests.
"""

from __future__ import annotations

from .base import FillLevel, Prefetcher, PrefetchRequest, SystemView


class NextLine(Prefetcher):
    """Always prefetch the next `degree` cachelines."""

    name = "next-line"

    def __init__(self, degree: int = 1,
                 fill_level: FillLevel = FillLevel.L1D) -> None:
        self.degree = degree
        self.fill_level = fill_level

    def on_access(self, pc: int, address: int, cycle: float, hit: bool,
                  view: SystemView) -> list[PrefetchRequest]:
        line = address >> 6
        return [PrefetchRequest(address=(line + i) << 6, level=self.fill_level)
                for i in range(1, self.degree + 1)]
