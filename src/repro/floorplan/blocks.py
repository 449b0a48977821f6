"""The block model: the paper's 〈Γ, a_m, a_t〉 triple plus terminals.

A block is one hierarchy-cut node (HCB member): a hybrid of hard macros
and soft standard-cell area.  Its shape curve Γ constrains only the
macros; ``a_m`` is the *minimum* area (all macros and cells beneath the
node); ``a_t`` is the *target* area after glue absorption and die-fill
scaling.  Terminals are fixed points the cost function can pull blocks
toward: chip ports and macros outside the subtree being floorplanned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.geometry.rect import Point
from repro.shapecurve.curve import ShapeCurve


@dataclass
class Block:
    """A floorplanning block at one hierarchy level."""

    index: int
    name: str
    curve: ShapeCurve
    area_min: float
    area_target: float
    macro_count: int = 0
    hier_path: Optional[str] = None
    seq_nodes: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.area_min < 0:
            raise ValueError(f"block {self.name}: negative minimum area")
        if self.area_target < self.area_min - 1e-9:
            # The target must at least cover the block's own contents.
            self.area_target = self.area_min

    @property
    def has_macros(self) -> bool:
        return self.macro_count > 0

    def __repr__(self) -> str:
        return (f"Block({self.name}: macros={self.macro_count}, "
                f"a_m={self.area_min:.0f}, a_t={self.area_target:.0f})")


@dataclass
class Terminal:
    """A fixed point with dataflow affinity to the blocks."""

    index: int                 # index in the affinity matrix tail
    name: str
    pos: Point
    kind: str = "port"         # "port" | "ext"

    def __repr__(self) -> str:
        return f"Terminal({self.name}@{self.pos.x:.0f},{self.pos.y:.0f})"
