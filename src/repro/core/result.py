"""Placement results: what HiDaP (and the baseline flows) return.

A :class:`MacroPlacement` carries the placed macro rectangles and
orientations, the per-hierarchy-level block rectangles (useful for
visualization and for approximating standard-cell positions before
detailed placement), and optional per-level traces for the multi-level
evolution figure (Fig. 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.geometry.orientation import Orientation
from repro.geometry.rect import Point, Rect
from repro.netlist.flatten import FlatDesign, PATH_SEP


@dataclass
class PlacedMacro:
    """One macro's final placement."""

    cell_index: int
    path: str
    rect: Rect
    orientation: Orientation = Orientation.N

    def pin_position(self, flat: FlatDesign, pin: str, bit: int = 0) -> Point:
        """Absolute position of a pin bit under the placed orientation."""
        ctype = flat.cells[self.cell_index].ctype
        px, py = ctype.pin_as_drawn(pin, bit)
        ox, oy = self.orientation.pin_offset(px, py,
                                             ctype.width, ctype.height)
        return Point(self.rect.x + ox, self.rect.y + oy)


@dataclass
class LevelTrace:
    """Snapshot of one recursion level (drives the Fig. 1 evolution)."""

    depth: int
    level_path: str
    region: Rect
    block_names: List[str]
    block_rects: List[Rect]
    block_macro_counts: List[int]
    cost: float
    penalty: float


@dataclass
class MacroPlacement:
    """The output of a macro-placement flow."""

    design_name: str
    flow_name: str
    die: Rect
    macros: Dict[int, PlacedMacro] = field(default_factory=dict)
    block_rects: Dict[str, Rect] = field(default_factory=dict)
    traces: List[LevelTrace] = field(default_factory=list)
    runtime_seconds: float = 0.0

    # -- geometry helpers ---------------------------------------------------

    def macro_rects(self) -> List[Rect]:
        return [m.rect for m in self.macros.values()]

    def region_of_cell(self, flat: FlatDesign, cell_index: int) -> Rect:
        """Innermost placed block rectangle containing a cell.

        Standard cells are not placed by macro placement; before
        detailed placement their best position estimate is the deepest
        hierarchy block rectangle recorded for their module path.
        Falls back to the die.
        """
        path = flat.cells[cell_index].module_path
        while True:
            rect = self.block_rects.get(path)
            if rect is not None:
                return rect
            if not path:
                return self.die
            if PATH_SEP in path:
                path = path.rsplit(PATH_SEP, 1)[0]
            else:
                path = ""

    def macro_overlap_area(self) -> float:
        """Total pairwise macro overlap; 0 for a legal placement."""
        from repro.geometry.rect import total_overlap_area
        return total_overlap_area(self.macro_rects())

    def macros_inside_die(self, tol: float = 1e-6) -> bool:
        return all(self.die.contains_rect(m.rect, tol)
                   for m in self.macros.values())

    def summary(self) -> str:
        return (f"{self.flow_name}({self.design_name}): "
                f"{len(self.macros)} macros placed, "
                f"overlap={self.macro_overlap_area():.1f}, "
                f"{self.runtime_seconds:.1f}s")
