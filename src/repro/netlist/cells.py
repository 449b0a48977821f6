"""Leaf cell types: macros, flops and combinational cells.

A :class:`CellType` is the immutable library view of a leaf cell.  Macros
carry physical dimensions and pin geometry (which side of the macro each
pin sits on and where along that side), because the flipping post-pass
needs real pin positions to reduce wirelength.  Standard cells only carry
an area.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple


class Direction(Enum):
    """Pin / port direction."""

    IN = "input"
    OUT = "output"


class CellKind(Enum):
    """The three leaf-cell families the paper's graphs distinguish."""

    MACRO = "macro"
    FLOP = "flop"
    COMB = "comb"


class Side(Enum):
    """Macro side a pin is placed on (as-drawn orientation)."""

    WEST = "W"
    EAST = "E"
    NORTH = "N"
    SOUTH = "S"


@dataclass(frozen=True)
class PortDef:
    """A (possibly multi-bit) port of a module or leaf cell."""

    name: str
    direction: Direction
    width: int = 1

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"port {self.name}: width must be >= 1")


@dataclass(frozen=True)
class PinGeometry:
    """Where a macro pin sits: side + fractional position along it."""

    side: Side
    offset: float  # in [0, 1] along the side, from the lower/left end

    def as_drawn(self, w: float, h: float) -> Tuple[float, float]:
        """Offset from the macro's lower-left corner in orientation N."""
        if self.side is Side.WEST:
            return (0.0, self.offset * h)
        if self.side is Side.EAST:
            return (w, self.offset * h)
        if self.side is Side.SOUTH:
            return (self.offset * w, 0.0)
        return (self.offset * w, h)


@dataclass(frozen=True)
class CellType:
    """An immutable leaf-cell library element."""

    name: str
    kind: CellKind
    area: float
    ports: Tuple[PortDef, ...]
    width: float = 0.0    # macros only
    height: float = 0.0   # macros only
    pin_geometry: Optional[Dict[str, PinGeometry]] = field(default=None)

    def __post_init__(self) -> None:
        if self.kind is CellKind.MACRO and (self.width <= 0 or self.height <= 0):
            raise ValueError(f"macro {self.name} needs positive dimensions")
        names = [p.name for p in self.ports]
        if len(names) != len(set(names)):
            raise ValueError(f"cell {self.name}: duplicate port names")

    @property
    def is_macro(self) -> bool:
        return self.kind is CellKind.MACRO

    @property
    def is_sequential(self) -> bool:
        return self.kind is CellKind.FLOP

    def port(self, name: str) -> PortDef:
        for p in self.ports:
            if p.name == name:
                return p
        raise KeyError(f"cell {self.name} has no port {name!r}")

    def pin_as_drawn(self, pin: str, bit: int = 0) -> Tuple[float, float]:
        """Pin offset (orientation N) from the macro lower-left corner.

        Multi-bit macro ports spread their bits evenly along the pin's
        side around the port's geometric anchor.
        """
        if not self.is_macro:
            raise ValueError(f"{self.name} is not a macro")
        geometry = (self.pin_geometry or {}).get(pin)
        if geometry is None:
            # Default: everything at the middle of the west side.
            geometry = PinGeometry(Side.WEST, 0.5)
        width = self.port(pin).width
        if width > 1:
            # Spread bits across +-10% of the side around the anchor.
            frac = geometry.offset + 0.2 * (bit / (width - 1) - 0.5)
            frac = min(1.0, max(0.0, frac))
            geometry = PinGeometry(geometry.side, frac)
        return geometry.as_drawn(self.width, self.height)


def macro_cell(name: str, width: float, height: float,
               ports: List[PortDef],
               pin_geometry: Optional[Dict[str, PinGeometry]] = None
               ) -> CellType:
    """Convenience constructor for a macro cell type."""
    return CellType(name=name, kind=CellKind.MACRO, area=width * height,
                    ports=tuple(ports), width=width, height=height,
                    pin_geometry=pin_geometry)


def flop_cell(name: str = "DFF", area: float = 1.0) -> CellType:
    """A single-bit D flip-flop."""
    ports = (PortDef("d", Direction.IN), PortDef("q", Direction.OUT),
             PortDef("clk", Direction.IN))
    return CellType(name=name, kind=CellKind.FLOP, area=area, ports=ports)


def comb_cell(name: str = "COMB2", n_inputs: int = 2,
              area: float = 0.6) -> CellType:
    """A generic n-input combinational cell with one output."""
    ports = tuple(PortDef(f"a{i}", Direction.IN) for i in range(n_inputs))
    ports = ports + (PortDef("z", Direction.OUT),)
    return CellType(name=name, kind=CellKind.COMB, area=area, ports=ports)


#: A small default library shared by tests and the design generator.
DEFAULT_FLOP = flop_cell()
DEFAULT_COMB = comb_cell()
DEFAULT_COMB1 = comb_cell("COMB1", n_inputs=1, area=0.4)
DEFAULT_COMB3 = comb_cell("COMB3", n_inputs=3, area=0.9)
