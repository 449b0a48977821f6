"""Chip port positions.

Macro placement treats top-level ports as fixed points.  Physical port
locations are not part of the paper's input model, so this reproduction
assigns them deterministically: ports are spread evenly around the die
perimeter in declaration order (inputs starting from the west edge,
outputs from the east edge), which is the common default of floorplan
initializers.  All flows share the same assignment, keeping comparisons
fair.
"""

from __future__ import annotations

from typing import Dict, List

from repro.geometry.rect import Point, Rect
from repro.netlist.cells import Direction
from repro.netlist.core import Design


def _perimeter_point(die: Rect, t: float) -> Point:
    """Point at parameter ``t`` in [0,1) walking the perimeter ccw from
    the lower-left corner."""
    perimeter = 2.0 * (die.w + die.h)
    s = (t % 1.0) * perimeter
    if s < die.w:
        return Point(die.x + s, die.y)
    s -= die.w
    if s < die.h:
        return Point(die.x2, die.y + s)
    s -= die.h
    if s < die.w:
        return Point(die.x2 - s, die.y2)
    s -= die.w
    return Point(die.x, die.y2 - s)


def assign_port_positions(design: Design, die: Rect) -> Dict[str, Point]:
    """Deterministic port placement on the die boundary.

    Inputs are spread over the left half of the perimeter walk
    (west/south edges first), outputs over the right half, mirroring the
    data-enters-left / data-leaves-right convention of the synthetic
    designs.
    """
    inputs: List[str] = []
    outputs: List[str] = []
    for port in design.top.ports.values():
        if port.direction is Direction.IN:
            inputs.append(port.name)
        else:
            outputs.append(port.name)

    positions: Dict[str, Point] = {}
    for names, (start, span) in ((inputs, (0.60, 0.40)),
                                 (outputs, (0.10, 0.40))):
        # Inputs walk the west edge upward (t in [0.6, 1.0)); outputs
        # walk the east edge upward (t in [0.1, 0.5)).
        n = len(names)
        for i, name in enumerate(names):
            t = start + span * ((i + 0.5) / n)
            positions[name] = _perimeter_point(die, t)
    return positions
