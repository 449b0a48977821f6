"""Bit-level half-perimeter wirelength.

The paper reports wirelength in meters after cell placement.  We keep
abstract site units internally and convert with a nominal 1 unit = 1 µm
so tables read in familiar magnitudes; all comparisons are ratios, so
the conversion constant is cosmetic.

:func:`hpwl_report` runs the batched segmented-min/max NumPy kernel
(:mod:`repro.metrics`) over compiled
:class:`~repro.metrics.netarrays.NetArrays`; :func:`hpwl_reference`
keeps the original per-net loop as the ``python`` oracle.  Both return
bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.result import MacroPlacement
from repro.geometry.rect import Point
from repro.netlist.flatten import FlatDesign
from repro.placement.stdcell import CellPlacement

UNITS_PER_METER = 1e6      # 1 site unit == 1 um


@dataclass
class HpwlReport:
    """Wirelength totals."""

    total_units: float
    n_nets: int
    macro_net_units: float       # nets touching at least one macro pin

    @property
    def meters(self) -> float:
        return self.total_units / UNITS_PER_METER

    def __repr__(self) -> str:
        return f"HpwlReport({self.meters:.3f} m over {self.n_nets} nets)"


def hpwl_report(flat: FlatDesign, placement: MacroPlacement,
                cells: CellPlacement,
                port_positions: Dict[str, Point],
                backend=None, arrays=None) -> HpwlReport:
    """HPWL over every flat bit net with at least two located endpoints.

    Runs the NumPy kernel; ``backend`` lets tests substitute another
    :class:`~repro.metrics.RefereeBackend` instance (the python
    oracle).  ``arrays`` optionally passes pre-compiled
    :class:`~repro.metrics.netarrays.NetArrays` to skip the per-design
    compile cache lookup.
    """
    from repro.metrics import NumpyBackend

    return (backend or NumpyBackend()).hpwl(flat, placement, cells,
                                            port_positions,
                                            arrays=arrays)


def hpwl_reference(flat: FlatDesign, placement: MacroPlacement,
                   cells: CellPlacement,
                   port_positions: Dict[str, Point]) -> HpwlReport:
    """The per-net reference loop (the python oracle's kernel)."""
    total = 0.0
    macro_total = 0.0
    n_nets = 0
    for net in flat.nets:
        min_x = min_y = float("inf")
        max_x = max_y = float("-inf")
        located = 0
        has_macro = False
        for cell_index, pin, bit in net.endpoints:
            cell = flat.cells[cell_index]
            if cell.is_macro:
                placed = placement.macros.get(cell_index)
                if placed is None:
                    continue
                pos = placed.pin_position(flat, pin, bit)
                has_macro = True
            else:
                pos = cells.cell_pos(cell_index)
                if pos is None:
                    continue
            located += 1
            min_x = min(min_x, pos.x)
            max_x = max(max_x, pos.x)
            min_y = min(min_y, pos.y)
            max_y = max(max_y, pos.y)
        for port_name, _bit in net.top_ports:
            pos = port_positions.get(port_name)
            if pos is None:
                continue
            located += 1
            min_x = min(min_x, pos.x)
            max_x = max(max_x, pos.x)
            min_y = min(min_y, pos.y)
            max_y = max(max_y, pos.y)
        if located < 2:
            continue
        length = (max_x - min_x) + (max_y - min_y)
        total += length
        if has_macro:
            macro_total += length
        n_nets += 1
    return HpwlReport(total_units=total, n_nets=n_nets,
                      macro_net_units=macro_total)
