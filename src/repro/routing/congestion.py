"""Probabilistic global routing and the GRC% congestion metric.

:func:`estimate_congestion` runs the NumPy kernel
(:mod:`repro.metrics`): it locates every endpoint from compiled
:class:`~repro.metrics.netarrays.NetArrays` and rasterizes all chain
segments onto the :class:`~repro.routing.grid.RoutingGrid` in one
vectorized pass (:meth:`~repro.routing.grid.RoutingGrid.add_l_routes`);
:func:`congestion_reference` keeps the original per-net loop as the
``python`` oracle.  Demand weights are exact halves, so both fill
bit-identical demand rasters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.result import MacroPlacement
from repro.geometry.rect import Point
from repro.netlist.flatten import FlatDesign
from repro.placement.stdcell import CellPlacement
from repro.routing.grid import RoutingGrid


@dataclass
class CongestionReport:
    """Congestion summary for one placed design."""

    grc_percent: float            # overflow / capacity * 100
    hot_fraction: float           # fraction of overflowed g-cells
    grid: RoutingGrid

    def __repr__(self) -> str:
        return (f"CongestionReport(GRC={self.grc_percent:.2f}%, "
                f"hot={100 * self.hot_fraction:.1f}% gcells)")


def congestion_report_from(grid: RoutingGrid) -> CongestionReport:
    """Summarize an already-filled demand raster (shared by backends)."""
    capacity = max(grid.capacity_total(), 1e-12)
    return CongestionReport(
        grc_percent=100.0 * grid.overflow_total() / capacity,
        hot_fraction=grid.overflowed_gcell_fraction(),
        grid=grid)


def _net_points(flat: FlatDesign, net, placement: MacroPlacement,
                cells: CellPlacement,
                port_positions: Dict[str, Point]) -> List[Point]:
    points: List[Point] = []
    for cell_index, pin, bit in net.endpoints:
        cell = flat.cells[cell_index]
        if cell.is_macro:
            placed = placement.macros.get(cell_index)
            if placed is not None:
                points.append(placed.pin_position(flat, pin, bit))
        else:
            pos = cells.cell_pos(cell_index)
            if pos is not None:
                points.append(pos)
    for port_name, _bit in net.top_ports:
        pos = port_positions.get(port_name)
        if pos is not None:
            points.append(pos)
    return points


def estimate_congestion(flat: FlatDesign, placement: MacroPlacement,
                        cells: CellPlacement,
                        port_positions: Dict[str, Point],
                        bins: int = 32,
                        backend=None, arrays=None) -> CongestionReport:
    """Route every net probabilistically and report overflow.

    Multi-pin nets are decomposed into a chain over the x-sorted pins (a
    cheap Steiner surrogate); each 2-pin segment spreads demand over its
    two L routes.  Nets with fewer than two located endpoints are
    skipped (the degenerate-net guard shared by every backend).

    Runs the NumPy kernel; ``backend`` lets tests substitute another
    :class:`~repro.metrics.RefereeBackend` instance (the python
    oracle).  ``arrays`` optionally passes pre-compiled
    :class:`~repro.metrics.netarrays.NetArrays`.
    """
    from repro.metrics import NumpyBackend

    return (backend or NumpyBackend()).congestion(
        flat, placement, cells, port_positions, bins=bins, arrays=arrays)


def congestion_reference(flat: FlatDesign, placement: MacroPlacement,
                         cells: CellPlacement,
                         port_positions: Dict[str, Point],
                         bins: int = 32) -> CongestionReport:
    """The per-net reference loop (the python oracle's kernel)."""
    grid = RoutingGrid.build(placement.die,
                             (m.rect for m in placement.macros.values()),
                             bins=bins)
    for net in flat.nets:
        points = _net_points(flat, net, placement, cells, port_positions)
        if len(points) < 2:
            continue
        points.sort(key=lambda p: (p.x, p.y))
        for a, b in zip(points, points[1:]):
            grid.add_l_route(a.x, a.y, b.x, b.y, 1.0)
    return congestion_report_from(grid)
