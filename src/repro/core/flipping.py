"""Macro flipping: the orientation post-pass (Algorithm 1, line 6).

Once macro locations are fixed, each macro can still be mirrored inside
its footprint.  Pin positions move with the orientation, so choosing
flips well shortens the nets attached to macro pins ("macro side
dataflow").  The pass greedily sweeps the macros, picking for each the
footprint-preserving orientation minimizing the HPWL of its incident
nets, until a sweep changes nothing.

:func:`flip_macros` runs over the design's compiled
:class:`~repro.metrics.netarrays.NetArrays`: every point no flip can
move (standard cells and unplaced macros at their block-rect centre,
placed top ports) collapses into one static bounding box per net, and
each macro scores all four footprint-preserving orientations at once
with segmented min/max reductions over its incident nets.  The
original per-net loop (:func:`_flip_macros_loop`) is kept as the
equivalence oracle; both make bit-identical decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.result import MacroPlacement
from repro.geometry.orientation import Orientation
from repro.geometry.rect import Point
from repro.metrics.netarrays import (
    _ORIENT_COEF,
    KIND_MACRO,
    KIND_PORT,
    KIND_STD,
    NetArrays,
    net_arrays_for,
)
from repro.netlist.flatten import FlatDesign

#: Greedy sweeps over every macro; both :func:`flip_macros` and its
#: oracle :func:`_flip_macros_loop` stop after this many.
MAX_PASSES = 4


@dataclass
class _FlipNet:
    """One flat net touching at least one macro pin."""

    static_points: List[Point] = field(default_factory=list)
    macro_pins: List[Tuple[int, str, int]] = field(default_factory=list)

    def interesting(self) -> bool:
        return bool(self.macro_pins) and (
            len(self.macro_pins) + len(self.static_points) >= 2)


def _collect_nets(flat: FlatDesign, placement: MacroPlacement,
                  port_positions: Dict[str, Point]) -> List[_FlipNet]:
    nets: List[_FlipNet] = []
    for net in flat.nets:
        fn = _FlipNet()
        for cell_index, pin, bit in net.endpoints:
            cell = flat.cells[cell_index]
            if cell.is_macro and cell_index in placement.macros:
                fn.macro_pins.append((cell_index, pin, bit))
            else:
                region = placement.region_of_cell(flat, cell_index)
                fn.static_points.append(region.center)
        for port_name, _bit in net.top_ports:
            pos = port_positions.get(port_name)
            if pos is not None:
                fn.static_points.append(pos)
        if fn.interesting():
            nets.append(fn)
    return nets


def _net_hpwl(fn: _FlipNet, flat: FlatDesign,
              placement: MacroPlacement) -> float:
    xs: List[float] = []
    ys: List[float] = []
    for p in fn.static_points:
        xs.append(p.x)
        ys.append(p.y)
    for cell_index, pin, bit in fn.macro_pins:
        pos = placement.macros[cell_index].pin_position(flat, pin, bit)
        xs.append(pos.x)
        ys.append(pos.y)
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def _flip_macros_loop(flat: FlatDesign, placement: MacroPlacement,
                      port_positions: Optional[Dict[str, Point]] = None
                      ) -> int:
    """The per-net reference pass: the oracle :func:`flip_macros` must
    match decision for decision (kept for tests only)."""
    port_positions = port_positions or {}
    nets = _collect_nets(flat, placement, port_positions)
    nets_of_macro: Dict[int, List[_FlipNet]] = {}
    for fn in nets:
        for cell_index, _pin, _bit in fn.macro_pins:
            nets_of_macro.setdefault(cell_index, []).append(fn)

    total_flips = 0
    for _sweep in range(MAX_PASSES):
        changed = False
        for cell_index in sorted(placement.macros):
            incident = nets_of_macro.get(cell_index)
            if not incident:
                continue
            placed = placement.macros[cell_index]
            start_orient = placed.orientation
            best_orient = start_orient
            best_cost = sum(_net_hpwl(fn, flat, placement)
                            for fn in incident)
            for orient in Orientation.flips_of(start_orient):
                if orient is start_orient:
                    continue
                placed.orientation = orient
                cost = sum(_net_hpwl(fn, flat, placement)
                           for fn in incident)
                if cost < best_cost - 1e-9:
                    best_cost = cost
                    best_orient = orient
            placed.orientation = best_orient
            if best_orient is not start_orient:
                changed = True
                total_flips += 1
        if not changed:
            break
    return total_flips


# -- the array pass ------------------------------------------------------------


def _static_boxes(arrays: NetArrays, flat: FlatDesign,
                  placement: MacroPlacement, placed_slot: np.ndarray,
                  port_positions: Dict[str, Point]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-net bounding box of the points no flip can move.

    Returns ``(box, count)``: ``box`` is ``(lo_x, hi_x, lo_y, hi_y)`` by
    net (``+-inf`` where a net has no static point), ``count`` the
    number of static points by net.  Cell rows (standard cells and
    unplaced macros) sit at their block-rect centre, looked up once per
    module path; port rows at their assigned position, and ports
    without one are dropped.
    """
    kind, ref = arrays.kind, arrays.ref
    macro_rows = kind == KIND_MACRO
    slot = np.where(macro_rows, ref, 0)
    cell_rows = np.flatnonzero((kind == KIND_STD)
                               | (macro_rows & ~placed_slot[slot]))
    cell_of_row = np.where(macro_rows, arrays.macro_cells[slot], ref)
    cells, inverse = np.unique(cell_of_row[cell_rows], return_inverse=True)
    centre_of_path: Dict[str, Point] = {}
    cell_x = np.empty(len(cells))
    cell_y = np.empty(len(cells))
    for i, cell_index in enumerate(cells.tolist()):
        path = flat.cells[cell_index].module_path
        centre = centre_of_path.get(path)
        if centre is None:
            centre = placement.region_of_cell(flat, cell_index).center
            centre_of_path[path] = centre
        cell_x[i] = centre.x
        cell_y[i] = centre.y

    n_ports = len(arrays.port_names)
    port_x = np.zeros(n_ports)
    port_y = np.zeros(n_ports)
    known = np.zeros(n_ports, dtype=bool)
    for port, name in enumerate(arrays.port_names):
        pos = port_positions.get(name)
        if pos is not None:
            known[port] = True
            port_x[port] = pos.x
            port_y[port] = pos.y
    port_rows = np.flatnonzero(kind == KIND_PORT)
    port_rows = port_rows[known[ref[port_rows]]]

    net = arrays.net_of_row[np.concatenate([cell_rows, port_rows])]
    x = np.concatenate([cell_x[inverse], port_x[ref[port_rows]]])
    y = np.concatenate([cell_y[inverse], port_y[ref[port_rows]]])
    box = np.empty((4, arrays.n_nets))
    box[0::2] = np.inf
    box[1::2] = -np.inf
    np.minimum.at(box[0], net, x)
    np.maximum.at(box[1], net, x)
    np.minimum.at(box[2], net, y)
    np.maximum.at(box[3], net, y)
    return box, np.bincount(net, minlength=arrays.n_nets)


def _pin_positions(ox: float, oy: float, orients, px: np.ndarray,
                   py: np.ndarray, w: float, h: float
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Pin positions under each of ``orients``, shape ``(len, pins)``.

    The operation order is that of
    :func:`~repro.metrics.netarrays.locate_endpoints`, which is
    bit-identical to :meth:`~repro.core.result.PlacedMacro.pin_position`.
    """
    coef = np.array([_ORIENT_COEF[o] for o in orients])[:, :, None]
    off_x = coef[:, 2] * w + coef[:, 3] * h
    off_y = coef[:, 6] * w + coef[:, 7] * h
    x = ox + (coef[:, 0] * px + coef[:, 1] * py + off_x)
    y = oy + (coef[:, 4] * px + coef[:, 5] * py + off_y)
    return x, y


@dataclass
class _MacroNets:
    """One placed macro's incident nets, as gathers into the pin arrays.

    ``pins`` indexes every movable pin on the incident ``nets``
    (net-major, so ``starts`` delimits one segment per net); ``own``
    picks this macro's pins out of ``pins`` and ``own_pins`` is the
    same set as indices into the pin arrays; ``incident`` lists, per own
    pin, its net's segment — a net holding several pins of the macro
    counts once per pin, in net order.  ``cand_x``/``cand_y`` hold the
    own pins' positions under each of ``orients``.
    """

    nets: np.ndarray
    pins: np.ndarray
    starts: np.ndarray
    own: np.ndarray
    own_pins: np.ndarray
    incident: np.ndarray
    orients: Tuple[Orientation, ...]
    cand_x: np.ndarray
    cand_y: np.ndarray


def _compile_macros(arrays: NetArrays, placement: MacroPlacement,
                    placed_slot: np.ndarray, n_static: np.ndarray):
    """``(by_cell, pin_x, pin_y)``: each flippable macro's
    :class:`_MacroNets` and the current positions of every movable pin
    (placed-macro rows on nets with at least two located points)."""
    macro_rows = np.flatnonzero(arrays.kind == KIND_MACRO)
    pin_rows = macro_rows[placed_slot[arrays.ref[macro_rows]]]
    pin_net = arrays.net_of_row[pin_rows]
    n_points = n_static + np.bincount(pin_net, minlength=arrays.n_nets)
    pin_rows = pin_rows[n_points[pin_net] >= 2]
    pin_net = arrays.net_of_row[pin_rows]
    pin_slot = arrays.ref[pin_rows]

    pin_x = np.empty(len(pin_rows))
    pin_y = np.empty(len(pin_rows))
    by_cell: Dict[int, _MacroNets] = {}
    on_net = np.zeros(arrays.n_nets, dtype=bool)
    for slot in np.unique(pin_slot).tolist():
        cell_index = int(arrays.macro_cells[slot])
        placed = placement.macros[cell_index]
        own_pins = np.flatnonzero(pin_slot == slot)
        nets = np.unique(pin_net[own_pins])
        on_net[nets] = True
        pins = np.flatnonzero(on_net[pin_net])
        on_net[nets] = False
        seg = np.searchsorted(nets, pin_net[pins])
        own = np.searchsorted(pins, own_pins)
        orients = Orientation.flips_of(placed.orientation)
        own_rows = pin_rows[own_pins]
        cand_x, cand_y = _pin_positions(
            placed.rect.x, placed.rect.y, orients,
            arrays.pin_dx[own_rows], arrays.pin_dy[own_rows],
            float(arrays.macro_w[slot]), float(arrays.macro_h[slot]))
        now = orients.index(placed.orientation)
        pin_x[own_pins] = cand_x[now]
        pin_y[own_pins] = cand_y[now]
        by_cell[cell_index] = _MacroNets(
            nets=nets, pins=pins,
            starts=np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]]),
            own=own, own_pins=own_pins, incident=seg[own],
            orients=orients, cand_x=cand_x, cand_y=cand_y)
    return by_cell, pin_x, pin_y


def flip_macros(flat: FlatDesign, placement: MacroPlacement,
                port_positions: Optional[Dict[str, Point]] = None
                ) -> int:
    """Greedily flip macros to reduce incident-net HPWL.

    Mutates orientations in ``placement``; returns the number of
    orientation changes applied.  Footprints never change, so the
    placement stays geometrically identical apart from pin positions.
    """
    arrays = net_arrays_for(flat)
    placed_slot = np.array([c in placement.macros
                            for c in arrays.macro_cells.tolist()],
                           dtype=bool)
    if not placed_slot.any():
        return 0
    box, n_static = _static_boxes(arrays, flat, placement, placed_slot,
                                  port_positions or {})
    by_cell, pin_x, pin_y = _compile_macros(arrays, placement,
                                            placed_slot, n_static)

    total_flips = 0
    for _sweep in range(MAX_PASSES):
        changed = False
        for cell_index in sorted(placement.macros):
            m = by_cell.get(cell_index)
            if m is None:
                continue
            placed = placement.macros[cell_index]
            start_orient = placed.orientation
            costs = _orientation_costs(m, pin_x, pin_y, box)
            best = m.orients.index(start_orient)
            best_cost = costs[best]
            for i, orient in enumerate(m.orients):
                if orient is start_orient:
                    continue
                if costs[i] < best_cost - 1e-9:
                    best_cost = costs[i]
                    best = i
            if m.orients[best] is not start_orient:
                placed.orientation = m.orients[best]
                pin_x[m.own_pins] = m.cand_x[best]
                pin_y[m.own_pins] = m.cand_y[best]
                changed = True
                total_flips += 1
        if not changed:
            break
    return total_flips


def _orientation_costs(m: _MacroNets, pin_x: np.ndarray,
                       pin_y: np.ndarray, box: np.ndarray) -> List[float]:
    """Incident-net HPWL of one macro under each of ``m.orients``.

    Each net's length is exact (min/max only), and the per-pin lengths
    are summed with builtin ``sum`` in incident order, as the loop does,
    so the costs are bit-identical to the oracle's.
    """
    n = len(m.orients)
    xs = np.repeat(pin_x[m.pins][None, :], n, axis=0)
    ys = np.repeat(pin_y[m.pins][None, :], n, axis=0)
    xs[:, m.own] = m.cand_x
    ys[:, m.own] = m.cand_y
    lo_x, hi_x, lo_y, hi_y = box[:, m.nets]
    width = (np.maximum(np.maximum.reduceat(xs, m.starts, axis=1), hi_x)
             - np.minimum(np.minimum.reduceat(xs, m.starts, axis=1), lo_x))
    height = (np.maximum(np.maximum.reduceat(ys, m.starts, axis=1), hi_y)
              - np.minimum(np.minimum.reduceat(ys, m.starts, axis=1), lo_y))
    lengths = (width + height)[:, m.incident]
    return [sum(row) for row in lengths.tolist()]
