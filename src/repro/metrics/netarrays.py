"""Array-compiled netlists: the referee's CSR view of a flat design.

The evaluation referee used to walk ``FlatDesign.nets`` with pure
Python loops for every metric.  A :class:`NetArrays` record lowers the
netlist once into flat NumPy columns — CSR net→row offsets plus one row
per endpoint (macro pin, standard cell, or top port) — so the batched
kernels in :mod:`repro.metrics.numpy_backend` can evaluate every net at
once.  The compile is placement-independent: macro rows carry the
"as drawn" pin offset and a dense macro *slot*, and only the small
per-slot transforms (origin + orientation coefficients) are rebuilt per
placement by :func:`locate_endpoints`.

Compilation is cached on the :class:`~repro.netlist.flatten.FlatDesign`
instance itself (see :func:`net_arrays_for`), so every flow, baseline
and parallel suite worker that shares a prepared design also shares the
compiled arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.result import MacroPlacement
from repro.geometry.rect import Point
from repro.geometry.orientation import Orientation
from repro.netlist.flatten import FlatDesign
from repro.placement.stdcell import CellPlacement

#: Endpoint-row kinds.
KIND_STD = 0
KIND_MACRO = 1
KIND_PORT = 2

#: Orientation → pin-offset transform coefficients.  A pin drawn at
#: ``(px, py)`` inside a ``w``-by-``h`` macro lands at
#: ``ax*px + bx*py + (cw_x*w + ch_x*h)`` (and the y analogue) inside
#: the oriented footprint — the linear form of
#: :meth:`repro.geometry.orientation.Orientation.pin_offset`, chosen so
#: the vectorized evaluation is bit-identical to the scalar one.
_ORIENT_COEF: Dict[Orientation, Tuple[float, ...]] = {
    #                ax    bx   cwx chx   ay    by   cwy chy
    Orientation.N:  (1.0,  0.0, 0.0, 0.0, 0.0,  1.0, 0.0, 0.0),
    Orientation.FN: (-1.0, 0.0, 1.0, 0.0, 0.0,  1.0, 0.0, 0.0),
    Orientation.S:  (-1.0, 0.0, 1.0, 0.0, 0.0, -1.0, 0.0, 1.0),
    Orientation.FS: (1.0,  0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0),
    Orientation.E:  (0.0,  1.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0),
    Orientation.FE: (0.0,  1.0, 0.0, 0.0, 1.0,  0.0, 0.0, 0.0),
    Orientation.W:  (0.0, -1.0, 0.0, 1.0, 1.0,  0.0, 0.0, 0.0),
    Orientation.FW: (0.0, -1.0, 0.0, 1.0, -1.0, 0.0, 1.0, 0.0),
}


@dataclass(frozen=True)
class NetArrays:
    """CSR arrays over every flat bit net's endpoints.

    Row ``r`` belongs to net ``net_of_row[r]``; net ``n`` owns rows
    ``net_offsets[n]:net_offsets[n+1]`` (cell endpoints first, then top
    ports, matching the reference loops' visit order).  ``ref`` is a
    flat cell index for standard-cell rows, a dense macro slot for
    macro rows, and a port slot for port rows; ``pin_dx``/``pin_dy``
    are the as-drawn macro pin offsets (zero on non-macro rows).
    """

    n_nets: int
    n_cells: int
    net_offsets: np.ndarray      # (n_nets + 1,) int64
    net_of_row: np.ndarray       # (n_rows,) int64
    kind: np.ndarray             # (n_rows,) int8 — KIND_STD/MACRO/PORT
    ref: np.ndarray              # (n_rows,) int64
    pin_dx: np.ndarray           # (n_rows,) float64
    pin_dy: np.ndarray           # (n_rows,) float64
    macro_cells: np.ndarray      # (n_macro_slots,) int64 flat cell index
    macro_w: np.ndarray          # (n_macro_slots,) float64 as-drawn width
    macro_h: np.ndarray          # (n_macro_slots,) float64 as-drawn height
    port_names: Tuple[str, ...]  # port slot → top port name

    @property
    def n_rows(self) -> int:
        return int(self.net_of_row.shape[0])

    def __repr__(self) -> str:
        return (f"NetArrays({self.n_nets} nets, {self.n_rows} rows, "
                f"{len(self.macro_cells)} macro slots, "
                f"{len(self.port_names)} ports)")


def compile_net_arrays(flat: FlatDesign) -> NetArrays:
    """Lower ``flat`` into :class:`NetArrays` (one pass over the nets)."""
    kinds: list = []
    refs: list = []
    pdx: list = []
    pdy: list = []
    offsets = [0]
    net_of_row: list = []
    macro_slots: Dict[int, int] = {}
    port_slots: Dict[str, int] = {}

    cells = flat.cells
    for net in flat.nets:
        net_index = len(offsets) - 1
        for cell_index, pin, bit in net.endpoints:
            cell = cells[cell_index]
            if cell.is_macro:
                slot = macro_slots.setdefault(cell_index, len(macro_slots))
                px, py = cell.ctype.pin_as_drawn(pin, bit)
                kinds.append(KIND_MACRO)
                refs.append(slot)
                pdx.append(px)
                pdy.append(py)
            else:
                kinds.append(KIND_STD)
                refs.append(cell_index)
                pdx.append(0.0)
                pdy.append(0.0)
            net_of_row.append(net_index)
        for port_name, _bit in net.top_ports:
            slot = port_slots.setdefault(port_name, len(port_slots))
            kinds.append(KIND_PORT)
            refs.append(slot)
            pdx.append(0.0)
            pdy.append(0.0)
            net_of_row.append(net_index)
        offsets.append(len(kinds))

    macro_cell_indices = np.fromiter(
        macro_slots.keys(), dtype=np.int64, count=len(macro_slots))
    macro_w = np.array([cells[i].ctype.width for i in macro_slots],
                       dtype=np.float64)
    macro_h = np.array([cells[i].ctype.height for i in macro_slots],
                       dtype=np.float64)
    return NetArrays(
        n_nets=len(flat.nets),
        n_cells=len(cells),
        net_offsets=np.asarray(offsets, dtype=np.int64),
        net_of_row=np.asarray(net_of_row, dtype=np.int64),
        kind=np.asarray(kinds, dtype=np.int8),
        ref=np.asarray(refs, dtype=np.int64),
        pin_dx=np.asarray(pdx, dtype=np.float64),
        pin_dy=np.asarray(pdy, dtype=np.float64),
        macro_cells=macro_cell_indices,
        macro_w=macro_w,
        macro_h=macro_h,
        port_names=tuple(port_slots))


def flat_fingerprint(flat: FlatDesign) -> Tuple[int, int, int]:
    """Staleness check for the caches kept on a flat design.

    ``(cells, nets, endpoint rows)``: the compiled arrays here and the
    clustered netlist (:func:`repro.placement.cluster.clustered_for`)
    are rebuilt when any of the three changes.
    """
    rows = sum(  # repro: noqa[REP003] integer count, exact in any order
        len(net.endpoints) + len(net.top_ports) for net in flat.nets)
    return (len(flat.cells), len(flat.nets), rows)


def net_arrays_for(flat: FlatDesign) -> NetArrays:
    """The compiled arrays for ``flat``, built once and cached on it.

    The cache is invalidated when the design's net/cell counts change
    (tests sometimes append nets to a flat design by hand); deeper
    mutations require dropping ``flat._net_arrays`` manually.

    The ``prepare.net_arrays`` span fires only on an actual compile —
    a cache hit (including arrays unpickled from a compiled-design
    store entry) records nothing.
    """
    from repro.obs import current_tracer

    fingerprint = flat_fingerprint(flat)
    cached = getattr(flat, "_net_arrays", None)
    if cached is not None and cached[0] == fingerprint:
        return cached[1]
    with current_tracer().span("prepare.net_arrays",
                               design=flat.top.name):
        arrays = compile_net_arrays(flat)
    flat._net_arrays = (fingerprint, arrays)
    return arrays


def locate_endpoints(arrays: NetArrays, placement: MacroPlacement,
                     cells: CellPlacement,
                     port_positions: Dict[str, Point]
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
    """Materialize endpoint coordinates for one placement.

    Returns ``(x, y, located, macro_located)`` aligned with the rows of
    ``arrays``.  Unlocated rows (unplaced macros, unclustered cells,
    unknown ports) hold zeros and are masked out — every coordinate of
    a located row is bit-identical to what the scalar reference code
    (``PlacedMacro.pin_position`` / ``CellPlacement.cell_pos`` /
    ``port_positions[name]``) computes.
    """
    n = arrays.n_rows
    x = np.zeros(n)
    y = np.zeros(n)
    located = np.zeros(n, dtype=bool)

    # -- macro rows: per-slot origin + orientation transform ---------------
    n_slots = len(arrays.macro_cells)
    if n_slots:
        origin_x = np.zeros(n_slots)
        origin_y = np.zeros(n_slots)
        coef = np.zeros((n_slots, 8))
        placed_mask = np.zeros(n_slots, dtype=bool)
        for slot, cell_index in enumerate(arrays.macro_cells.tolist()):
            placed = placement.macros.get(cell_index)
            if placed is None:
                continue
            placed_mask[slot] = True
            origin_x[slot] = placed.rect.x
            origin_y[slot] = placed.rect.y
            coef[slot] = _ORIENT_COEF[placed.orientation]
        w, h = arrays.macro_w, arrays.macro_h
        off_cx = coef[:, 2] * w + coef[:, 3] * h
        off_cy = coef[:, 6] * w + coef[:, 7] * h

        rows = arrays.kind == KIND_MACRO
        slot = arrays.ref[rows]
        px = arrays.pin_dx[rows]
        py = arrays.pin_dy[rows]
        x[rows] = origin_x[slot] + (coef[slot, 0] * px
                                    + coef[slot, 1] * py + off_cx[slot])
        y[rows] = origin_y[slot] + (coef[slot, 4] * px
                                    + coef[slot, 5] * py + off_cy[slot])
        located[rows] = placed_mask[slot]
        macro_located = located.copy()
    else:
        macro_located = np.zeros(n, dtype=bool)

    # -- standard-cell rows: cluster-position gather ------------------------
    rows = arrays.kind == KIND_STD
    if rows.any():
        cluster_of_cell = cells.clustered.cell_cluster_array(
            arrays.n_cells)
        cluster = cluster_of_cell[arrays.ref[rows]]
        has_cluster = cluster >= 0
        safe = np.maximum(cluster, 0)
        if cells.x.shape[0]:
            x[rows] = np.where(has_cluster, cells.x[safe], 0.0)
            y[rows] = np.where(has_cluster, cells.y[safe], 0.0)
            located[rows] = has_cluster
        # else: no clusters were placed; every cell row stays unlocated.

    # -- port rows: name-slot gather ----------------------------------------
    rows = arrays.kind == KIND_PORT
    if rows.any():
        n_ports = len(arrays.port_names)
        port_x = np.zeros(n_ports)
        port_y = np.zeros(n_ports)
        port_mask = np.zeros(n_ports, dtype=bool)
        for slot, name in enumerate(arrays.port_names):
            pos = port_positions.get(name)
            if pos is None:
                continue
            port_mask[slot] = True
            port_x[slot] = pos.x
            port_y[slot] = pos.y
        slot = arrays.ref[rows]
        x[rows] = port_x[slot]
        y[rows] = port_y[slot]
        located[rows] = port_mask[slot]

    return x, y, located, macro_located
