"""Shared machinery for the baseline flows.

Both baselines place macros with shelf packing against die walls and
refine the packing order greedily against a macro-affinity matrix; they
differ in what affinity they can see and in how the die is partitioned.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import MacroPlacement, PlacedMacro
from repro.geometry.orientation import Orientation
from repro.geometry.rect import Point, Rect
from repro.hiergraph.gdf import GdfNode, build_gdf
from repro.hiergraph.gseq import Gseq
from repro.netlist.flatten import FlatDesign


def macro_affinity_matrix(gseq: Gseq, flat: FlatDesign, lam: float,
                          latency_k: float
                          ) -> Tuple[List[int], List[List[float]],
                                     List[str]]:
    """Affinity between individual macros (and ports) via Gdf.

    Each macro is its own Gdf group, every port its own terminal group.
    Returns (macro cell indices, symmetric matrix over macros+ports,
    port names).  ``lam`` / ``latency_k`` control the blend exactly as
    in HiDaP, letting each baseline choose how much dataflow it sees.
    """
    macro_cells: List[int] = []
    groups: List[GdfNode] = []
    for node in gseq.nodes:
        if node.is_macro:
            groups.append(GdfNode(len(groups), node.name, "block",
                                  [node.index]))
            macro_cells.append(node.cells[0])
    port_names: List[str] = []
    for node in gseq.ports():
        groups.append(GdfNode(len(groups), node.name, "port",
                              [node.index]))
        port_names.append(node.name)

    gdf = build_gdf(gseq, groups)
    size = len(groups)
    matrix = [[0.0] * size for _ in range(size)]
    for (i, j), edge in gdf.edges.items():
        a = edge.affinity(lam, latency_k)
        matrix[i][j] += a
    return macro_cells, matrix, port_names


def pack_perimeter(die: Rect, dims: Sequence[Tuple[float, float]],
                   gap: float = 0.0) -> List[Rect]:
    """Shelf-pack rectangles around the die walls, ring by ring.

    Items are placed in order along W (bottom-up), N (left-right),
    E (bottom-up) and S (left-right); each is rotated so its longer
    side runs along the wall (minimal protrusion — the industrial
    style).  Each wall run reserves the corner belonging to the next
    wall (by the deepest item's protrusion), so walls never collide.
    When a ring fills up, the next ring starts inset by the deepest
    protrusion of the previous one.
    """
    placements: List[Optional[Rect]] = [None] * len(dims)
    remaining = list(range(len(dims)))
    inset = 0.0
    guard = 0
    while remaining and guard < 12:
        guard += 1
        reserve = max(min(dims[i]) for i in remaining) + gap
        # Per-wall cursor ranges; corner ownership: NW->N, NE->E,
        # SE->S, SW->W (see the reserve offsets).
        wall_ranges = {
            "W": (die.y + inset, die.y2 - inset - reserve),
            "N": (die.x + inset, die.x2 - inset - reserve),
            "E": (die.y + inset + reserve, die.y2 - inset),
            "S": (die.x + inset + reserve, die.x2 - inset),
        }
        ring_depth = 0.0
        index_in_ring = 0
        for wall in ("W", "N", "E", "S"):
            cursor, limit = wall_ranges[wall]
            while index_in_ring < len(remaining):
                item = remaining[index_in_ring]
                w, h = dims[item]
                along, depth = max(w, h), min(w, h)
                if cursor + along > limit + 1e-9:
                    break
                if wall == "W":
                    rect = Rect(die.x + inset, cursor, depth, along)
                elif wall == "E":
                    rect = Rect(die.x2 - inset - depth, cursor,
                                depth, along)
                elif wall == "N":
                    rect = Rect(cursor, die.y2 - inset - depth,
                                along, depth)
                else:
                    rect = Rect(cursor, die.y + inset, along, depth)
                placements[item] = rect
                ring_depth = max(ring_depth, depth)
                cursor += along + gap
                index_in_ring += 1
        placed_now = remaining[:index_in_ring]
        remaining = remaining[index_in_ring:]
        if not placed_now:
            break
        inset += ring_depth + gap

    # Anything still unplaced (pathological die): grid-fill the center
    # region inside the rings.
    if remaining:
        cx, cy = die.x + inset, die.y + inset
        row_h = 0.0
        for item in remaining:
            w, h = dims[item]
            if cx + w > die.x2 - inset and cx > die.x + inset:
                cx = die.x + inset
                cy += row_h
                row_h = 0.0
            placements[item] = Rect(cx, cy, w, h)
            cx += w
            row_h = max(row_h, h)
    return [r for r in placements]


def order_cost(order: Sequence[int], rects: Sequence[Rect],
               matrix: Sequence[Sequence[float]],
               port_pulls: Sequence[List[Tuple[Point, float]]]) -> float:
    """Affinity-weighted distance of a packing (macro indices in
    ``order`` occupy ``rects`` positionally); :class:`OrderCost` is
    the vectorized form the baselines use."""
    centers = [r.center for r in rects]
    pos_of = {m: centers[slot] for slot, m in enumerate(order)}
    total = 0.0
    n = len(order)
    for si in range(n):
        i = order[si]
        pi = pos_of[i]
        for sj in range(si + 1, n):
            j = order[sj]
            a = matrix[i][j] + matrix[j][i]
            if a > 0:
                total += a * pi.manhattan(pos_of[j])
        for p, a in port_pulls[i]:
            total += a * pi.manhattan(p)
    return total


class OrderCost:
    """:func:`order_cost` compiled for one ``matrix`` and ``port_pulls``.

    Every term is computed with the reference's IEEE expression and laid
    out in its visit order — slot ``si``'s pairs with the later slots,
    then its macro's port pulls — with exact zeros for skipped pairs and
    padding; the row-major sequence is reduced left to right, so a call
    is bit-identical to :func:`order_cost`.
    """

    def __init__(self, matrix: Sequence[Sequence[float]],
                 port_pulls: Sequence[List[Tuple[Point, float]]]):
        n = len(port_pulls)
        m = np.array(matrix, dtype=float, ndmin=2)[:n, :n]
        self._sym = m + m.T
        width = max((len(pulls) for pulls in port_pulls), default=0)
        self._port_a = np.zeros((n, width))
        self._port_x = np.zeros((n, width))
        self._port_y = np.zeros((n, width))
        for i, pulls in enumerate(port_pulls):
            for k, (p, a) in enumerate(pulls):
                self._port_a[i, k] = a
                self._port_x[i, k] = p.x
                self._port_y[i, k] = p.y

    def __call__(self, order: Sequence[int], rects: Sequence[Rect]
                 ) -> float:
        if not order:
            return 0.0
        slots = np.asarray(order, dtype=np.intp)
        cx = np.array([r.x + r.w / 2.0 for r in rects])
        cy = np.array([r.y + r.h / 2.0 for r in rects])
        a = self._sym[np.ix_(slots, slots)]
        dist = np.abs(cx[:, None] - cx) + np.abs(cy[:, None] - cy)
        pairs = np.triu(np.where(a > 0, a * dist, 0.0), 1)
        ports = self._port_a[slots] * (
            np.abs(cx[:, None] - self._port_x[slots])
            + np.abs(cy[:, None] - self._port_y[slots]))
        terms = np.concatenate([pairs, ports], axis=1).ravel()
        return float(np.add.accumulate(terms)[-1])


def refine_order(order: List[int],
                 repack,
                 matrix: Sequence[Sequence[float]],
                 port_pulls: Sequence[List[Tuple[Point, float]]],
                 passes: int = 4) -> Tuple[List[int], List[Rect]]:
    """Greedy order refinement: adjacent + stride-2 swap sweeps.

    ``repack(order)`` must return the rect list for an order.  Accepts
    any swap that lowers the cost; repeats up to ``passes`` sweeps.
    """
    cost_of = OrderCost(matrix, port_pulls)
    rects = repack(order)
    best_cost = cost_of(order, rects)
    n = len(order)
    for _ in range(passes):
        improved = False
        for stride in (1, 2):
            for a in range(n - stride):
                b = a + stride
                order[a], order[b] = order[b], order[a]
                cand_rects = repack(order)
                cost = cost_of(order, cand_rects)
                if cost < best_cost - 1e-9:
                    best_cost = cost
                    rects = cand_rects
                    improved = True
                else:
                    order[a], order[b] = order[b], order[a]
        if not improved:
            break
    return order, rects


def to_placement(flat: FlatDesign, die: Rect, order: Sequence[int],
                 rects: Sequence[Rect], macro_cells: Sequence[int],
                 flow_name: str, design_name: str) -> MacroPlacement:
    """Wrap an ordered packing into a MacroPlacement."""
    placement = MacroPlacement(design_name=design_name,
                               flow_name=flow_name, die=die)
    placement.block_rects[""] = die
    for slot, macro_pos in enumerate(order):
        cell_index = macro_cells[macro_pos]
        rect = rects[slot]
        cell = flat.cells[cell_index]
        swapped = abs(rect.w - cell.ctype.width) > 1e-6
        placement.macros[cell_index] = PlacedMacro(
            cell_index=cell_index, path=cell.path, rect=rect,
            orientation=Orientation.E if swapped else Orientation.N)
    return placement
