"""Shared machinery for the baseline flows.

Both baselines place macros with shelf packing against die walls and
refine the packing order greedily against a macro-affinity matrix; they
differ in what affinity they can see and in how the die is partitioned.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.result import MacroPlacement, PlacedMacro
from repro.geometry.orientation import Orientation
from repro.geometry.rect import Point, Rect
from repro.hiergraph.gdf import GdfNode, build_gdf
from repro.hiergraph.gseq import Gseq
from repro.netlist.flatten import FlatDesign


def macro_affinity_matrix(gseq: Gseq, flat: FlatDesign, lam: float,
                          latency_k: float
                          ) -> Tuple[Tuple[int, ...],
                                     Tuple[Tuple[float, ...], ...],
                                     Tuple[str, ...]]:
    """Affinity between individual macros (and ports) via Gdf.

    Each macro is its own Gdf group, every port its own terminal group.
    Returns (macro cell indices, symmetric matrix over macros+ports,
    port names).  ``lam`` / ``latency_k`` control the blend exactly as
    in HiDaP, letting each baseline choose how much dataflow it sees.

    The result depends only on ``gseq``, ``lam`` and ``latency_k``, so
    it is built once per ``(lam, latency_k)`` and cached on ``gseq``,
    as tuples that no caller can mutate.
    """
    cache = getattr(gseq, "_affinity", None)
    if cache is None:
        cache = gseq._affinity = {}
    cached = cache.get((lam, latency_k))
    if cached is not None:
        return cached
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
    result = (tuple(macro_cells), tuple(map(tuple, matrix)),
              tuple(port_names))
    cache[(lam, latency_k)] = result
    return result


#: A packed item as a plain ``(x, y, w, h)`` box, lower-left anchored
#: like :class:`Rect`.
Box = Tuple[float, float, float, float]


def pack_boxes(die: Rect, dims: Sequence[Tuple[float, float]],
               gap: float = 0.0) -> List[Box]:
    """Shelf-pack rectangles around the die walls, ring by ring.

    Items are placed in order along W (bottom-up), N (left-right),
    E (bottom-up) and S (left-right); each is rotated so its longer
    side runs along the wall (minimal protrusion — the industrial
    style).  Each wall run reserves the corner belonging to the next
    wall (by the deepest item's protrusion), so walls never collide.
    When a ring fills up, the next ring starts inset by the deepest
    protrusion of the previous one.

    Returns one plain box per item, in item order; the refinement loop
    scores these directly and :func:`pack_perimeter` wraps them in
    :class:`Rect`.  Items are placed in index order, so a ring's items
    are always a suffix of ``dims``.
    """
    along = [h if h > w else w for w, h in dims]
    depth = [w if h > w else h for w, h in dims]
    x0, y0 = die.x, die.y
    x1, y1 = die.x2, die.y2
    n = len(dims)
    boxes: List[Box] = []
    append = boxes.append
    i = 0
    inset = 0.0
    guard = 0
    while i < n and guard < 12:
        guard += 1
        start = i
        reserve = max(depth[start:]) + gap
        left, right = x0 + inset, x1 - inset
        bottom, top = y0 + inset, y1 - inset
        ring_depth = 0.0
        # Per-wall cursor ranges; corner ownership: NW->N, NE->E,
        # SE->S, SW->W (see the reserve offsets).
        for wall, cursor, limit in (
                (0, bottom, top - reserve),      # W
                (1, left, right - reserve),      # N
                (2, bottom + reserve, top),      # E
                (3, left + reserve, right)):     # S
            limit += 1e-9
            while i < n:
                a = along[i]
                if cursor + a > limit:
                    break
                d = depth[i]
                if wall == 0:
                    append((left, cursor, d, a))
                elif wall == 1:
                    append((cursor, top - d, a, d))
                elif wall == 2:
                    append((right - d, cursor, d, a))
                else:
                    append((cursor, bottom, a, d))
                if d > ring_depth:
                    ring_depth = d
                cursor += a + gap
                i += 1
        if i == start:
            break
        inset += ring_depth + gap

    # Anything still unplaced (pathological die): grid-fill the center
    # region inside the rings.
    if i < n:
        cx, cy = x0 + inset, y0 + inset
        row_h = 0.0
        for w, h in dims[i:]:
            if cx + w > x1 - inset and cx > x0 + inset:
                cx = x0 + inset
                cy += row_h
                row_h = 0.0
            append((cx, cy, w, h))
            cx += w
            row_h = max(row_h, h)
    return boxes


def pack_perimeter(die: Rect, dims: Sequence[Tuple[float, float]],
                   gap: float = 0.0) -> List[Rect]:
    """:func:`pack_boxes` as one :class:`Rect` per item, in item order."""
    return [Rect(*box) for box in pack_boxes(die, dims, gap)]


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

    A call scores plain ``(x, y, w, h)`` boxes, the form
    :func:`pack_boxes` returns: slot ``k`` of ``order`` occupies
    ``boxes[k]``.  The reference visits slot ``si``'s pairs with the
    later slots, then its macro's port pulls; here each slot's row of
    that sequence is one row of a weight table (its macro's affinity to
    the macros in slot order, then its pull weights), and only the
    nonzero weights of the strict upper triangle and of the pulls make
    terms, in row-major order.  Each term is the reference's IEEE
    expression (centres are ``x + w / 2.0``) and the terms are reduced
    left to right.  The terms left out are exact zeros and the terms
    kept are non-negative (affinities and pull weights are), so adding
    the zeros would change no bit: a call is bit-identical to
    :func:`order_cost` on the same packing as :class:`Rect` objects.
    """

    def __init__(self, matrix: Sequence[Sequence[float]],
                 port_pulls: Sequence[List[Tuple[Point, float]]]):
        n = len(port_pulls)
        m = np.array(matrix, dtype=float, ndmin=2)[:n, :n]
        width = max((len(pulls) for pulls in port_pulls), default=0)
        port_a = np.zeros((n, width))
        self._port_x = np.zeros((n, width))
        self._port_y = np.zeros((n, width))
        for i, pulls in enumerate(port_pulls):
            for k, (p, a) in enumerate(pulls):
                port_a[i, k] = a
                self._port_x[i, k] = p.x
                self._port_y[i, k] = p.y
        #: Row ``i``: macro ``i``'s symmetric affinity to every macro,
        #: then its pull weights (columns ``n`` onward).
        self._weight = np.concatenate([m + m.T, port_a], axis=1)
        self._pull_columns = n + np.arange(width)
        #: Term layouts by order length (see :meth:`_layout`).
        self._layouts = {}

    def _layout(self, n: int):
        """For an ``n``-slot order, over the row-major ``n x (n +
        width)`` term table: which cells may hold a term (the strict
        upper triangle and every pull), each cell's row, and each
        cell's target point in ``[centres, pulls row by row]``."""
        layout = self._layouts.get(n)
        if layout is None:
            width = len(self._pull_columns)
            allowed = np.concatenate([np.triu(np.ones((n, n), bool), 1),
                                      np.ones((n, width), bool)], axis=1)
            row, column = np.divmod(np.arange(n * (n + width)), n + width)
            target = np.where(column < n, column, row * width + column)
            layout = self._layouts[n] = (allowed.ravel(), row, target)
        return layout

    def __call__(self, order: Sequence[int], boxes: Sequence[Box]
                 ) -> float:
        n = len(order)
        if not n:
            return 0.0
        allowed, row, target = self._layout(n)
        slots = np.asarray(order, dtype=np.intp)
        box = np.fromiter(chain.from_iterable(boxes), float,
                          4 * n).reshape(n, 4)
        cx = box[:, 0] + box[:, 2] / 2.0
        cy = box[:, 1] + box[:, 3] / 2.0
        weight = self._weight[slots][
            :, np.concatenate([slots, self._pull_columns])].ravel()
        cells = np.flatnonzero((weight > 0) & allowed)
        if not len(cells):
            return 0.0
        rows, targets = row[cells], target[cells]
        tx = np.concatenate([cx, self._port_x[slots].ravel()])
        ty = np.concatenate([cy, self._port_y[slots].ravel()])
        terms = weight[cells] * (np.abs(cx[rows] - tx[targets])
                                 + np.abs(cy[rows] - ty[targets]))
        return float(np.add.accumulate(terms)[-1])


def refine_order(order: List[int],
                 repack,
                 matrix: Sequence[Sequence[float]],
                 port_pulls: Sequence[List[Tuple[Point, float]]],
                 passes: int = 4) -> Tuple[List[int], List[Rect]]:
    """Greedy order refinement: adjacent + stride-2 swap sweeps.

    ``repack(order)`` must return the packing of an order as plain
    boxes (see :func:`pack_boxes`); every candidate is scored on those,
    and :class:`Rect` objects are built only for the packing returned.
    Accepts any swap that lowers the cost; repeats up to ``passes``
    sweeps.
    """
    cost_of = OrderCost(matrix, port_pulls)
    boxes = repack(order)
    best_cost = cost_of(order, boxes)
    n = len(order)
    for _ in range(passes):
        improved = False
        for stride in (1, 2):
            for a in range(n - stride):
                b = a + stride
                order[a], order[b] = order[b], order[a]
                cand_boxes = repack(order)
                cost = cost_of(order, cand_boxes)
                if cost < best_cost - 1e-9:
                    best_cost = cost
                    boxes = cand_boxes
                    improved = True
                else:
                    order[a], order[b] = order[b], order[a]
        if not improved:
            break
    return order, [Rect(*box) for box in boxes]


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
