"""IndEDA: the commercial-floorplanner stand-in.

Behaviour reproduced from the paper's description of industrial tools:
macros go to the block walls (circuit periphery), placement is driven
by flat netlist connectivity with no hierarchy or dataflow-latency
analysis, and runtime is short.  Concretely:

1. macro-to-macro / macro-to-port affinity from *local* connectivity
   (strong latency decay, k = 2 — the tool sees nets, not pipelines);
2. a greedy connectivity chain orders the macros;
3. shelf packing around the die perimeter;
4. a few greedy order-refinement sweeps.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.baselines.common import (
    Box,
    macro_affinity_matrix,
    pack_boxes,
    refine_order,
    to_placement,
)
from repro.core.ports import assign_port_positions
from repro.core.result import MacroPlacement
from repro.geometry.rect import Point, Rect
from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.gseq import build_gseq
from repro.netlist.flatten import FlatDesign, flatten
from repro.obs import perf_seconds

#: The tool's effective view of dataflow: block and macro flow blended
#: evenly but with a strong latency decay — far-apart pipeline stages
#: contribute almost nothing, as for a netlist-driven tool.
_LAM = 0.5
_LATENCY_K = 2.0


def _connectivity_chain(n: int, matrix, port_pulls) -> List[int]:
    """Greedy ordering: start at the most port-connected macro, then
    repeatedly append the macro most attracted to the current tail."""
    if n == 0:
        return []
    port_weight = [sum(a for _p, a in port_pulls[i]) for i in range(n)]
    start = max(range(n), key=lambda i: port_weight[i])
    order = [start]
    used = {start}
    while len(order) < n:
        tail = order[-1]
        best, best_w = None, -1.0
        for j in range(n):
            if j in used:
                continue
            w = matrix[tail][j] + matrix[j][tail] + 0.1 * port_weight[j]
            if w > best_w:
                best, best_w = j, w
        order.append(best)
        used.add(best)
    return order


def place_indeda(design, die_w: float, die_h: float,
                 refinement_passes: int = 5,
                 gnet=None, gseq=None) -> MacroPlacement:
    """Run the IndEDA-like flow; returns a legal wall placement.

    ``gnet``/``gseq`` accept pre-built graphs (e.g. from a
    :class:`repro.api.prepared.PreparedDesign`) to avoid rebuilding
    them; they must belong to the same flattened design.
    """
    from repro.baselines.common import OrderCost

    start = perf_seconds()
    flat = design if isinstance(design, FlatDesign) else flatten(design)
    die = Rect(0.0, 0.0, float(die_w), float(die_h))
    if gnet is None:
        gnet = build_gnet(flat)
    if gseq is None:
        gseq = build_gseq(gnet, flat)
    port_positions = assign_port_positions(flat.top, die)

    macro_cells, matrix, port_names = macro_affinity_matrix(
        gseq, flat, lam=_LAM, latency_k=_LATENCY_K)
    n = len(macro_cells)
    port_pulls: List[List[Tuple[Point, float]]] = [[] for _ in range(n)]
    for i in range(n):
        for t, name in enumerate(port_names):
            a = matrix[i][n + t] + matrix[n + t][i]
            pos = port_positions.get(name)
            if a > 0 and pos is not None:
                port_pulls[i].append((pos, a))

    dims = [(flat.cells[c].ctype.width, flat.cells[c].ctype.height)
            for c in macro_cells]
    order = _connectivity_chain(n, matrix, port_pulls)

    def repack(current_order: List[int]) -> List[Box]:
        return pack_boxes(die, [dims[m] for m in current_order])

    # Commercial tools multi-start cheaply: rotate the chain around the
    # perimeter (and try it reversed) so the most port-bound macros can
    # land near their pads; keep the best starting point.
    candidates: List[List[int]] = []
    for k in range(0, max(1, n), max(1, n // 8)):
        candidates.append(order[k:] + order[:k])
    candidates.append(list(reversed(order)))
    cost_of = OrderCost(matrix, port_pulls)
    order = min(candidates, key=lambda o: cost_of(o, repack(o)))

    order, rects = refine_order(order, repack, matrix, port_pulls,
                                passes=refinement_passes)
    placement = to_placement(flat, die, order, rects, macro_cells,
                             "indeda", flat.top.name)
    placement.runtime_seconds = perf_seconds() - start
    return placement
