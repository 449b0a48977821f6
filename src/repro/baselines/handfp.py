"""handFP: the expert-floorplan stand-in.

The paper compares against floorplans that back-end engineers iterated
on for weeks using their knowledge of the design.  The oracle here gets
the equivalent knowledge from the generator's ground truth — the
intended subsystem dataflow order — and a generous refinement budget:

1. the die is split into vertical strips, one per subsystem, in
   ground-truth dataflow order (data enters west, leaves east), widths
   proportional to subsystem area;
2. each subsystem's macros are shelf-packed around its strip walls,
   keeping the strip center open for standard cells (the expert style
   visible in the paper's Fig. 9b);
3. many greedy refinement sweeps reorder macros within each strip
   against the full dataflow affinity (the same metric HiDaP optimizes,
   with the expert's global view).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.baselines.common import (
    Box,
    macro_affinity_matrix,
    pack_boxes,
    refine_order,
)
from repro.core.ports import assign_port_positions
from repro.core.result import MacroPlacement, PlacedMacro
from repro.gen.spec import GroundTruth
from repro.geometry.orientation import Orientation
from repro.geometry.rect import Point, Rect
from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.gseq import build_gseq
from repro.hiergraph.hierarchy import build_hierarchy
from repro.netlist.flatten import FlatDesign, flatten
from repro.obs import perf_seconds

_LAM = 0.5
_LATENCY_K = 1.0


def _strip_rects(die: Rect, shares: List[float],
                 min_widths: List[float]) -> List[Rect]:
    """Vertical strips with area-proportional widths.

    A strip is never thinner than its subsystem's widest macro side
    (plus margin) — a real engineer would widen the region rather than
    let a memory stick out.  The extra width is taken from strips with
    slack, proportionally.
    """
    total = sum(shares)
    widths = [die.w * s / total for s in shares]
    for _ in range(8):
        deficit = 0.0
        slack_idx = []
        for i, w in enumerate(widths):
            if w < min_widths[i]:
                deficit += min_widths[i] - w
                widths[i] = min_widths[i]
            elif w > min_widths[i]:
                slack_idx.append(i)
        if deficit <= 1e-9 or not slack_idx:
            break
        slack_total = sum(widths[i] - min_widths[i] for i in slack_idx)
        if slack_total <= 1e-12:
            break
        take = min(1.0, deficit / slack_total)
        for i in slack_idx:
            widths[i] -= (widths[i] - min_widths[i]) * take
    scale = die.w / sum(widths)
    widths = [w * scale for w in widths]

    rects: List[Rect] = []
    x = die.x
    for w in widths:
        rects.append(Rect(x, die.y, w, die.h))
        x += w
    return rects


def place_handfp(design, truth: GroundTruth, die_w: float, die_h: float,
                 refinement_passes: int = 8,
                 gnet=None, gseq=None, tree=None) -> MacroPlacement:
    """Run the expert-oracle flow; returns a legal strip placement.

    ``gnet``/``gseq``/``tree`` accept pre-built structures (e.g. from
    a :class:`repro.api.prepared.PreparedDesign`) to avoid rebuilding
    them; they must belong to the same flattened design.  A flattened
    ``design`` needs its ``tree``: only the hierarchical design can
    build one.
    """
    start = perf_seconds()
    flat = design if isinstance(design, FlatDesign) else flatten(design)
    die = Rect(0.0, 0.0, float(die_w), float(die_h))
    if gnet is None:
        gnet = build_gnet(flat)
    if gseq is None:
        gseq = build_gseq(gnet, flat)
    if tree is None:
        tree = build_hierarchy(design, flat)
    port_positions = assign_port_positions(flat.top, die)

    macro_cells, matrix, port_names = macro_affinity_matrix(
        gseq, flat, lam=_LAM, latency_k=_LATENCY_K)
    n = len(macro_cells)
    index_of_cell = {c: i for i, c in enumerate(macro_cells)}
    port_pulls: List[List[Tuple[Point, float]]] = [[] for _ in range(n)]
    for i in range(n):
        for t, name in enumerate(port_names):
            a = matrix[i][n + t] + matrix[n + t][i]
            pos = port_positions.get(name)
            if a > 0 and pos is not None:
                port_pulls[i].append((pos, a))

    # Strips in ground-truth order, widths by subsystem area.
    shares: List[float] = []
    members: List[List[int]] = []         # macro matrix indices per strip
    claimed = set()
    path_of_cell = {cell.index: cell.path for cell in flat.cells}
    for inst_name in truth.order:
        node = tree.by_path.get(inst_name)
        shares.append(max(node.area if node else 1.0, 1.0))
        macro_paths = set(truth.subsystem_macros.get(inst_name, ()))
        strip_members = [
            index_of_cell[c] for c in macro_cells
            if path_of_cell[c] in macro_paths and c not in claimed]
        claimed.update(macro_cells[m] for m in strip_members)
        members.append(strip_members)
    leftovers = [index_of_cell[c] for c in macro_cells if c not in claimed]
    if leftovers:
        members[0].extend(leftovers)

    min_widths = []
    for strip_members in members:
        widest = max((min(flat.cells[macro_cells[m]].ctype.width,
                          flat.cells[macro_cells[m]].ctype.height)
                      for m in strip_members), default=0.0)
        min_widths.append(widest * 1.12)
    strips = _strip_rects(die, shares, min_widths)
    dims = [(flat.cells[c].ctype.width, flat.cells[c].ctype.height)
            for c in macro_cells]

    placement = MacroPlacement(design_name=flat.top.name,
                               flow_name="handfp", die=die)
    placement.block_rects[""] = die
    for strip, strip_members, inst_name in zip(strips, members,
                                               truth.order):
        placement.block_rects[inst_name] = strip
        if not strip_members:
            continue
        order = list(strip_members)

        def repack(current: List[int], _strip=strip) -> List[Box]:
            return pack_boxes(_strip, [dims[m] for m in current])

        order, rects = refine_order(order, repack, matrix, port_pulls,
                                    passes=refinement_passes)
        for slot, m in enumerate(order):
            cell_index = macro_cells[m]
            cell = flat.cells[cell_index]
            rect = rects[slot]
            swapped = abs(rect.w - cell.ctype.width) > 1e-6
            placement.macros[cell_index] = PlacedMacro(
                cell_index=cell_index, path=cell.path, rect=rect,
                orientation=Orientation.E if swapped else Orientation.N)

    placement.runtime_seconds = perf_seconds() - start
    return placement
