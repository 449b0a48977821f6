"""Target area assignment (paper Sect. IV-C).

Glue logic (HCG nodes and loose cells of opened nodes) is not
floorplanned directly; its area must travel with the blocks it talks
to.  A multi-source BFS over Gnet starts simultaneously from every cell
of every HCB block; each glue cell is absorbed by the first block that
reaches it.  Glue unreachable from any block (rare: disconnected
scan/debug logic) is spread proportionally to block minimum areas so no
area is lost.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Sequence, Set

from repro.core.decluster import BlockSeed, DeclusterResult
from repro.hiergraph.gnet import Gnet
from repro.netlist.flatten import FlatDesign


def glue_cells_of(result: DeclusterResult) -> List[int]:
    """All flat cell indices whose area must be absorbed by blocks."""
    cells: List[int] = list(result.loose_glue_cells)
    for node in result.glue:
        cells.extend(node.subtree_cells())
    return cells


def block_cells_of(seed: BlockSeed) -> Iterable[int]:
    """Flat cell indices inside a block seed."""
    if seed.is_macro_seed:
        return (seed.macro_cell,)
    return seed.node.subtree_cells()


def assign_target_areas(flat: FlatDesign, gnet: Gnet,
                        result: DeclusterResult) -> List[float]:
    """Glue area absorbed per block, via multi-source BFS on Gnet.

    Returns one absorbed-area figure per block in ``result.blocks``
    order; the caller adds it to the block minimum areas and rescales to
    the floorplan region.
    """
    blocks = result.blocks
    absorbed = [0.0 for _ in blocks]
    glue_cells = glue_cells_of(result)
    if not glue_cells:
        return absorbed
    glue_set: Set[int] = set(glue_cells)

    owner: Dict[int, int] = {}          # gnet node -> block index
    queue = deque()
    for b, seed in enumerate(blocks):
        for cell_index in block_cells_of(seed):
            node = gnet.node_of_cell.get(cell_index)
            if node is not None and node not in owner:
                owner[node] = b
                queue.append(node)

    # BFS over undirected adjacency; first-come-first-served gives each
    # glue cell to its graph-nearest block.  The search stops once every
    # glue cell is claimed: the rest would only label non-glue nodes.
    claimed: Dict[int, int] = {}        # glue cell -> block index
    while queue and len(claimed) < len(glue_set):
        node = queue.popleft()
        b = owner[node]
        for neighbor in gnet.neighbors_undirected(node):
            if neighbor in owner:
                continue
            owner[neighbor] = b
            cell_index = gnet.cell_of[neighbor]
            if cell_index >= 0 and cell_index in glue_set:
                claimed[cell_index] = b
            queue.append(neighbor)

    unreached_area = 0.0
    for cell_index in glue_cells:
        area = flat.cells[cell_index].ctype.area
        block = claimed.get(cell_index)
        if block is None:
            unreached_area += area
        else:
            absorbed[block] += area

    if unreached_area > 0:
        mins = [max(seed.area(flat), 1e-12) for seed in blocks]
        total = sum(mins)
        for b, m in enumerate(mins):
            absorbed[b] += unreached_area * m / total
    return absorbed


def scale_targets(area_min: Sequence[float], absorbed: Sequence[float],
                  region_area: float) -> List[float]:
    """Scale raw targets (a_m + absorbed glue) to fill the region.

    The layout generator treats the region as a budget that is always
    fully consumed, so targets are normalized to sum to the region area.
    Scaling never drops a target below the block's minimum area; any
    leftover caused by that clamping is redistributed over the
    unclamped blocks.
    """
    raw = [m + a for m, a in zip(area_min, absorbed)]
    total_raw = sum(raw)
    if total_raw <= 0:
        n = max(len(raw), 1)
        return [region_area / n for _ in raw]

    factor = region_area / total_raw
    targets = [r * factor for r in raw]
    if factor >= 1.0:
        return targets

    # Shrinking: clamp at a_m and push the deficit onto blocks with
    # slack, iterating a few times (each pass strictly reduces slack).
    for _ in range(8):
        deficit = 0.0
        slack_indices = []
        for i, target in enumerate(targets):
            if target < area_min[i]:
                deficit += area_min[i] - target
                targets[i] = area_min[i]
            elif target > area_min[i]:
                slack_indices.append(i)
        if deficit <= 1e-9 or not slack_indices:
            break
        slack_total = sum(targets[i] - area_min[i] for i in slack_indices)
        if slack_total <= 1e-12:
            break
        for i in slack_indices:
            share = (targets[i] - area_min[i]) / slack_total
            targets[i] -= deficit * share
    return targets
