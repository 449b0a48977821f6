"""Dataflow inference for one floorplanning level (paper Sect. IV-D).

Maps the level's blocks and fixed context onto Gdf groups, runs the
block-flow / macro-flow searches, and condenses the per-edge histograms
into the affinity matrix ``M_aff`` with the parametric blend

    M_aff[i][j] = λ · score(E^b_ij, k) + (1-λ) · score(E^m_ij, k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.decluster import BlockSeed
from repro.geometry.rect import Point
from repro.hiergraph.gdf import Gdf, GdfNode, build_gdf
from repro.hiergraph.gseq import Gseq
from repro.netlist.flatten import PATH_SEP


@dataclass
class TerminalSpec:
    """A fixed group outside the level: a chip port or external block."""

    name: str
    pos: Point
    seq_nodes: List[int] = field(default_factory=list)
    kind: str = "port"                    # "port" | "ext"


def _is_under(path: str, prefix: str) -> bool:
    if not prefix:
        return True
    return path == prefix or path.startswith(prefix + PATH_SEP)


def seq_nodes_for_seeds(gseq: Gseq, seeds: Sequence[BlockSeed]
                        ) -> List[List[int]]:
    """Gseq components claimed by each block seed.

    Macro-backed pseudo-blocks claim exactly their macro's component;
    subtree-backed blocks claim every component whose owning module path
    lies in their subtree.  Claims are disjoint because pseudo-blocks
    only arise from macros *above* the subtree blocks.
    """
    macro_seed_cells: Set[int] = {
        seed.macro_cell for seed in seeds if seed.is_macro_seed}
    seq_of_cell: Dict[int, int] = {}
    for node in gseq.nodes:
        for cell in node.cells:
            seq_of_cell[cell] = node.index

    claimed: Set[int] = set()
    result: List[List[int]] = []
    for seed in seeds:
        if seed.is_macro_seed:
            members = []
            seq = seq_of_cell.get(seed.macro_cell)
            if seq is not None:
                members.append(seq)
        else:
            prefix = seed.node.path
            members = [
                node.index for node in gseq.nodes
                if not node.is_port
                and _is_under(node.module_path, prefix)
                and not (node.is_macro
                         and node.cells[0] in macro_seed_cells)]
        members = [m for m in members if m not in claimed]
        claimed.update(members)
        result.append(members)
    return result


def infer_affinity(gseq: Gseq, seeds: Sequence[BlockSeed],
                   terminals: Sequence[TerminalSpec], lam: float,
                   latency_k: float) -> Tuple[Gdf, List[List[float]]]:
    """Run dataflow inference for one level.

    Returns the level's Gdf (blocks first, then terminals, in order)
    and the dense symmetric affinity matrix indexed the same way.
    """
    block_members = seq_nodes_for_seeds(gseq, seeds)
    claimed: Set[int] = set()
    for members in block_members:
        claimed.update(members)

    groups: List[GdfNode] = []
    for i, (seed, members) in enumerate(zip(seeds, block_members)):
        groups.append(GdfNode(i, seed.name, "block", members))
    for t, terminal in enumerate(terminals):
        members = [s for s in terminal.seq_nodes if s not in claimed]
        claimed.update(members)
        groups.append(GdfNode(len(seeds) + t, terminal.name,
                              terminal.kind, members))

    gdf = build_gdf(gseq, groups)

    size = len(groups)
    matrix = [[0.0] * size for _ in range(size)]
    for (i, j), edge in gdf.edges.items():
        matrix[i][j] += edge.affinity(lam, latency_k)
    return gdf, matrix
