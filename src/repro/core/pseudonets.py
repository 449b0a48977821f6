"""Hierarchy-closeness pseudo-net affinity (the pre-dataflow approach).

Earlier hierarchy-exploiting floorplanners (the paper cites MP-Trees
[5]) attract macros that are *hierarchically close* by adding
pseudo-nets between them, without analyzing dataflow at all.  This
module implements that affinity model as a drop-in alternative to
dataflow inference, so the paper's central claim — that latency/width
dataflow affinity beats pure hierarchy closeness — can be tested
directly (see ``benchmarks/test_ablation_affinity_source.py``).

Affinity between two blocks is ``1 / 2^d`` where ``d`` is the
hierarchy distance between their nodes (hops to the lowest common
ancestor), scaled by the blocks' macro counts: big sibling blocks
attract strongly, unrelated subtrees barely at all.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.dataflow import TerminalSpec
from repro.core.decluster import BlockSeed
from repro.netlist.flatten import PATH_SEP

#: Affinity of two one-macro blocks at the same hierarchy path; it
#: halves per hop of tree distance, and terminals pull with a
#: sixteenth of it.
BASE_WEIGHT = 64.0


def _depth(path: str) -> int:
    if not path:
        return 0
    return path.count(PATH_SEP) + 1


def _common_prefix_depth(a: str, b: str) -> int:
    if not a or not b:
        return 0
    parts_a = a.split(PATH_SEP)
    parts_b = b.split(PATH_SEP)
    depth = 0
    for x, y in zip(parts_a, parts_b):
        if x != y:
            break
        depth += 1
    return depth


def hierarchy_distance(path_a: str, path_b: str) -> int:
    """Tree hops between two hierarchy paths via their LCA."""
    lca = _common_prefix_depth(path_a, path_b)
    return (_depth(path_a) - lca) + (_depth(path_b) - lca)


def _seed_path(seed: BlockSeed) -> str:
    if seed.is_macro_seed:
        # A macro pseudo-block sits at its instance path's parent.
        path = seed.name
        return path.rsplit(PATH_SEP, 1)[0] if PATH_SEP in path else ""
    return seed.node.path


def pseudonet_affinity(seeds: Sequence[BlockSeed],
                       terminals: Sequence[TerminalSpec]
                       ) -> List[List[float]]:
    """Affinity matrix from hierarchy closeness only.

    Matches the shape ``infer_affinity`` returns (blocks first, then
    terminals).  Terminals get a small uniform pull so port-adjacent
    placements are not completely arbitrary — pseudo-net approaches
    typically anchor to pads the same way.
    """
    n = len(seeds)
    size = n + len(terminals)
    matrix = [[0.0] * size for _ in range(size)]
    paths = [_seed_path(seed) for seed in seeds]
    weights = [max(1, seed.macro_count()) for seed in seeds]
    for i in range(n):
        for j in range(i + 1, n):
            distance = hierarchy_distance(paths[i], paths[j])
            affinity = BASE_WEIGHT * (weights[i] * weights[j]) ** 0.5 \
                / (2.0 ** distance)
            matrix[i][j] = affinity
            matrix[j][i] = affinity
    for t in range(len(terminals)):
        for i in range(n):
            matrix[i][n + t] = BASE_WEIGHT / 16.0
            matrix[n + t][i] = BASE_WEIGHT / 16.0
    return matrix
