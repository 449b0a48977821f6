"""Gdf: the dataflow graph over blocks and multi-bit ports.

Each vertex groups a set of Gseq components (a floorplan block, one
multi-bit port, or a fixed external group); each directed edge carries
two latency/width histograms:

* **block flow** (``E^b``): paths found by a BFS that starts from every
  component of the source group and traverses *glue* components only —
  the physically-accurate view of inter-block nets;
* **macro flow** (``E^m``): paths between macros that may cross any
  non-macro sequential component, including those inside other blocks —
  the global view of how data moves between macro groups.

On reaching a target group at BFS depth ``d`` (latency ``d`` cycles),
the bitwidth of the *predecessor* component on the path is added to
histogram bin ``d`` (paper Sect. IV-D).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hiergraph.gseq import Gseq
from repro.hiergraph.histogram import LatencyHistogram


@dataclass
class GdfNode:
    """A dataflow vertex: block, port or fixed external group."""

    index: int
    name: str
    kind: str                       # "block" | "port" | "ext"
    seq_nodes: List[int] = field(default_factory=list)

    @property
    def is_block(self) -> bool:
        return self.kind == "block"

    def __repr__(self) -> str:
        return f"GdfNode({self.name}:{self.kind}, {len(self.seq_nodes)} seq)"


@dataclass
class GdfEdge:
    """Directed dataflow between two Gdf vertices."""

    src: int
    dst: int
    block_hist: LatencyHistogram = field(default_factory=LatencyHistogram)
    macro_hist: LatencyHistogram = field(default_factory=LatencyHistogram)

    def affinity(self, lam: float, k: float) -> float:
        """The paper's blended edge score.

        ``lam`` (λ) weighs block flow against macro flow; ``k`` is the
        latency-decay exponent of ``score(h, k)``.
        """
        return (lam * self.block_hist.score(k)
                + (1.0 - lam) * self.macro_hist.score(k))


@dataclass
class Gdf:
    """The dataflow graph."""

    nodes: List[GdfNode]
    edges: Dict[Tuple[int, int], GdfEdge]
    group_of_seq: Dict[int, int]

    def edge(self, src: int, dst: int) -> Optional[GdfEdge]:
        return self.edges.get((src, dst))

    def node_by_name(self, name: str) -> GdfNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no Gdf node named {name!r}")

    def __repr__(self) -> str:
        return f"Gdf({len(self.nodes)} nodes, {len(self.edges)} edges)"


def build_gdf(gseq: Gseq, groups: Sequence[GdfNode],
              max_latency: int = 16) -> Gdf:
    """Construct Gdf from Gseq and a grouping of its components.

    ``groups`` must carry disjoint ``seq_nodes``; Gseq components not
    claimed by any group are *glue*.  ``max_latency`` bounds the BFS
    depth: paths longer than it contribute (exponentially) little
    affinity and are not worth discovering.
    """
    nodes = [GdfNode(i, g.name, g.kind, list(g.seq_nodes))
             for i, g in enumerate(groups)]
    group_of_seq: Dict[int, int] = {}
    for node in nodes:
        for seq in node.seq_nodes:
            if seq in group_of_seq:
                raise ValueError(
                    f"Gseq component {seq} claimed by two groups")
            group_of_seq[seq] = node.index

    edges: Dict[Tuple[int, int], GdfEdge] = {}

    def edge_for(src: int, dst: int) -> GdfEdge:
        edge = edges.get((src, dst))
        if edge is None:
            edge = GdfEdge(src, dst)
            edges[(src, dst)] = edge
        return edge

    width = [node.bits for node in gseq.nodes]

    # ---- block flow: glue-only traversal --------------------------------
    for group in nodes:
        sources = sorted(group.seq_nodes)
        if not sources:
            continue
        visited = set(sources)
        queue = deque((s, 0) for s in sources)
        while queue:
            u, dist = queue.popleft()
            if dist >= max_latency:
                continue
            for v in gseq.succ[u]:
                target_group = group_of_seq.get(v)
                if target_group is None:
                    if v not in visited:
                        visited.add(v)
                        queue.append((v, dist + 1))
                elif target_group != group.index:
                    edge_for(group.index, target_group).block_hist.add(
                        dist + 1, width[u])
                # v inside the same group: internal, ignored.

    # ---- macro flow: cross anything except macros/ports ------------------
    for group in nodes:
        # Ports act as their own macro-flow sources so port<->macro
        # affinity exists; blocks start from their macro components.
        sources = sorted(s for s in group.seq_nodes
                         if gseq.nodes[s].is_macro or gseq.nodes[s].is_port)
        if not sources:
            continue
        visited = set(sources)
        queue = deque((s, 0) for s in sources)
        while queue:
            u, dist = queue.popleft()
            if dist >= max_latency:
                continue
            for v in gseq.succ[u]:
                node_v = gseq.nodes[v]
                if node_v.is_macro or node_v.is_port:
                    target_group = group_of_seq.get(v)
                    if target_group is not None \
                            and target_group != group.index:
                        edge_for(group.index, target_group).macro_hist.add(
                            dist + 1, width[u])
                    continue               # macros/ports are never crossed
                if v not in visited:
                    visited.add(v)
                    queue.append((v, dist + 1))

    return Gdf(nodes=nodes, edges=edges, group_of_seq=group_of_seq)
