"""Gseq: the multi-bit sequential graph.

Derived from Gnet in the four steps of Sect. IV-D:

1. combinational vertices are collapsed by discovering, for every
   sequential vertex, which sequential vertices its output reaches
   through combinational-only paths;
2. flops and port bits are clustered into arrays by name
   (``name[n]`` / ``name_n``);
3. edges between the resulting multi-bit components carry the number of
   distinct source bits that reach the target component;
4. components narrower than a threshold are discarded (macros and ports
   are always kept).

Each Gseq edge crosses exactly one register boundary, so a path of
``L`` edges has latency ``L`` clock cycles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Set, Tuple

from repro.netlist.cells import Direction
from repro.netlist.flatten import FlatDesign, PATH_SEP
from repro.hiergraph.arrays import array_base
from repro.hiergraph.gnet import Gnet, NodeKind

#: Most combinational vertices one collapse BFS may visit (a safety
#: valve against pathological clouds).
MAX_CLOUD = 200000


class SeqKind(Enum):
    """Vertex families of Gseq."""

    MACRO = "macro"
    REG = "reg"
    PORT = "port"


@dataclass
class SeqNode:
    """A macro, a multi-bit register array, or a multi-bit port."""

    index: int
    kind: SeqKind
    name: str                # array base path / port name / macro path
    bits: int                # node weight: the component's bitwidth
    module_path: str         # hierarchy node owning the component
    cells: List[int] = field(default_factory=list)   # flat cell indices

    @property
    def is_macro(self) -> bool:
        return self.kind is SeqKind.MACRO

    @property
    def is_port(self) -> bool:
        return self.kind is SeqKind.PORT

    def __repr__(self) -> str:
        return f"SeqNode({self.name}:{self.kind.value}x{self.bits})"


@dataclass
class Gseq:
    """Directed multi-bit sequential connectivity."""

    nodes: List[SeqNode]
    succ: List[List[int]]
    pred: List[List[int]]
    edge_bits: Dict[Tuple[int, int], int]     # (u, v) -> communicated bits

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edge_bits)

    def macros(self) -> List[SeqNode]:
        return [n for n in self.nodes if n.is_macro]

    def ports(self) -> List[SeqNode]:
        return [n for n in self.nodes if n.is_port]

    def registers(self) -> List[SeqNode]:
        return [n for n in self.nodes if n.kind is SeqKind.REG]

    def node_by_name(self, name: str) -> SeqNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no Gseq node named {name!r}")

    def __repr__(self) -> str:
        return (f"Gseq({len(self.macros())} macros, "
                f"{len(self.registers())} regs, {len(self.ports())} ports, "
                f"{self.n_edges} edges)")


def _macro_width(flat: FlatDesign, cell_index: int) -> int:
    """A macro's node weight: its widest output port (data bus width)."""
    ctype = flat.cells[cell_index].ctype
    outs = [p.width for p in ctype.ports if p.direction is Direction.OUT]
    if outs:
        return max(outs)
    return max((p.width for p in ctype.ports), default=1)


def _reg_base(flat: FlatDesign, cell_index: int) -> Tuple[str, str]:
    """(module_path, array base) of a flop — the clustering key."""
    cell = flat.cells[cell_index]
    base, _index = array_base(cell.local_name)
    return (cell.module_path, base)


def build_gseq(gnet: Gnet, flat: FlatDesign, min_bits: int = 2) -> Gseq:
    """Construct Gseq from Gnet (see module docstring).

    ``min_bits`` is the array-width threshold of step 4; registers
    narrower than it are dropped.
    """
    nodes: List[SeqNode] = []
    cluster_of_gnode: Dict[int, int] = {}

    def new_node(kind: SeqKind, name: str, module_path: str) -> SeqNode:
        node = SeqNode(len(nodes), kind, name, 0, module_path)
        nodes.append(node)
        return node

    # --- step 2 first: build clusters so step 1 can aggregate directly ---
    reg_clusters: Dict[Tuple[str, str], SeqNode] = {}
    for gnode in range(gnet.n_nodes):
        kind = gnet.kinds[gnode]
        if kind is NodeKind.MACRO:
            cell = flat.cells[gnet.cell_of[gnode]]
            node = new_node(SeqKind.MACRO, cell.path, cell.module_path)
            node.bits = _macro_width(flat, cell.index)
            node.cells.append(cell.index)
            cluster_of_gnode[gnode] = node.index
        elif kind is NodeKind.FLOP:
            cell = flat.cells[gnet.cell_of[gnode]]
            key = _reg_base(flat, cell.index)
            node = reg_clusters.get(key)
            if node is None:
                path, base = key
                full = base if not path else path + PATH_SEP + base
                node = new_node(SeqKind.REG, full, path)
                reg_clusters[key] = node
            node.bits += 1
            node.cells.append(cell.index)
            cluster_of_gnode[gnode] = node.index
        elif kind is NodeKind.PORT:
            port_name, _bit = gnet.port_of[gnode]
            # One Gseq node per top-level port; accumulate its bits.
            existing = [n for n in nodes
                        if n.is_port and n.name == port_name]
            if existing:
                node = existing[0]
            else:
                node = new_node(SeqKind.PORT, port_name, "")
            node.bits += 1
            cluster_of_gnode[gnode] = node.index

    # --- step 1 + 3: collapse combinational logic, aggregate edges -------
    # Edge width = communicated bits: the larger of the distinct source
    # bits and distinct destination bits seen between the two clusters
    # (a macro is a single Gnet vertex, so counting only sources would
    # report width 1 for a wide macro output bus).
    contributions: Set[Tuple[int, int, int, int]] = set()  # (u, v, src, dst)
    for gnode, cluster in cluster_of_gnode.items():
        # BFS forward through combinational vertices only.
        reached: Set[int] = set()
        visited_comb: Set[int] = set()
        queue = deque(gnet.succ[gnode])
        while queue:
            nxt = queue.popleft()
            kind = gnet.kinds[nxt]
            if kind is NodeKind.COMB:
                if nxt in visited_comb or len(visited_comb) >= MAX_CLOUD:
                    continue
                visited_comb.add(nxt)
                queue.extend(gnet.succ[nxt])
            else:
                reached.add(nxt)
        for target_gnode in reached:
            target = cluster_of_gnode[target_gnode]
            if target != cluster:
                contributions.add((cluster, target, gnode, target_gnode))

    # --- step 4: threshold filter ----------------------------------------
    keep = [node for node in nodes
            if node.is_macro or node.is_port or node.bits >= min_bits]
    remap: Dict[int, int] = {}
    for new_index, node in enumerate(keep):
        remap[node.index] = new_index
        node.index = new_index

    edge_srcs: Dict[Tuple[int, int], Set[int]] = {}
    edge_dsts: Dict[Tuple[int, int], Set[int]] = {}
    for u, v, src, dst in contributions:
        if u in remap and v in remap:
            key = (remap[u], remap[v])
            edge_srcs.setdefault(key, set()).add(src)
            edge_dsts.setdefault(key, set()).add(dst)
    edge_bits: Dict[Tuple[int, int], int] = {
        key: max(len(edge_srcs[key]), len(edge_dsts[key]))
        for key in edge_srcs}

    succ: List[List[int]] = [[] for _ in keep]
    pred: List[List[int]] = [[] for _ in keep]
    for (u, v) in sorted(edge_bits):
        succ[u].append(v)
        pred[v].append(u)

    return Gseq(nodes=keep, succ=succ, pred=pred, edge_bits=edge_bits)
