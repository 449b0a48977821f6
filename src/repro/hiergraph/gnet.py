"""Gnet: the bit-level netlist graph.

Vertices are macros, top-level port bits, flops and combinational cells
(the paper's M ∪ P ∪ F ∪ C); a directed edge runs from the driver of a
flat bit net to each of its loads.  The graph is stored as integer
adjacency lists — at the paper's scale (~1e7 vertices) this is the only
representation that stays cheap, and it keeps our scaled version fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.netlist.cells import Direction
from repro.netlist.flatten import FlatDesign


class NodeKind(Enum):
    """Vertex families of Gnet."""

    MACRO = "macro"
    PORT = "port"
    FLOP = "flop"
    COMB = "comb"

    @property
    def is_sequential(self) -> bool:
        """Sequential-boundary vertices: everything but combinational."""
        return self is not NodeKind.COMB


@dataclass
class Gnet:
    """Bit-level connectivity with O(1) vertex attribute access.

    Attributes are parallel lists indexed by vertex id.  ``cell_of`` maps
    a vertex to its flat cell index (or -1 for port vertices);
    ``port_of`` maps port vertices to ``(port name, bit)``.
    """

    kinds: List[NodeKind]
    cell_of: List[int]
    port_of: List[Optional[Tuple[str, int]]]
    succ: List[List[int]]
    pred: List[List[int]]
    node_of_cell: Dict[int, int]
    node_of_port: Dict[Tuple[str, int], int]

    @property
    def n_nodes(self) -> int:
        return len(self.kinds)

    def neighbors_undirected(self, node: int) -> List[int]:
        return self.succ[node] + self.pred[node]

    def counts(self) -> Dict[NodeKind, int]:
        out: Dict[NodeKind, int] = {kind: 0 for kind in NodeKind}
        for kind in self.kinds:
            out[kind] += 1
        return out

    def __repr__(self) -> str:
        counts = self.counts()
        return ("Gnet(" + ", ".join(
            f"{kind.value}={counts[kind]}" for kind in NodeKind) + ")")


def build_gnet(flat: FlatDesign) -> Gnet:
    """Build Gnet from a flattened design.

    One vertex per leaf cell (macros included) and one per top-level
    port *bit*.  For every flat bit net, edges run driver -> loads;
    nets without a cell or input-port driver contribute nothing.
    """
    kinds: List[NodeKind] = []
    cell_of: List[int] = []
    port_of: List[Optional[Tuple[str, int]]] = []
    node_of_cell: Dict[int, int] = {}
    node_of_port: Dict[Tuple[str, int], int] = {}

    def add_node(kind: NodeKind, cell: int,
                 port: Optional[Tuple[str, int]]) -> int:
        kinds.append(kind)
        cell_of.append(cell)
        port_of.append(port)
        return len(kinds) - 1

    for cell in flat.cells:
        if cell.is_macro:
            kind = NodeKind.MACRO
        elif cell.is_flop:
            kind = NodeKind.FLOP
        else:
            kind = NodeKind.COMB
        node_of_cell[cell.index] = add_node(kind, cell.index, None)

    for port in flat.top.ports:
        for bit in range(port.width):
            key = (port.name, bit)
            node_of_port[key] = add_node(NodeKind.PORT, -1, key)

    port_direction = flat.top.directions()
    succ: List[List[int]] = [[] for _ in range(len(kinds))]
    pred: List[List[int]] = [[] for _ in range(len(kinds))]

    for net in flat.nets:
        drivers: List[int] = []
        loads: List[int] = []
        for cell_index, pin, _bit in net.endpoints:
            cell = flat.cells[cell_index]
            node = node_of_cell[cell_index]
            if cell.ctype.port(pin).direction is Direction.OUT:
                drivers.append(node)
            else:
                loads.append(node)
        for port_name, bit in net.top_ports:
            node = node_of_port[(port_name, bit)]
            if port_direction[port_name] is Direction.IN:
                drivers.append(node)     # input ports drive inward
            else:
                loads.append(node)
        for d in drivers:
            for l in loads:
                if d != l:
                    succ[d].append(l)
                    pred[l].append(d)

    # Deduplicate parallel edges (bit-level width is carried by having
    # one vertex per bit, not by parallel edges).
    for adjacency in (succ, pred):
        for i, nbrs in enumerate(adjacency):
            if len(nbrs) > 1:
                adjacency[i] = sorted(set(nbrs))

    return Gnet(kinds=kinds, cell_of=cell_of, port_of=port_of,
                succ=succ, pred=pred,
                node_of_cell=node_of_cell, node_of_port=node_of_port)
