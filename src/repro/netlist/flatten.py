"""Bit-accurate flattening of hierarchical designs.

Flattening resolves every hierarchy boundary with a union-find over
``(module-instance path, net name, bit)`` keys, producing flat bit nets
whose endpoints are leaf-cell pins and top-level port bits.  The result
feeds ``Gnet`` construction; each flat cell remembers the hierarchy path
of its enclosing module so cells can be mapped back onto the hierarchy
tree.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.netlist.cells import CellType, Direction
from repro.netlist.core import Design, Module

PATH_SEP = "/"

NetKey = Tuple[str, str, int]       # (module instance path, net name, bit)
Endpoint = Tuple[int, str, int]     # (flat cell index, pin name, pin bit)
PortBit = Tuple[str, int]           # (top port name, bit)


@dataclass
class FlatCell:
    """A leaf cell instance in the flattened design."""

    index: int
    path: str           # full instance path, e.g. "core0/alu/res[3]"
    ctype: CellType
    module_path: str    # path of the enclosing module instance ("" = top)

    @property
    def is_macro(self) -> bool:
        return self.ctype.is_macro

    @property
    def is_flop(self) -> bool:
        return self.ctype.is_sequential

    @property
    def local_name(self) -> str:
        return self.path.rsplit(PATH_SEP, 1)[-1]


@dataclass
class FlatNet:
    """A single-bit flat net."""

    index: int
    name: str                      # a representative hierarchical name
    endpoints: List[Endpoint] = field(default_factory=list)
    top_ports: List[PortBit] = field(default_factory=list)

    def fanout(self) -> int:
        return len(self.endpoints) + len(self.top_ports)


class _UnionFind:
    """Union-find with path compression over arbitrary hashable keys."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Dict[NetKey, NetKey] = {}

    def find(self, key: NetKey) -> NetKey:
        parent = self.parent
        if key not in parent:
            parent[key] = key
            return key
        root = key
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    def union(self, a: NetKey, b: NetKey) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class FlatDesign:
    """The flattened view of a hierarchical design."""

    def __init__(self, design: Design):
        self.design = design
        self.cells: List[FlatCell] = []
        self.nets: List[FlatNet] = []
        self.cell_index_by_path: Dict[str, int] = {}

    # -- queries -----------------------------------------------------------

    def macros(self) -> List[FlatCell]:
        return [c for c in self.cells if c.is_macro]

    def flops(self) -> List[FlatCell]:
        return [c for c in self.cells if c.is_flop]

    def cell_by_path(self, path: str) -> FlatCell:
        return self.cells[self.cell_index_by_path[path]]

    def total_cell_area(self) -> float:
        return sum(c.ctype.area for c in self.cells)

    def stdcell_area(self) -> float:
        return sum(c.ctype.area for c in self.cells if not c.is_macro)

    def macro_area(self) -> float:
        return sum(c.ctype.area for c in self.cells if c.is_macro)

    def __repr__(self) -> str:
        return (f"FlatDesign({self.design.name}: {len(self.cells)} cells, "
                f"{len(self.nets)} bit-nets)")


def _join(path: str, name: str) -> str:
    return name if not path else path + PATH_SEP + name


#: The flats shared inside :func:`shared_flats`, by ``id`` of the design.
_SHARED: ContextVar[Optional[Dict[int, FlatDesign]]] = ContextVar(
    "shared_flats", default=None)


@contextmanager
def shared_flats() -> Iterator[None]:
    """Flatten each design once inside the block.

    Every :func:`flatten` of a design in the block returns the one
    :class:`FlatDesign` its first call built, so code that flattens the
    same design in several places does the work once.  The designs must
    not change inside the block.  A nested block shares its enclosing
    block's flats.
    """
    if _SHARED.get() is not None:
        yield
        return
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def flatten(design: Design) -> FlatDesign:
    """Flatten ``design`` into bit-level nets and leaf cells.

    Inside :func:`shared_flats` a design is flattened once.
    """
    shared = _SHARED.get()
    if shared is None:
        return _flatten(design)
    flat = shared.get(id(design))
    if flat is None:
        flat = shared[id(design)] = _flatten(design)
    return flat


def _flatten(design: Design) -> FlatDesign:
    flat = FlatDesign(design)
    uf = _UnionFind()
    # Endpoints attached to each net-bit key (resolved to roots later).
    pin_hits: List[Tuple[NetKey, Endpoint]] = []
    port_hits: List[Tuple[NetKey, PortBit]] = []

    def visit(module: Module, path: str) -> None:
        for inst in module.instances.values():
            inst_path = _join(path, inst.name)
            if inst.is_leaf:
                cell = FlatCell(len(flat.cells), inst_path,
                                inst.ref, module_path=path)
                flat.cells.append(cell)
                flat.cell_index_by_path[inst_path] = cell.index
            else:
                visit(inst.ref, inst_path)
        for net in module.nets.values():
            for conn in net.conns:
                inst = module.instances[conn.inst]
                for i in range(conn.width):
                    net_key = (path, net.name, conn.net_lsb + i)
                    pin_bit = conn.pin_lsb + i
                    if inst.is_leaf:
                        cell_path = _join(path, inst.name)
                        cell_index = flat.cell_index_by_path[cell_path]
                        pin_hits.append(
                            (net_key, (cell_index, conn.pin, pin_bit)))
                    else:
                        child_key = (_join(path, inst.name),
                                     conn.pin, pin_bit)
                        uf.union(net_key, child_key)

    top = design.top
    visit(top, "")
    for port in top.ports.values():
        for bit in range(port.width):
            port_hits.append((("", port.name, bit), (port.name, bit)))

    # Group endpoints by union-find root.
    net_of_root: Dict[NetKey, FlatNet] = {}

    def net_for(root: NetKey) -> FlatNet:
        net = net_of_root.get(root)
        if net is None:
            path, name, bit = root
            label = f"{_join(path, name)}[{bit}]"
            net = FlatNet(len(flat.nets), label)
            flat.nets.append(net)
            net_of_root[root] = net
        return net

    for key, endpoint in pin_hits:
        net_for(uf.find(key)).endpoints.append(endpoint)
    for key, port_bit in port_hits:
        net_for(uf.find(key)).top_ports.append(port_bit)

    # Drop degenerate nets (single endpoint and no port).
    kept: List[FlatNet] = []
    for net in flat.nets:
        if net.fanout() < 2:
            continue
        net.index = len(kept)
        kept.append(net)
    flat.nets = kept
    return flat


def net_driver(flat: FlatDesign, net: FlatNet) -> Optional[Endpoint]:
    """The driving endpoint of a flat net, if any.

    Leaf output pins drive; so do top-level *input* ports (they drive
    inward), but those are reported as ``None`` here since they are not
    cell endpoints — callers treat port-driven nets separately.
    """
    for cell_index, pin, _bit in net.endpoints:
        cell = flat.cells[cell_index]
        if cell.ctype.port(pin).direction is Direction.OUT:
            return (cell_index, pin, _bit)
    return None
