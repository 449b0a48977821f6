"""The hierarchy tree HT.

Every node corresponds to one module *instance* (identified by its
hierarchical path); edges are sub-hierarchy relations.  Nodes aggregate
the area and macro population of their subtree — the ``area(n)`` and
``macro_count(n)`` oracles of Algorithm 3 — and keep the flat cells
instantiated directly at their level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.netlist.core import Design, Module
from repro.netlist.flatten import FlatCell, FlatDesign, PATH_SEP


@dataclass(eq=False)       # identity equality: nodes are used as dict keys
class HierNode:
    """One level of the design hierarchy."""

    path: str                      # "" for the top module
    module_name: str
    parent: Optional["HierNode"] = None
    children: List["HierNode"] = field(default_factory=list)
    own_cells: List[int] = field(default_factory=list)    # flat cell indices
    # Subtree aggregates (filled by build_hierarchy):
    area: float = 0.0              # std cell + macro area under this node
    stdcell_area: float = 0.0
    macro_area: float = 0.0
    macro_count: int = 0
    cell_count: int = 0
    macros: List[int] = field(default_factory=list)       # subtree macros
    own_macros: List[int] = field(default_factory=list)   # direct macros

    @property
    def name(self) -> str:
        """The last path component (module instance name)."""
        if not self.path:
            return self.module_name
        return self.path.rsplit(PATH_SEP, 1)[-1]

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator["HierNode"]:
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def subtree_cells(self) -> Iterator[int]:
        """Flat indices of every cell under this node."""
        for node in self.walk():
            yield from node.own_cells

    def __repr__(self) -> str:
        return (f"HierNode({self.path or '<top>'}: "
                f"{self.macro_count} macros, area {self.area:.0f})")


class HierTree:
    """The whole hierarchy tree with path-based lookup."""

    def __init__(self, root: HierNode, flat: FlatDesign):
        self.root = root
        self.flat = flat
        self.by_path: Dict[str, HierNode] = {
            node.path: node for node in root.walk()}

    def node(self, path: str) -> HierNode:
        return self.by_path[path]

    def node_of_cell(self, cell: FlatCell) -> HierNode:
        return self.by_path[cell.module_path]

    def __len__(self) -> int:
        return len(self.by_path)

    def __repr__(self) -> str:
        return f"HierTree({len(self)} nodes, root={self.root.module_name})"


def _join(path: str, name: str) -> str:
    return name if not path else path + PATH_SEP + name


def build_hierarchy(design: Design, flat: FlatDesign) -> HierTree:
    """Construct HT for ``design`` and its flattened view ``flat``.

    The tree mirrors module instantiation: one node per module instance.
    Aggregates are accumulated bottom-up in a single walk.  The
    hierarchical design is read only here, at compile time: a flat
    design keeps nothing of the hierarchy but its top interface.
    """
    if not isinstance(design, Design):
        raise TypeError(f"build_hierarchy needs the hierarchical Design "
                        f"of {flat.top.name}, not {type(design).__name__}")

    def visit(module: Module, path: str,
              parent: Optional[HierNode]) -> HierNode:
        node = HierNode(path=path, module_name=module.name, parent=parent)
        for inst in module.instances.values():
            if inst.is_leaf:
                continue
            child = visit(inst.ref, _join(path, inst.name), node)
            node.children.append(child)
        return node

    root = visit(design.top, "", None)
    tree = HierTree(root, flat)

    for cell in flat.cells:
        node = tree.by_path[cell.module_path]
        node.own_cells.append(cell.index)
        if cell.is_macro:
            node.own_macros.append(cell.index)

    def aggregate(node: HierNode) -> None:
        node.area = 0.0
        node.stdcell_area = 0.0
        node.macro_area = 0.0
        node.macro_count = 0
        node.cell_count = len(node.own_cells)
        node.macros = list(node.own_macros)
        for index in node.own_cells:
            cell = flat.cells[index]
            if cell.is_macro:
                node.macro_area += cell.ctype.area
                node.macro_count += 1
            else:
                node.stdcell_area += cell.ctype.area
        for child in node.children:
            aggregate(child)
            node.stdcell_area += child.stdcell_area
            node.macro_area += child.macro_area
            node.macro_count += child.macro_count
            node.cell_count += child.cell_count
            node.macros.extend(child.macros)
        node.area = node.stdcell_area + node.macro_area

    aggregate(root)
    return tree
