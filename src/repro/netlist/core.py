"""The hierarchical netlist data model.

A :class:`Design` owns a set of :class:`Module` definitions and names a
top module.  Modules contain bus :class:`Net` objects and
:class:`Instance` objects referring either to other modules or to leaf
:class:`CellType` cells.  Connectivity is recorded on nets as
:class:`Conn` endpoints ``(instance pin slice <- net slice)``.

Module ports use the usual structural-HDL convention: a port named ``p``
is implicitly attached to the internal net named ``p`` (created
automatically), so crossing a hierarchy boundary is a net-name lookup,
not a special connection type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Union

from repro.netlist.cells import CellType, Direction, PortDef


@dataclass(frozen=True)
class Conn:
    """One endpoint of a net: ``inst.pin[pin_lsb +: width]``.

    ``net_lsb`` anchors the slice on the net side, so a single ``Conn``
    expresses ``net[net_lsb +: width] == inst.pin[pin_lsb +: width]``.
    """

    inst: str
    pin: str
    width: int = 1
    net_lsb: int = 0
    pin_lsb: int = 0


class Net:
    """A named bus net inside one module."""

    __slots__ = ("name", "width", "conns")

    def __init__(self, name: str, width: int = 1):
        if width < 1:
            raise ValueError(f"net {name}: width must be >= 1")
        self.name = name
        self.width = width
        self.conns: List[Conn] = []

    def connect(self, inst: str, pin: str, width: int = 1,
                net_lsb: int = 0, pin_lsb: int = 0) -> None:
        if net_lsb + width > self.width:
            raise ValueError(
                f"net {self.name}[{self.width}]: slice "
                f"[{net_lsb}+:{width}] out of range")
        self.conns.append(Conn(inst, pin, width, net_lsb, pin_lsb))

    def __repr__(self) -> str:
        return f"Net({self.name}[{self.width}], {len(self.conns)} conns)"


class Instance:
    """An instantiation of a module or a leaf cell inside a module."""

    __slots__ = ("name", "ref")

    def __init__(self, name: str, ref: Union["Module", CellType]):
        self.name = name
        self.ref = ref

    @property
    def is_leaf(self) -> bool:
        return isinstance(self.ref, CellType)

    @property
    def is_macro(self) -> bool:
        return self.is_leaf and self.ref.is_macro

    @property
    def ref_name(self) -> str:
        return self.ref.name

    def port(self, name: str) -> PortDef:
        return self.ref.port(name)

    def __repr__(self) -> str:
        return f"Instance({self.name}:{self.ref_name})"


class Module:
    """A module definition: ports, nets and instances."""

    def __init__(self, name: str):
        self.name = name
        self.ports: Dict[str, PortDef] = {}
        self.nets: Dict[str, Net] = {}
        self.instances: Dict[str, Instance] = {}

    # -- construction -------------------------------------------------------

    def add_port(self, name: str, direction: Direction,
                 width: int = 1) -> PortDef:
        """Declare a port; the matching internal net is created too."""
        if name in self.ports:
            raise ValueError(f"module {self.name}: duplicate port {name}")
        port = PortDef(name, direction, width)
        self.ports[name] = port
        if name not in self.nets:
            self.nets[name] = Net(name, width)
        return port

    def add_net(self, name: str, width: int = 1) -> Net:
        if name in self.nets:
            existing = self.nets[name]
            if existing.width != width:
                raise ValueError(
                    f"module {self.name}: net {name} redeclared with "
                    f"width {width} != {existing.width}")
            return existing
        net = Net(name, width)
        self.nets[name] = net
        return net

    def add_instance(self, name: str,
                     ref: Union["Module", CellType]) -> Instance:
        if name in self.instances:
            raise ValueError(f"module {self.name}: duplicate instance {name}")
        inst = Instance(name, ref)
        self.instances[name] = inst
        return inst

    def port(self, name: str) -> PortDef:
        try:
            return self.ports[name]
        except KeyError:
            raise KeyError(f"module {self.name} has no port {name!r}")

    # -- queries ------------------------------------------------------------

    def leaf_instances(self) -> Iterator[Instance]:
        return (i for i in self.instances.values() if i.is_leaf)

    def module_instances(self) -> Iterator[Instance]:
        return (i for i in self.instances.values() if not i.is_leaf)

    def __repr__(self) -> str:
        return (f"Module({self.name}: {len(self.ports)} ports, "
                f"{len(self.instances)} insts, {len(self.nets)} nets)")


class Design:
    """A set of module definitions with a designated top module."""

    def __init__(self, name: str, top: Optional[Module] = None):
        self.name = name
        self.modules: Dict[str, Module] = {}
        self._top_name: Optional[str] = None
        if top is not None:
            self.add_module(top)
            self.set_top(top.name)

    def add_module(self, module: Module) -> Module:
        if module.name in self.modules:
            raise ValueError(f"design {self.name}: duplicate module "
                             f"{module.name}")
        self.modules[module.name] = module
        return module

    def set_top(self, name: str) -> None:
        if name not in self.modules:
            raise KeyError(f"design {self.name}: unknown module {name}")
        self._top_name = name

    @property
    def top(self) -> Module:
        if self._top_name is None:
            raise ValueError(f"design {self.name}: top module not set")
        return self.modules[self._top_name]

    def cell_types(self) -> Dict[str, CellType]:
        """Every leaf cell type referenced anywhere in the design."""
        found: Dict[str, CellType] = {}
        for module in self.modules.values():
            for inst in module.leaf_instances():
                found[inst.ref.name] = inst.ref
        return found

    def __repr__(self) -> str:
        return f"Design({self.name}, {len(self.modules)} modules)"
