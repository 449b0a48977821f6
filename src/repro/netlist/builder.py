"""A fluent builder for hierarchical modules.

The synthetic design generator and the tests build netlists through this
API; it auto-creates nets, wires register arrays bit by bit and keeps the
bus/array structure that HiDaP's dataflow analysis relies on.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.netlist.cells import (
    CellType,
    DEFAULT_COMB,
    DEFAULT_FLOP,
    Direction,
)
from repro.netlist.core import Instance, Module, Net


class ModuleBuilder:
    """Builds one :class:`Module`, creating nets on demand.

    Example
    -------
    >>> b = ModuleBuilder("stage")
    >>> b.input("din", 8)
    >>> b.output("dout", 8)
    >>> b.register_array("pipe", 8, d="din", q="dout")
    >>> module = b.build()
    """

    def __init__(self, name: str):
        self.module = Module(name)
        self._uid = 0

    # -- ports and nets -------------------------------------------------------

    def input(self, name: str, width: int = 1) -> "ModuleBuilder":
        self.module.add_port(name, Direction.IN, width)
        return self

    def output(self, name: str, width: int = 1) -> "ModuleBuilder":
        self.module.add_port(name, Direction.OUT, width)
        return self

    def wire(self, name: str, width: int = 1) -> Net:
        return self.module.add_net(name, width)

    def _fresh_name(self, prefix: str) -> str:
        self._uid += 1
        return f"{prefix}_u{self._uid}"

    # -- instances ------------------------------------------------------------

    def instance(self, ref: Union[Module, CellType],
                 name: Optional[str] = None) -> Instance:
        name = name or self._fresh_name(ref.name.lower())
        return self.module.add_instance(name, ref)

    def connect(self, net_name: str, inst: Union[Instance, str], pin: str,
                width: int = 1, net_lsb: int = 0,
                pin_lsb: int = 0) -> "ModuleBuilder":
        """Attach ``inst.pin[pin_lsb +: width]`` to ``net[net_lsb +: width]``."""
        inst_name = inst.name if isinstance(inst, Instance) else inst
        if net_name not in self.module.nets:
            raise KeyError(f"module {self.module.name}: unknown net "
                           f"{net_name}; declare it with wire()/input()")
        self.module.nets[net_name].connect(inst_name, pin, width,
                                           net_lsb, pin_lsb)
        return self

    def connect_bus(self, net_name: str, inst: Union[Instance, str],
                    pin: str) -> "ModuleBuilder":
        """Attach a full-width pin to a full-width net of equal width."""
        net = self.module.nets[net_name]
        return self.connect(net_name, inst, pin, width=net.width)

    # -- common structures ------------------------------------------------------

    def register_array(self, name: str, width: int, d: str, q: str,
                       clk: Optional[str] = None,
                       flop: CellType = DEFAULT_FLOP) -> List[Instance]:
        """A ``width``-bit register built from single-bit flops.

        Flops are named ``{name}[i]`` — exactly the array naming pattern
        the paper's Gseq construction recovers by name clustering.
        """
        d_net = self.module.nets[d]
        q_net = self.module.nets[q]
        if d_net.width < width or q_net.width < width:
            raise ValueError(f"register {name}: nets narrower than {width}")
        flops = []
        for bit in range(width):
            inst = self.module.add_instance(f"{name}[{bit}]", flop)
            d_net.connect(inst.name, "d", 1, net_lsb=bit)
            q_net.connect(inst.name, "q", 1, net_lsb=bit)
            if clk is not None:
                self.module.nets[clk].connect(inst.name, "clk", 1)
            flops.append(inst)
        return flops

    def comb_cloud(self, name: str, inputs: List[str], output: str,
                   n_cells: Optional[int] = None,
                   cell: CellType = DEFAULT_COMB) -> List[Instance]:
        """A small cloud of combinational cells between buses.

        Builds one mixing cell per output bit (driving ``output[bit]``)
        whose inputs sample the input buses round-robin, plus optional
        extra internal cells for area realism.  The exact logic function
        is irrelevant; connectivity and area are what placement sees.
        """
        out_net = self.module.nets[output]
        in_nets = [self.module.nets[i] for i in inputs]
        if not in_nets:
            raise ValueError(f"comb cloud {name}: needs at least one input")
        cells = []
        n_in_pins = sum(1 for p in cell.ports if p.direction is Direction.IN)
        for bit in range(out_net.width):
            inst = self.module.add_instance(f"{name}_c{bit}", cell)
            out_net.connect(inst.name, "z", 1, net_lsb=bit)
            for k in range(n_in_pins):
                src = in_nets[(bit + k) % len(in_nets)]
                src_bit = (bit + k) % src.width
                src.connect(inst.name, f"a{k}", 1, net_lsb=src_bit)
            cells.append(inst)
        extra = 0 if n_cells is None else max(0, n_cells - out_net.width)
        for j in range(extra):
            inst = self.module.add_instance(f"{name}_x{j}", cell)
            # Chain extras off the output bus so they stay connected.
            out_net.connect(inst.name, "a0", 1, net_lsb=j % out_net.width)
            for k in range(1, n_in_pins):
                src = in_nets[(j + k) % len(in_nets)]
                src.connect(inst.name, f"a{k}", 1,
                            net_lsb=(j + k) % src.width)
            sink = self.module.nets[inputs[0]]
            # The extra cell's output is left dangling on purpose: it
            # models area-only filler logic.  Validation flags dangling
            # *input* pins but tolerates unused outputs.
            del sink
            cells.append(inst)
        return cells

    def comb_slice(self, name: str, src: str, dst: str, dst_lsb: int,
                   width: int, cell: CellType = DEFAULT_COMB
                   ) -> List[Instance]:
        """One mixing cell per bit driving ``dst[dst_lsb +: width]``.

        Inputs sample ``src`` round-robin; used to gather lane buses
        into slices of a wider bus.
        """
        src_net = self.module.nets[src]
        dst_net = self.module.nets[dst]
        if dst_lsb + width > dst_net.width:
            raise ValueError(f"comb slice {name}: dst slice out of range")
        n_in_pins = sum(1 for p in cell.ports if p.direction is Direction.IN)
        cells = []
        for i in range(width):
            inst = self.module.add_instance(f"{name}_c{i}", cell)
            dst_net.connect(inst.name, "z", 1, net_lsb=dst_lsb + i)
            for k in range(n_in_pins):
                src_net.connect(inst.name, f"a{k}", 1,
                                net_lsb=(i + k) % src_net.width)
            cells.append(inst)
        return cells

    def build(self) -> Module:
        return self.module
