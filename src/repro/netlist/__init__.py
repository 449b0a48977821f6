"""Hierarchical netlist model with RTL hierarchy and array information.

This package is the reproduction's stand-in for the paper's input: a
netlist ``N`` that still carries the RTL design hierarchy and bus/array
structure.  It provides:

* a hierarchical data model (modules, instances, bus nets, leaf cells);
* a builder API used by the synthetic design generator;
* a structural-Verilog-subset writer/parser and a JSON round-trip;
* bit-accurate flattening (feeding ``Gnet`` construction);
* validation and statistics helpers.
"""

from repro.netlist.cells import (
    CellKind,
    CellType,
    Direction,
    PortDef,
    comb_cell,
    flop_cell,
    macro_cell,
)
from repro.netlist.core import Conn, Design, Instance, Module, Net
from repro.netlist.builder import ModuleBuilder
from repro.netlist.flatten import (FlatCell, FlatDesign, FlatNet,
                                   TopInterface, flatten)
from repro.netlist.validate import ValidationIssue, validate_design
from repro.netlist.stats import DesignStats, design_stats

__all__ = [
    "CellKind",
    "CellType",
    "Conn",
    "Design",
    "DesignStats",
    "Direction",
    "FlatCell",
    "FlatDesign",
    "FlatNet",
    "Instance",
    "Module",
    "ModuleBuilder",
    "Net",
    "PortDef",
    "TopInterface",
    "ValidationIssue",
    "comb_cell",
    "design_stats",
    "flatten",
    "flop_cell",
    "macro_cell",
    "validate_design",
]
