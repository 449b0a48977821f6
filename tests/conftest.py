"""Shared fixtures: small deterministic designs used across the suite."""

from __future__ import annotations

from typing import Optional

import pytest

from repro.gen.designs import build_design, die_for, suite_specs
from repro.netlist.builder import ModuleBuilder
from repro.netlist.cells import (
    Direction,
    PinGeometry,
    PortDef,
    Side,
    macro_cell,
)
from repro.netlist.core import Design
from repro.netlist.flatten import flatten


def make_ram(name: str = "RAM8", width: int = 8, w: float = 6.0,
             h: float = 4.0):
    """A small macro used by hand-built test designs.

    Pin geometry matches the generator's convention: data in on the
    west edge, data out on the east edge.
    """
    return macro_cell(name, w, h, [
        PortDef("din", Direction.IN, width),
        PortDef("dout", Direction.OUT, width),
    ], pin_geometry={"din": PinGeometry(Side.WEST, 0.5),
                     "dout": PinGeometry(Side.EAST, 0.5)})


def single_module_design(builder: ModuleBuilder,
                         name: Optional[str] = None) -> Design:
    """Wrap a built module as a one-module design."""
    module = builder.build()
    return Design(name or module.name, top=module)


def make_stage(name: str, width: int = 8, ram=None):
    """in_reg -> macro -> out_reg, the minimal dataflow stage."""
    if ram is None:
        ram = make_ram(width=width)
    b = ModuleBuilder(name)
    b.input("din", width)
    b.output("dout", width)
    b.wire("to_ram", width)
    b.wire("from_ram", width)
    b.register_array("in_reg", width, d="din", q="to_ram")
    inst = b.instance(ram, "mem")
    b.connect_bus("to_ram", inst, "din")
    b.connect_bus("from_ram", inst, "dout")
    b.register_array("out_reg", width, d="from_ram", q="dout")
    return b.build()


def build_two_stage_design(width: int = 8) -> Design:
    """Two macro stages chained between chip ports."""
    ram = make_ram(width=width)
    sa = make_stage("stage_a", width, ram)
    sb = make_stage("stage_b", width, ram)
    top = ModuleBuilder("top")
    top.input("pin", width)
    top.output("pout", width)
    top.wire("mid", width)
    ia = top.instance(sa, "sa")
    ib = top.instance(sb, "sb")
    top.connect_bus("pin", ia, "din")
    top.connect_bus("mid", ia, "dout")
    top.connect_bus("mid", ib, "din")
    top.connect_bus("pout", ib, "dout")
    design = Design("two_stage")
    design.add_module(sa)
    design.add_module(sb)
    design.add_module(top.build())
    design.set_top("top")
    return design


@pytest.fixture(scope="session")
def two_stage_design():
    return build_two_stage_design()


@pytest.fixture(scope="session")
def two_stage_flat(two_stage_design):
    return flatten(two_stage_design)


@pytest.fixture(scope="session")
def tiny_c1():
    """The smallest suite design, built once per session."""
    spec = suite_specs("tiny")[0]
    design, truth = build_design(spec)
    die_w, die_h = die_for(design)
    return design, truth, die_w, die_h


@pytest.fixture(scope="session")
def tiny_c1_flat(tiny_c1):
    design, _truth, _w, _h = tiny_c1
    return flatten(design)
