#!/usr/bin/env python
"""Place a hand-written design: build your own hierarchy with the
ModuleBuilder API and run HiDaP on it.

The example assembles a small video-pipeline-ish SoC: a line buffer
feeding two parallel filter banks whose results merge into an output
stage.  It shows the API surface a downstream user needs: cell types,
module builders, hierarchy composition, placement and inspection —
plus a traced run, whose footer shows each of HiDaP's six stages as a
span with its time, and the run's work counters.

Run:  python examples/custom_design.py
"""

from repro import HiDaP, HiDaPConfig, Design
from repro.netlist.builder import ModuleBuilder
from repro.netlist.cells import Direction, PinGeometry, PortDef, Side, macro_cell
from repro.netlist.stats import design_stats
from repro.netlist.validate import assert_valid
from repro.obs import Tracer, render_summary, use_tracer
from repro.viz.ascii_art import ascii_floorplan

WIDTH = 32

LINE_RAM = macro_cell(
    "LINE_RAM", 18.0, 10.0,
    [PortDef("din", Direction.IN, WIDTH),
     PortDef("addr", Direction.IN, 6),
     PortDef("dout", Direction.OUT, WIDTH)],
    pin_geometry={"din": PinGeometry(Side.WEST, 0.5),
                  "addr": PinGeometry(Side.SOUTH, 0.5),
                  "dout": PinGeometry(Side.EAST, 0.5)})

COEF_ROM = macro_cell(
    "COEF_ROM", 9.0, 7.0,
    [PortDef("din", Direction.IN, 8),
     PortDef("addr", Direction.IN, 5),
     PortDef("dout", Direction.OUT, WIDTH)],
    pin_geometry={"dout": PinGeometry(Side.NORTH, 0.5)})


def line_buffer(design: Design) -> "ModuleBuilder":
    b = ModuleBuilder("line_buffer")
    b.input("pixels", WIDTH)
    b.output("window", WIDTH)
    b.wire("addr_w", WIDTH)
    b.wire("stored", WIDTH)
    b.register_array("wr_reg", WIDTH, d="pixels", q="addr_w")
    ram = b.instance(LINE_RAM, "lram")
    b.connect_bus("addr_w", ram, "din")
    b.connect("addr_w", ram, "addr", width=6)
    b.connect_bus("stored", ram, "dout")
    b.register_array("rd_reg", WIDTH, d="stored", q="window")
    module = b.build()
    design.add_module(module)
    return module


def filter_bank(design: Design, name: str, taps: int) -> "ModuleBuilder":
    b = ModuleBuilder(name)
    b.input("window", WIDTH)
    b.output("filtered", WIDTH)
    current = "window"
    for t in range(taps):
        rom = b.instance(COEF_ROM, f"rom{t}")
        coef = f"coef{t}"
        acc = f"acc{t}"
        b.wire(coef, WIDTH)
        b.wire(acc, WIDTH)
        b.connect(current, rom, "din", width=8)
        b.connect(current, rom, "addr", width=5)
        b.connect_bus(coef, rom, "dout")
        b.comb_cloud(f"mac{t}", [current, coef], acc)
        nxt = f"tap{t}" if t < taps - 1 else "filtered"
        if nxt != "filtered":
            b.wire(nxt, WIDTH)
        b.register_array(f"tap_reg{t}", WIDTH, d=acc, q=nxt)
        current = nxt
    module = b.build()
    design.add_module(module)
    return module


def main() -> None:
    design = Design("video_soc")
    lb = line_buffer(design)
    fa = filter_bank(design, "filter_a", taps=3)
    fb = filter_bank(design, "filter_b", taps=2)

    top = ModuleBuilder("video_top")
    top.input("pix_in", WIDTH)
    top.output("pix_out", WIDTH)
    top.wire("window", WIDTH)
    top.wire("fa_out", WIDTH)
    top.wire("fb_out", WIDTH)
    top.wire("merged", WIDTH)
    ilb = top.instance(lb, "u_linebuf")
    ifa = top.instance(fa, "u_filt_a")
    ifb = top.instance(fb, "u_filt_b")
    top.connect_bus("pix_in", ilb, "pixels")
    top.connect_bus("window", ilb, "window")
    top.connect_bus("window", ifa, "window")
    top.connect_bus("window", ifb, "window")
    top.connect_bus("fa_out", ifa, "filtered")
    top.connect_bus("fb_out", ifb, "filtered")
    top.comb_cloud("merge", ["fa_out", "fb_out"], "merged")
    top.register_array("out_reg", WIDTH, d="merged", q="pix_out")
    design.add_module(top.build())
    design.set_top("video_top")

    assert_valid(design)
    print(design_stats(design).summary())

    # Trace the run: each stage is a span beneath ``place``
    # (flatten -> graphs -> shape-curves -> floorplan -> flip -> legalize).
    tracer = Tracer("custom_design")
    with use_tracer(tracer):
        placement = HiDaP(HiDaPConfig(seed=3)).place(design, 90.0, 70.0)
    print(render_summary([tracer.payload()]))
    print(placement.summary())
    print(ascii_floorplan(
        placement.die,
        [(p.path, p.rect) for p in placement.macros.values()],
        width=60))
    for placed in sorted(placement.macros.values(),
                         key=lambda p: p.path):
        print(f"  {placed.path:24s} @({placed.rect.x:6.1f},"
              f"{placed.rect.y:6.1f}) {placed.orientation.value}")


if __name__ == "__main__":
    main()
