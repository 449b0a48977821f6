"""Fig. 7 — dataflow inference: Gseq paths becoming Gdf histograms.

The figure traces how blue (block-flow) and red (macro-flow) paths in
Gseq generate Gdf edges whose histograms bin bits by latency.  The
bench builds a netlist-level equivalent of the figure's structure, runs
the inference and prints/checks the histograms, including the
score(h, k) condensation.
"""

import pytest

from benchmarks.conftest import pedantic
from repro.core.dataflow import infer_affinity
from repro.core.decluster import decluster
from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.gseq import build_gseq
from repro.hiergraph.hierarchy import build_hierarchy
from repro.netlist.builder import ModuleBuilder
from repro.netlist.core import Design
from repro.netlist.flatten import flatten
from repro.viz.ascii_art import ascii_histogram
from tests.conftest import make_ram, make_stage


def build_fig7_design():
    """Block P feeds block Q twice: directly (latency 1, 16 bits) and
    through a two-deep glue pipeline (latency 3, 8 bits)."""
    design = Design("fig7")
    ram = make_ram("RAMF7", 16, 8.0, 6.0)
    p = make_stage("blk_p", 16, ram)
    q = make_stage("blk_q", 16, ram)
    design.add_module(p)
    design.add_module(q)

    top = ModuleBuilder("fig7_top")
    top.input("chip_in", 16)
    top.output("chip_out", 16)
    ip = top.instance(p, "uP")
    iq = top.instance(q, "uQ")
    top.wire("direct", 16)
    top.wire("g1", 8)
    top.wire("g2", 8)
    top.connect_bus("chip_in", ip, "din")
    top.connect_bus("direct", ip, "dout")
    # Direct path: 16 bits at latency 1.
    top.connect_bus("direct", iq, "din")
    # Glue path: 8 of the bits also travel through two glue registers.
    top.register_array("glue_a", 8, d="direct", q="g1")
    top.register_array("glue_b", 8, d="g1", q="g2")
    # The glue lands on Q's input bus upper half... it must not short
    # with the direct bus, so it feeds Q via a second stage input:
    # model it as extra loads on the same input through mixing cells.
    top.wire("side", 16)
    top.comb_cloud("side_mix", ["g2"], "side")
    top.connect_bus("chip_out", iq, "dout")
    design.add_module(top.build())
    design.set_top("fig7_top")
    return design, ("uP", "uQ")


def test_fig7_dataflow_inference(benchmark):
    design, (name_p, name_q) = build_fig7_design()
    flat = flatten(design)
    tree = build_hierarchy(design, flat)
    gseq = build_gseq(build_gnet(flat), flat)
    result = decluster(tree.root, flat, 0.002, 0.9)
    by_name = {s.name: i for i, s in enumerate(result.blocks)}
    assert name_p in by_name and name_q in by_name

    def infer():
        return infer_affinity(gseq, result.blocks, [], lam=0.5,
                              latency_k=1.0)

    gdf, matrix = pedantic(benchmark, infer)

    ip, iq = by_name[name_p], by_name[name_q]
    edge = gdf.edge(ip, iq)
    assert edge is not None

    print("\nFig. 7: P -> Q block-flow histogram:")
    print(ascii_histogram(dict(edge.block_hist.items())))
    print("P -> Q macro-flow histogram:")
    print(ascii_histogram(dict(edge.macro_hist.items())))
    for k in (0.5, 1.0, 2.0):
        print(f"score(block, k={k}) = {edge.block_hist.score(k):7.2f}   "
              f"score(macro, k={k}) = {edge.macro_hist.score(k):7.2f}")

    # Block flow: the direct 16-bit hop at latency 1.
    assert edge.block_hist.bins.get(1) == 16
    # Macro flow: P's memory reaches Q's memory crossing the register
    # stages (out_reg -> in_reg -> mem = 3 cycles beyond the macro).
    assert edge.macro_hist.bins, "macro flow must discover mem->mem"
    assert min(edge.macro_hist.bins) >= 3
    # score decreases with k (latency decay).
    assert edge.block_hist.score(2.0) <= edge.block_hist.score(0.5)
    # The blended affinity matrix entry combines both flows.
    assert matrix[ip][iq] == pytest.approx(edge.affinity(0.5, 1.0))
