"""Fig. 2 — block-flow vs macro-flow connection graphs.

The paper's didactic system: four macro blocks A-D communicating through
a standard-cell block X.  Block-flow analysis sees the star pattern
A,B,C,D <-> X (Fig. 2a); macro-flow analysis reveals the chain
A -> B -> C -> D running *through* X (Fig. 2b).

The bench builds that system at netlist level, derives Gdf twice and
asserts exactly those two views.
"""


from benchmarks.conftest import pedantic
from repro.core.dataflow import infer_affinity
from repro.core.decluster import decluster
from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.gseq import build_gseq
from repro.hiergraph.hierarchy import build_hierarchy
from repro.netlist.builder import ModuleBuilder
from repro.netlist.core import Design
from repro.netlist.flatten import flatten
from tests.conftest import make_ram


WIDTH = 16


def _macro_block(design, name, ram):
    b = ModuleBuilder(name)
    b.input("din", WIDTH)
    b.output("dout", WIDTH)
    b.wire("to_m", WIDTH)
    b.wire("from_m", WIDTH)
    b.register_array("in_reg", WIDTH, d="din", q="to_m")
    inst = b.instance(ram, "mem")
    b.connect_bus("to_m", inst, "din")
    b.connect_bus("from_m", inst, "dout")
    b.register_array("out_reg", WIDTH, d="from_m", q="dout")
    module = b.build()
    design.add_module(module)
    return module


def _hub_block(design, name, n_channels):
    """The cell-only block X: every A->B hop passes through it."""
    b = ModuleBuilder(name)
    for k in range(n_channels):
        b.input(f"i{k}", WIDTH)
        b.output(f"o{k}", WIDTH)
        b.wire(f"m{k}", WIDTH)
        b.comb_cloud(f"mix{k}", [f"i{k}"], f"m{k}")
        b.register_array(f"ch{k}", WIDTH, d=f"m{k}", q=f"o{k}")
    module = b.build()
    design.add_module(module)
    return module


def build_fig2_design():
    """A -> X -> B -> X -> C -> X -> D, X being one hub block."""
    design = Design("fig2")
    ram = make_ram("RAMF2", WIDTH, 8.0, 6.0)
    blocks = {}
    for name in "ABCD":
        blocks[name] = _macro_block(design, f"blk_{name}", ram)
    hub = _hub_block(design, "hub", 3)

    top = ModuleBuilder("fig2_top")
    top.input("chip_in", WIDTH)
    top.output("chip_out", WIDTH)
    insts = {name: top.instance(blocks[name], f"u{name}")
             for name in "ABCD"}
    ix = top.instance(hub, "uX")
    wires = {}
    for w in ("a2x", "x2b", "b2x", "x2c", "c2x", "x2d"):
        top.wire(w, WIDTH)
        wires[w] = w
    top.connect_bus("chip_in", insts["A"], "din")
    top.connect_bus("a2x", insts["A"], "dout")
    top.connect_bus("a2x", ix, "i0")
    top.connect_bus("x2b", ix, "o0")
    top.connect_bus("x2b", insts["B"], "din")
    top.connect_bus("b2x", insts["B"], "dout")
    top.connect_bus("b2x", ix, "i1")
    top.connect_bus("x2c", ix, "o1")
    top.connect_bus("x2c", insts["C"], "din")
    top.connect_bus("c2x", insts["C"], "dout")
    top.connect_bus("c2x", ix, "i2")
    top.connect_bus("x2d", ix, "o2")
    top.connect_bus("x2d", insts["D"], "din")
    top.connect_bus("chip_out", insts["D"], "dout")
    design.add_module(top.build())
    design.set_top("fig2_top")
    return design


def test_fig2_block_vs_macro_flow(benchmark):
    design = build_fig2_design()
    flat = flatten(design)
    tree = build_hierarchy(design, flat)
    gnet = build_gnet(flat)
    gseq = build_gseq(gnet, flat)
    result = decluster(tree.root, flat, 0.005, 0.60)
    names = [s.name for s in result.blocks]
    assert set(names) == {"uA", "uB", "uC", "uD", "uX"}

    def infer():
        return infer_affinity(gseq, result.blocks, [], lam=0.5,
                              latency_k=1.0)

    gdf, _matrix = pedantic(benchmark, infer)

    index = {s.name: i for i, s in enumerate(result.blocks)}
    print("\nFig. 2a block-flow edges (direct physical connections):")
    block_edges = set()
    macro_edges = set()
    for (i, j), edge in sorted(gdf.edges.items()):
        a, b = gdf.nodes[i].name, gdf.nodes[j].name
        if not edge.block_hist.is_empty():
            block_edges.add((a, b))
            print(f"  {a} -> {b}: {dict(edge.block_hist.items())}")
    print("Fig. 2b macro-flow edges (global dataflow):")
    for (i, j), edge in sorted(gdf.edges.items()):
        a, b = gdf.nodes[i].name, gdf.nodes[j].name
        if not edge.macro_hist.is_empty():
            macro_edges.add((a, b))
            print(f"  {a} -> {b}: {dict(edge.macro_hist.items())}")

    # Fig. 2a: block flow is the star around X — every macro block
    # talks to X, none talks directly to another macro block.
    for name in "ABCD":
        assert (f"u{name}", "uX") in block_edges \
            or ("uX", f"u{name}") in block_edges
    for a in "ABCD":
        for b in "ABCD":
            assert (f"u{a}", f"u{b}") not in block_edges

    # Fig. 2b: macro flow reveals the chain A->B->C->D through X.
    assert ("uA", "uB") in macro_edges
    assert ("uB", "uC") in macro_edges
    assert ("uC", "uD") in macro_edges
    assert ("uA", "uD") not in macro_edges      # only via longer latency
