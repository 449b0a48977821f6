"""Tests for Gseq construction: collapse, clustering, thresholding."""


from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.gseq import build_gseq
from repro.netlist.builder import ModuleBuilder
from repro.netlist.flatten import flatten

from tests.conftest import single_module_design


def gseq_of(design, min_bits=1):
    flat = flatten(design)
    return build_gseq(build_gnet(flat), flat, min_bits=min_bits), flat


class TestClustering:
    def test_register_arrays_clustered(self, two_stage_flat):
        gseq = build_gseq(build_gnet(two_stage_flat), two_stage_flat)
        regs = gseq.registers()
        names = {r.name for r in regs}
        assert "sa/in_reg" in names
        assert all(r.bits == 8 for r in regs)
        assert len(regs) == 4

    def test_macros_individual(self, two_stage_flat):
        gseq = build_gseq(build_gnet(two_stage_flat), two_stage_flat)
        macros = gseq.macros()
        assert {m.name for m in macros} == {"sa/mem", "sb/mem"}
        assert all(m.bits == 8 for m in macros)   # dout width

    def test_ports_multibit(self, two_stage_flat):
        gseq = build_gseq(build_gnet(two_stage_flat), two_stage_flat)
        ports = {p.name: p.bits for p in gseq.ports()}
        assert ports == {"pin": 8, "pout": 8}


class TestCombCollapse:
    def test_comb_path_creates_edge(self):
        b = ModuleBuilder("m")
        b.input("a", 4).output("z", 4)
        b.wire("w1", 4)
        b.wire("w2", 4)
        b.register_array("src", 4, d="a", q="w1")
        b.comb_cloud("cloud", ["w1"], "w2")
        b.register_array("dst", 4, d="w2", q="z")
        gseq, _flat = gseq_of(single_module_design(b))
        src = gseq.node_by_name("src")
        dst = gseq.node_by_name("dst")
        assert (src.index, dst.index) in gseq.edge_bits
        # All 4 bits travel.
        assert gseq.edge_bits[(src.index, dst.index)] == 4

    def test_direct_flop_to_flop_edge(self):
        b = ModuleBuilder("m")
        b.input("a", 2).output("z", 2)
        b.wire("w", 2)
        b.register_array("r0", 2, d="a", q="w")
        b.register_array("r1", 2, d="w", q="z")
        gseq, _flat = gseq_of(single_module_design(b))
        r0 = gseq.node_by_name("r0")
        r1 = gseq.node_by_name("r1")
        assert (r0.index, r1.index) in gseq.edge_bits

    def test_no_edge_through_registers(self):
        """Collapse stops at sequential elements: r0 -> r2 must not
        appear when r1 sits between them."""
        b = ModuleBuilder("m")
        b.input("a", 2).output("z", 2)
        b.wire("w0", 2)
        b.wire("w1", 2)
        b.register_array("r0", 2, d="a", q="w0")
        b.register_array("r1", 2, d="w0", q="w1")
        b.register_array("r2", 2, d="w1", q="z")
        gseq, _flat = gseq_of(single_module_design(b))
        r0 = gseq.node_by_name("r0")
        r2 = gseq.node_by_name("r2")
        assert (r0.index, r2.index) not in gseq.edge_bits

    def test_macro_edge_width_uses_destinations(self, two_stage_flat):
        """A macro is one Gnet vertex; its outgoing edge width must
        still reflect the full bus width."""
        gseq = build_gseq(build_gnet(two_stage_flat), two_stage_flat)
        mem = gseq.node_by_name("sa/mem")
        out = gseq.node_by_name("sa/out_reg")
        assert gseq.edge_bits[(mem.index, out.index)] == 8


class TestThreshold:
    def test_narrow_registers_dropped(self):
        b = ModuleBuilder("m")
        b.input("a", 8).output("z", 8)
        b.wire("w", 8)
        b.input("c", 1)
        b.wire("cw", 1)
        b.register_array("wide", 8, d="a", q="w")
        b.register_array("narrow", 1, d="c", q="cw")
        b.register_array("wide2", 8, d="w", q="z")
        design = single_module_design(b)
        gseq_all, _ = gseq_of(design, min_bits=1)
        assert any(n.name == "narrow" for n in gseq_all.nodes)
        gseq_cut, _ = gseq_of(design, min_bits=4)
        assert not any(n.name == "narrow" for n in gseq_cut.nodes)
        # Macros and ports survive any threshold.
        assert len(gseq_cut.ports()) == len(gseq_all.ports())

    def test_indices_contiguous_after_filter(self):
        b = ModuleBuilder("m")
        b.input("a", 8).output("z", 8)
        b.wire("w", 8)
        b.input("c", 1)
        b.wire("cw", 1)
        b.register_array("wide", 8, d="a", q="w")
        b.register_array("narrow", 1, d="c", q="cw")
        b.register_array("wide2", 8, d="w", q="z")
        gseq, _ = gseq_of(single_module_design(b), min_bits=4)
        for i, node in enumerate(gseq.nodes):
            assert node.index == i
        for u, v in gseq.edge_bits:
            assert 0 <= u < gseq.n_nodes
            assert 0 <= v < gseq.n_nodes
