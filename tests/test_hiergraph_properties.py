"""Property-based tests of Gseq construction over random pipelines."""

from hypothesis import given, settings, strategies as st

from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.gseq import build_gseq
from repro.netlist.builder import ModuleBuilder
from repro.netlist.flatten import flatten

from tests.conftest import single_module_design


def build_pipeline(widths, with_clouds):
    """A register pipeline r0 -> r1 -> ... with optional comb clouds."""
    b = ModuleBuilder("pipe")
    max_w = max(widths)
    b.input("din", max_w)
    b.output("dout", max_w)
    current = "din"
    current_w = max_w
    for i, width in enumerate(widths):
        reg_in = current
        if with_clouds:
            cloud = f"c{i}"
            b.wire(cloud, width)
            b.comb_cloud(f"cloud{i}", [current], cloud)
            reg_in = cloud
        out = f"w{i}" if i < len(widths) - 1 else "dout"
        if out != "dout":
            b.wire(out, width)
        if reg_in == current and current_w < width:
            # Narrower upstream bus: drive through a cloud instead.
            cloud = f"pad{i}"
            b.wire(cloud, width)
            b.comb_cloud(f"padc{i}", [current], cloud)
            reg_in = cloud
        if out == "dout" and width < max_w:
            # Keep the final connection width-safe via a cloud.
            mid = f"fin{i}"
            b.wire(mid, width)
            b.register_array(f"r{i}", width, d=reg_in, q=mid)
            b.comb_cloud("out_cloud", [mid], "dout")
        else:
            b.register_array(f"r{i}", width, d=reg_in, q=out)
        current = out
        current_w = width
    return single_module_design(b)


widths_strategy = st.lists(st.integers(min_value=2, max_value=24),
                           min_size=2, max_size=6)


class TestGseqProperties:
    @settings(max_examples=40, deadline=None)
    @given(widths_strategy, st.booleans())
    def test_pipeline_structure_recovered(self, widths, with_clouds):
        design = build_pipeline(widths, with_clouds)
        flat = flatten(design)
        gseq = build_gseq(build_gnet(flat), flat, min_bits=1)

        # One register cluster per stage, with the declared width.
        regs = {node.name: node for node in gseq.registers()}
        assert len(regs) == len(widths)
        for i, width in enumerate(widths):
            assert regs[f"r{i}"].bits == width

        # Edges run strictly forward along the pipeline.
        for (u, v), bits in gseq.edge_bits.items():
            nu, nv = gseq.nodes[u], gseq.nodes[v]
            if nu.name.startswith("r") and nv.name.startswith("r"):
                assert int(nu.name[1:]) < int(nv.name[1:])
            # Edge width never exceeds either endpoint's bitwidth
            # (comb clouds cannot widen a bus).
            assert bits <= max(nu.bits, nv.bits)

    @settings(max_examples=20, deadline=None)
    @given(widths_strategy)
    def test_threshold_monotone(self, widths):
        """Raising min_bits never increases the node count."""
        design = build_pipeline(widths, with_clouds=False)
        flat = flatten(design)
        gnet = build_gnet(flat)
        sizes = [build_gseq(gnet, flat, min_bits=m).n_nodes
                 for m in (1, 4, 16)]
        assert sizes == sorted(sizes, reverse=True)
