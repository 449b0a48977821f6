"""Tests for hierarchical declustering (Algorithm 3)."""

import pytest

from repro.core.decluster import decluster, open_single_block
from repro.hiergraph.hierarchy import build_hierarchy
from repro.netlist.builder import ModuleBuilder
from repro.netlist.core import Design
from repro.netlist.flatten import flatten
from tests.conftest import make_ram, make_stage


def build_mixed_design():
    """top
        - big_glue   (large, no macros; should be OPENED)
            - glue_a (small)     -> HCG
            - glue_b (small)     -> HCG
        - macro_sub  (macros)    -> HCB
        - tiny_glue  (small)     -> HCG
    """
    ram = make_ram()

    def glue_module(name, width, cells):
        b = ModuleBuilder(name)
        b.input("i", width).output("o", width)
        b.comb_cloud("c", ["i"], "o", n_cells=cells)
        return b.build()

    glue_a = glue_module("glue_a", 8, 40)
    glue_b = glue_module("glue_b", 8, 40)
    big = ModuleBuilder("big_glue")
    big.input("i", 8).output("o", 8)
    big.wire("m", 8)
    ia = big.instance(glue_a, "ga")
    ib = big.instance(glue_b, "gb")
    big.connect_bus("i", ia, "i")
    big.connect_bus("m", ia, "o")
    big.connect_bus("m", ib, "i")
    big.connect_bus("o", ib, "o")

    macro_sub = make_stage("macro_sub", 8, ram)
    tiny = glue_module("tiny_glue", 8, 4)

    top = ModuleBuilder("top")
    top.input("pin", 8).output("pout", 8)
    top.wire("w1", 8)
    top.wire("w2", 8)
    i1 = top.instance(big.build(), "big")
    i2 = top.instance(macro_sub, "ms")
    i3 = top.instance(tiny, "tg")
    top.connect_bus("pin", i1, "i")
    top.connect_bus("w1", i1, "o")
    top.connect_bus("w1", i2, "din")
    top.connect_bus("w2", i2, "dout")
    top.connect_bus("w2", i3, "i")
    top.connect_bus("pout", i3, "o")

    design = Design("mixed")
    for mod in (glue_a, glue_b, top.module.instances["big"].ref,
                macro_sub, tiny):
        design.add_module(mod)
    design.add_module(top.build())
    design.set_top("top")
    return design


@pytest.fixture(scope="module")
def mixed():
    design = build_mixed_design()
    flat = flatten(design)
    tree = build_hierarchy(design, flat)
    return flat, tree


class TestDecluster:
    def test_macro_node_becomes_block(self, mixed):
        flat, tree = mixed
        result = decluster(tree.root, flat, min_area_frac=0.05,
                           open_area_frac=0.40)
        block_names = {b.name for b in result.blocks}
        assert "ms" in block_names

    def test_big_glue_opened(self, mixed):
        flat, tree = mixed
        result = decluster(tree.root, flat, min_area_frac=0.05,
                           open_area_frac=0.40)
        names = {b.name for b in result.blocks}
        glue_names = {g.path for g in result.glue}
        # big_glue itself never appears; its children do (as HCG or HCB
        # depending on their size vs min_area).
        assert "big" not in names
        assert "big" not in glue_names
        assert ("big/ga" in names | glue_names)

    def test_small_nodes_are_glue(self, mixed):
        flat, tree = mixed
        # tg is ~5.2% of the area: below an 8% threshold it is glue.
        result = decluster(tree.root, flat, min_area_frac=0.08,
                           open_area_frac=0.40)
        assert any(g.path == "tg" for g in result.glue)

    def test_midsize_glue_free_node_is_soft_block(self, mixed):
        flat, tree = mixed
        # With a tiny min_area, the opened big_glue children become
        # soft blocks rather than glue.
        result = decluster(tree.root, flat, min_area_frac=0.001,
                           open_area_frac=0.40)
        names = {b.name for b in result.blocks}
        assert "big/ga" in names
        assert "big/gb" in names

    def test_direct_macros_become_pseudo_blocks(self, two_stage_design,
                                                two_stage_flat):
        tree = build_hierarchy(two_stage_design, two_stage_flat)
        sa = tree.node("sa")
        result = decluster(sa, two_stage_flat, 0.01, 0.40)
        macro_seeds = [b for b in result.blocks if b.is_macro_seed]
        assert len(macro_seeds) == 1
        assert macro_seeds[0].name == "sa/mem"
        assert macro_seeds[0].macro_count() == 1

    def test_loose_glue_collected(self, two_stage_design, two_stage_flat):
        tree = build_hierarchy(two_stage_design, two_stage_flat)
        sa = tree.node("sa")
        result = decluster(sa, two_stage_flat, 0.01, 0.40)
        # sa's 16 flops (8-bit in_reg + out_reg) are direct cells of an
        # opened node -> loose glue.
        assert len(result.loose_glue_cells) == 16

    def test_seed_accessors(self, two_stage_design, two_stage_flat):
        tree = build_hierarchy(two_stage_design, two_stage_flat)
        result = decluster(tree.root, two_stage_flat, 0.01, 0.40)
        for seed in result.blocks:
            assert seed.area(two_stage_flat) > 0
            assert seed.macro_count() >= 0
            assert isinstance(seed.macros(), list)


class TestOpenSingleBlock:
    def test_descends_through_wrapper(self):
        """A top that only wraps one subsystem declusters through it."""
        ram = make_ram()
        inner = make_stage("inner", 8, ram)
        wrapper = ModuleBuilder("wrap")
        wrapper.input("i", 8).output("o", 8)
        inst = wrapper.instance(inner, "u")
        wrapper.connect_bus("i", inst, "din")
        wrapper.connect_bus("o", inst, "dout")
        top = ModuleBuilder("top")
        top.input("i", 8).output("o", 8)
        wi = top.instance(wrapper.build(), "w")
        top.connect_bus("i", wi, "i")
        top.connect_bus("o", wi, "o")
        design = Design("wrapped")
        design.add_module(inner)
        design.add_module(top.module.instances["w"].ref)
        design.add_module(top.build())
        design.set_top("top")
        flat = flatten(design)
        tree = build_hierarchy(design, flat)
        result = open_single_block(tree.root, flat, 0.01, 0.40)
        # Descended past 'w' and into 'w/u', exposing the macro.
        assert any(b.is_macro_seed for b in result.blocks)
