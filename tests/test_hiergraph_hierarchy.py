"""Tests for the hierarchy tree HT."""

import pytest

from repro.hiergraph.hierarchy import build_hierarchy


class TestHierarchy:
    def test_structure(self, two_stage_design, two_stage_flat):
        tree = build_hierarchy(two_stage_design, two_stage_flat)
        assert tree.root.module_name == "top"
        assert {c.path for c in tree.root.children} == {"sa", "sb"}
        assert len(tree) == 3

    def test_aggregates(self, two_stage_design, two_stage_flat):
        tree = build_hierarchy(two_stage_design, two_stage_flat)
        root = tree.root
        assert root.macro_count == 2
        assert root.cell_count == 34
        assert root.area == pytest.approx(80.0)
        sa = tree.node("sa")
        assert sa.macro_count == 1
        assert sa.stdcell_area == pytest.approx(16.0)
        assert sa.macro_area == pytest.approx(24.0)

    def test_own_vs_subtree_macros(self, two_stage_design, two_stage_flat):
        tree = build_hierarchy(two_stage_design, two_stage_flat)
        root = tree.root
        assert root.own_macros == []
        assert len(root.macros) == 2
        sa = tree.node("sa")
        assert len(sa.own_macros) == 1
        assert sa.macros == sa.own_macros

    def test_node_of_cell(self, two_stage_design, two_stage_flat):
        tree = build_hierarchy(two_stage_design, two_stage_flat)
        mem = two_stage_flat.cell_by_path("sa/mem")
        assert tree.node_of_cell(mem).path == "sa"

    def test_walk_preorder(self, two_stage_design, two_stage_flat):
        tree = build_hierarchy(two_stage_design, two_stage_flat)
        paths = [n.path for n in tree.root.walk()]
        assert paths[0] == ""
        assert set(paths) == {"", "sa", "sb"}

    def test_subtree_cells(self, two_stage_design, two_stage_flat):
        tree = build_hierarchy(two_stage_design, two_stage_flat)
        cells = list(tree.node("sa").subtree_cells())
        assert len(cells) == 17

    def test_suite_depth(self, tiny_c1, tiny_c1_flat):
        tree = build_hierarchy(tiny_c1[0], tiny_c1_flat)
        depths = {}
        for node in tree.root.walk():
            depth = node.path.count("/") + (1 if node.path else 0)
            depths[depth] = depths.get(depth, 0) + 1
        # top -> subsystems -> stages/banks: at least 3 levels.
        assert max(depths) >= 2
        # Area aggregation is conservative.
        child_sum = sum(c.area for c in tree.root.children)
        own = sum(tiny_c1_flat.cells[i].ctype.area
                  for i in tree.root.own_cells)
        assert tree.root.area == pytest.approx(child_sum + own)
