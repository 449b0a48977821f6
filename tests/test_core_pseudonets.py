"""Tests for the hierarchy pseudo-net affinity alternative."""

import pytest

from repro.core import HiDaP, HiDaPConfig
from repro.core.config import Effort
from repro.core.dataflow import TerminalSpec
from repro.core.decluster import BlockSeed, decluster
from repro.core.pseudonets import (
    hierarchy_distance,
    pseudonet_affinity,
)
from repro.geometry.rect import Point
from repro.hiergraph.hierarchy import build_hierarchy


class TestHierarchyDistance:
    def test_same_node(self):
        assert hierarchy_distance("a/b", "a/b") == 0

    def test_siblings(self):
        assert hierarchy_distance("a/x", "a/y") == 2

    def test_parent_child(self):
        assert hierarchy_distance("a", "a/b") == 1

    def test_unrelated(self):
        assert hierarchy_distance("a/x", "b/y") == 4

    def test_root(self):
        assert hierarchy_distance("", "a/b") == 2


class TestPseudonetAffinity:
    def seeds(self, two_stage_design, two_stage_flat):
        tree = build_hierarchy(two_stage_design, two_stage_flat)
        return decluster(tree.root, two_stage_flat, 0.01, 0.40).blocks

    def test_matrix_shape(self, two_stage_design, two_stage_flat):
        seeds = self.seeds(two_stage_design, two_stage_flat)
        terms = [TerminalSpec("pin", Point(0, 0), [])]
        matrix = pseudonet_affinity(seeds, terms)
        assert len(matrix) == len(seeds) + 1

    def test_symmetric_nonnegative(self, two_stage_design, two_stage_flat):
        seeds = self.seeds(two_stage_design, two_stage_flat)
        matrix = pseudonet_affinity(seeds, [])
        n = len(seeds)
        for i in range(n):
            assert matrix[i][i] == 0.0
            for j in range(n):
                assert matrix[i][j] == matrix[j][i] >= 0

    def test_closer_means_stronger(self):
        near_a = BlockSeed(name="sub/x", node=None, macro_cell=0)
        near_b = BlockSeed(name="sub/y", macro_cell=1)
        far = BlockSeed(name="other/deep/z", macro_cell=2)
        matrix = pseudonet_affinity([near_a, near_b, far], [])
        assert matrix[0][1] > matrix[0][2]


class TestPlacerIntegration:
    def test_pseudonet_mode_places_legally(self, tiny_c1):
        design, _truth, die_w, die_h = tiny_c1
        config = HiDaPConfig(seed=1, affinity_mode="pseudonet",
                             effort=Effort.FAST)
        placement = HiDaP(config).place(design, die_w, die_h)
        assert len(placement.macros) == 32
        assert placement.macro_overlap_area() == pytest.approx(0.0)
        assert placement.macros_inside_die()

    def test_modes_differ(self, tiny_c1):
        design, _truth, die_w, die_h = tiny_c1
        a = HiDaP(HiDaPConfig(seed=1, affinity_mode="dataflow",
                              effort=Effort.FAST)).place(
            design, die_w, die_h)
        b = HiDaP(HiDaPConfig(seed=1, affinity_mode="pseudonet",
                              effort=Effort.FAST)).place(
            design, die_w, die_h)
        ra = sorted((p.rect.x, p.rect.y) for p in a.macros.values())
        rb = sorted((p.rect.x, p.rect.y) for p in b.macros.values())
        assert ra != rb

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="affinity mode"):
            HiDaPConfig(affinity_mode="vibes")
