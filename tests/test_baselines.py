"""Tests for the IndEDA and handFP baseline flows."""

import pytest

from repro.baselines.common import (
    macro_affinity_matrix,
    pack_perimeter,
)
from repro.baselines.handfp import place_handfp
from repro.baselines.indeda import place_indeda
from repro.geometry.rect import Rect
from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.gseq import build_gseq


class TestPackPerimeter:
    def test_all_placed_disjoint(self):
        die = Rect(0, 0, 40, 40)
        dims = [(6, 3)] * 10
        rects = pack_perimeter(die, dims)
        assert len(rects) == 10
        from repro.geometry.rect import total_overlap_area
        assert total_overlap_area(rects) == pytest.approx(0.0)
        for rect in rects:
            assert die.contains_rect(rect, tol=1e-6)

    def test_items_touch_walls_first_ring(self):
        die = Rect(0, 0, 100, 100)
        dims = [(8, 4)] * 6
        rects = pack_perimeter(die, dims)
        for rect in rects:
            on_wall = (rect.x == 0 or rect.y == 0
                       or rect.x2 == 100 or rect.y2 == 100)
            assert on_wall

    def test_long_side_along_wall(self):
        die = Rect(0, 0, 100, 100)
        rects = pack_perimeter(die, [(10, 3)])
        # West wall: depth (x-extent) is the short side.
        assert rects[0].w == 3
        assert rects[0].h == 10

    def test_second_ring_when_full(self):
        die = Rect(0, 0, 20, 20)
        dims = [(6, 2)] * 14          # perimeter fits ~12
        rects = pack_perimeter(die, dims)
        assert len(rects) == 14
        assert all(r is not None for r in rects)
        from repro.geometry.rect import total_overlap_area
        assert total_overlap_area(rects) < 1e-6


class TestMacroAffinity:
    def test_matrix_shape_and_names(self, two_stage_flat):
        gseq = build_gseq(build_gnet(two_stage_flat), two_stage_flat)
        cells, matrix, ports = macro_affinity_matrix(
            gseq, two_stage_flat, lam=0.5, latency_k=1.0)
        assert len(cells) == 2
        assert set(ports) == {"pin", "pout"}
        assert len(matrix) == 4
        # Macro flow connects the two memories (latency 3 path).
        assert matrix[0][1] + matrix[1][0] > 0

    def test_second_call_reuses_the_gdf(self, two_stage_flat,
                                        monkeypatch):
        from repro.baselines import common

        gseq = build_gseq(build_gnet(two_stage_flat), two_stage_flat)
        first = macro_affinity_matrix(gseq, two_stage_flat, lam=0.5,
                                      latency_k=1.0)
        builds = []
        real = common.build_gdf
        monkeypatch.setattr(
            common, "build_gdf",
            lambda *args: builds.append(args) or real(*args))
        second = macro_affinity_matrix(gseq, two_stage_flat, lam=0.5,
                                       latency_k=1.0)
        assert builds == []
        assert second == first
        # Another blend is its own entry, with a Gdf of its own.
        macro_affinity_matrix(gseq, two_stage_flat, lam=0.5,
                              latency_k=2.0)
        assert len(builds) == 1

    def test_cached_result_cannot_be_mutated(self, two_stage_flat):
        gseq = build_gseq(build_gnet(two_stage_flat), two_stage_flat)
        cells, matrix, ports = macro_affinity_matrix(
            gseq, two_stage_flat, lam=0.5, latency_k=1.0)
        for part in (cells, matrix, matrix[0], ports):
            with pytest.raises(TypeError):
                part[0] = part[0]


class TestIndEDA:
    def test_legal_placement(self, tiny_c1_flat, tiny_c1):
        _design, _truth, die_w, die_h = tiny_c1
        placement = place_indeda(tiny_c1_flat, die_w, die_h)
        assert len(placement.macros) == 32
        assert placement.macro_overlap_area() == pytest.approx(0.0)
        assert placement.macros_inside_die()

    def test_macros_on_walls(self, tiny_c1_flat, tiny_c1):
        """The signature industrial behaviour: macros hug the die
        boundary (paper Fig. 9a)."""
        _design, _truth, die_w, die_h = tiny_c1
        placement = place_indeda(tiny_c1_flat, die_w, die_h)
        on_wall = 0
        for placed in placement.macros.values():
            rect = placed.rect
            if (rect.x < 1e-6 or rect.y < 1e-6
                    or rect.x2 > die_w - 1e-6 or rect.y2 > die_h - 1e-6):
                on_wall += 1
        assert on_wall >= len(placement.macros) * 0.5

    def test_deterministic(self, tiny_c1_flat, tiny_c1):
        _design, _truth, die_w, die_h = tiny_c1
        a = place_indeda(tiny_c1_flat, die_w, die_h)
        b = place_indeda(tiny_c1_flat, die_w, die_h)
        assert {i: p.rect for i, p in a.macros.items()} \
            == {i: p.rect for i, p in b.macros.items()}


class TestHandFP:
    def test_legal_placement(self, tiny_c1_flat, tiny_c1):
        _design, truth, die_w, die_h = tiny_c1
        placement = place_handfp(tiny_c1_flat, truth, die_w, die_h)
        assert len(placement.macros) == 32
        assert placement.macro_overlap_area() == pytest.approx(0.0)
        assert placement.macros_inside_die()

    def test_strips_follow_ground_truth_order(self, tiny_c1_flat,
                                              tiny_c1):
        _design, truth, die_w, die_h = tiny_c1
        placement = place_handfp(tiny_c1_flat, truth, die_w, die_h)
        # Strip rects are recorded per subsystem, ordered left→right.
        xs = [placement.block_rects[name].x for name in truth.order]
        assert xs == sorted(xs)

    def test_macros_in_their_strips(self, tiny_c1_flat, tiny_c1):
        _design, truth, die_w, die_h = tiny_c1
        placement = place_handfp(tiny_c1_flat, truth, die_w, die_h)
        for inst_name in truth.order:
            strip = placement.block_rects[inst_name]
            for path in truth.subsystem_macros[inst_name]:
                cell = tiny_c1_flat.cell_by_path(path)
                placed = placement.macros[cell.index]
                assert strip.contains_rect(placed.rect, tol=1e-6)
