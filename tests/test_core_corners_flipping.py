"""Tests for corner placement and the flipping post-pass."""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import prepare_suite_design
from repro.core.config import Effort, HiDaPConfig
from repro.core.corners import corner_candidates, place_single_macro
from repro.core.flipping import _flip_macros_loop, flip_macros
from repro.core.hidap import HiDaP
from repro.core.result import MacroPlacement, PlacedMacro
from repro.gen.designs import build_design, suite_specs
from repro.geometry.orientation import Orientation
from repro.geometry.rect import Point, Rect
from repro.netlist.flatten import FlatNet, flatten


class TestCornerCandidates:
    def test_four_corners(self):
        region = Rect(0, 0, 10, 10)
        rects = corner_candidates(region, 3, 2)
        assert len(rects) == 4
        for rect in rects:
            assert region.contains_rect(rect)
        corners = {(r.x, r.y) for r in rects}
        assert (0, 0) in corners
        assert (7, 8) in corners

    def test_oversized_centered(self):
        region = Rect(0, 0, 4, 4)
        rects = corner_candidates(region, 6, 2)
        assert len(rects) == 1
        assert rects[0].center.x == pytest.approx(region.center.x)


class TestPlaceSingleMacro:
    def test_attracted_to_nearest_corner(self):
        region = Rect(0, 0, 10, 10)
        rect, orient = place_single_macro(
            region, 2, 2, [(Point(20, 20), 1.0)])
        assert (rect.x, rect.y) == (8, 8)

    def test_rotation_chosen_when_it_fits_better(self):
        region = Rect(0, 0, 3, 12)       # slim column
        rect, orient = place_single_macro(
            region, 8, 2, [(Point(0, 0), 1.0)])
        assert orient is Orientation.E
        assert region.contains_rect(rect)

    def test_no_attraction_prefers_center(self):
        region = Rect(0, 0, 10, 10)
        rect, _orient = place_single_macro(region, 2, 2, [])
        # All corners tie by symmetry; the result must be a corner and
        # the call must not crash.
        assert region.contains_rect(rect)

    def test_contained_beats_closer_overflow(self):
        """An in-region option always beats an out-of-region one."""
        region = Rect(0, 0, 10, 5)
        rect, _ = place_single_macro(region, 4, 4,
                                     [(Point(5, 100), 1.0)])
        assert region.contains_rect(rect)


def _macro_placement(flat):
    """Place the two macros of the two-stage design manually."""
    placement = MacroPlacement("two_stage", "test",
                               Rect(0, 0, 100, 40))
    placement.block_rects[""] = placement.die
    mem_a = flat.cell_by_path("sa/mem")
    mem_b = flat.cell_by_path("sb/mem")
    placement.macros[mem_a.index] = PlacedMacro(
        mem_a.index, mem_a.path, Rect(10, 10, 6, 4))
    placement.macros[mem_b.index] = PlacedMacro(
        mem_b.index, mem_b.path, Rect(60, 10, 6, 4))
    placement.block_rects["sa"] = Rect(0, 0, 50, 40)
    placement.block_rects["sb"] = Rect(50, 0, 50, 40)
    return placement


class TestFlipping:
    def test_flip_reduces_or_keeps_hpwl(self, two_stage_flat):
        placement = _macro_placement(two_stage_flat)

        def total_macro_hpwl():
            from repro.core.flipping import _collect_nets, _net_hpwl
            nets = _collect_nets(two_stage_flat, placement, {})
            return sum(_net_hpwl(fn, two_stage_flat, placement)
                       for fn in nets)

        before = total_macro_hpwl()
        flips = flip_macros(two_stage_flat, placement)
        after = total_macro_hpwl()
        assert after <= before + 1e-9
        assert flips >= 0

    def test_footprints_unchanged(self, two_stage_flat):
        placement = _macro_placement(two_stage_flat)
        rects_before = {i: p.rect for i, p in placement.macros.items()}
        flip_macros(two_stage_flat, placement)
        for i, placed in placement.macros.items():
            assert placed.rect == rects_before[i]
            assert not placed.orientation.swaps_sides

    def test_fixpoint(self, two_stage_flat):
        """A second run changes nothing."""
        placement = _macro_placement(two_stage_flat)
        flip_macros(two_stage_flat, placement)
        orients = {i: p.orientation for i, p in placement.macros.items()}
        again = flip_macros(two_stage_flat, placement)
        assert again == 0
        assert orients == {i: p.orientation
                           for i, p in placement.macros.items()}

    def test_pin_positions_respect_orientation(self, two_stage_flat):
        placement = _macro_placement(two_stage_flat)
        mem_a = two_stage_flat.cell_by_path("sa/mem")
        placed = placement.macros[mem_a.index]
        placed.orientation = Orientation.N
        west = placed.pin_position(two_stage_flat, "din", 0)
        placed.orientation = Orientation.FN
        east = placed.pin_position(two_stage_flat, "din", 0)
        # Mirroring about Y moves a west-edge pin to the east edge.
        assert west.x == pytest.approx(placed.rect.x)
        assert east.x == pytest.approx(placed.rect.x2)


def _flip_both(flat, placement, port_positions):
    """``(flips, orientations)`` of the array pass and of the loop oracle,
    each run on its own copy of ``placement``."""
    outcomes = []
    for flip in (flip_macros, _flip_macros_loop):
        copied = copy.deepcopy(placement)
        flips = flip(flat, copied, port_positions)
        outcomes.append((flips, [(i, copied.macros[i].orientation)
                                 for i in sorted(copied.macros)]))
    return outcomes


class TestFlipEquivalence:
    """The array pass makes exactly the loop oracle's decisions."""

    @pytest.mark.parametrize("name", ["c1", "c2", "c3", "c4", "c5"])
    def test_suite_design_pre_flip_placement(self, name):
        prepared = prepare_suite_design(name, "tiny")
        placer = HiDaP(HiDaPConfig(seed=1, effort=Effort.FAST,
                                   flipping=False))
        placement = placer.place(prepared.flat, prepared.die_w,
                                 prepared.die_h, gnet=prepared.gnet,
                                 gseq=prepared.gseq, tree=prepared.tree)
        array, loop = _flip_both(prepared.flat, placement,
                                 placer.artifacts.port_positions)
        assert array == loop
        assert array[0] > 0

    @pytest.fixture(scope="class")
    def generated(self):
        """Tiny c1 plus three hand-made nets: several pins of one macro
        with a standard cell, macro pins only (no static point), and two
        pins of one macro alone."""
        design, _truth = build_design(suite_specs("tiny")[0])
        flat = flatten(design)
        m0, m1, m2 = (cell.index for cell in flat.macros()[:3])
        std = next(cell.index for cell in flat.cells if not cell.is_macro)
        for endpoints in (
                [(m0, "din", 0), (m0, "dout", 0), (m0, "din", 1),
                 (std, "a", 0)],
                [(m0, "dout", 1), (m1, "din", 1)],
                [(m2, "din", 2), (m2, "dout", 2)]):
            flat.nets.append(FlatNet(len(flat.nets), "extra", endpoints))
        return flat

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_placements(self, generated, seed):
        flat = generated
        rng = random.Random(seed)

        def coord():
            # Half-integer grids make equal-cost ties common.
            value = rng.uniform(0.0, 300.0)
            return round(value * 2) / 2 if rng.random() < 0.5 else value

        placement = MacroPlacement("c1", "test", Rect(0, 0, 300, 300))
        macros = flat.macros()
        unplaced = {macros[3].index}
        unplaced.update(cell.index for cell in macros
                        if rng.random() < 0.15)
        for cell in macros:
            if cell.index in unplaced:
                continue
            orient = rng.choice(list(Orientation))
            w, h = orient.footprint(cell.ctype.width, cell.ctype.height)
            placement.macros[cell.index] = PlacedMacro(
                cell.index, cell.path, Rect(coord(), coord(), w, h),
                orient)
        for path in sorted({cell.module_path for cell in flat.cells}):
            if rng.random() < 0.6:
                placement.block_rects[path] = Rect(
                    coord(), coord(), rng.uniform(1.0, 80.0),
                    rng.uniform(1.0, 80.0))
        ports = {name: Point(coord(), coord())
                 for name in sorted(flat.design.top.ports)
                 if rng.random() < 0.7}
        array, loop = _flip_both(flat, placement, ports)
        assert array == loop
