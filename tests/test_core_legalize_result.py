"""Tests for the legalizer."""

import pytest

from repro.core.legalize import legalize_macros
from repro.core.result import MacroPlacement, PlacedMacro
from repro.geometry.rect import Rect


def placement_with(rects, die=Rect(0, 0, 100, 100)):
    placement = MacroPlacement("d", "t", die)
    for i, rect in enumerate(rects):
        placement.macros[i] = PlacedMacro(i, f"m{i}", rect)
    return placement


class TestLegalize:
    def test_already_legal_untouched(self):
        placement = placement_with([Rect(0, 0, 10, 10),
                                    Rect(20, 0, 10, 10)])
        moved = legalize_macros(placement)
        assert moved == 0
        assert placement.macros[0].rect == Rect(0, 0, 10, 10)

    def test_resolves_overlap(self):
        placement = placement_with([Rect(0, 0, 10, 10),
                                    Rect(5, 0, 10, 10)])
        legalize_macros(placement)
        assert placement.macro_overlap_area() == pytest.approx(0.0)
        assert placement.macros_inside_die()

    def test_clamps_outside_die(self):
        placement = placement_with([Rect(-5, 95, 10, 10)])
        moved = legalize_macros(placement)
        assert moved == 1
        assert placement.macros_inside_die()

    def test_many_overlaps_converge(self):
        rects = [Rect(i * 2.0, i * 1.5, 12, 9) for i in range(8)]
        placement = placement_with(rects)
        legalize_macros(placement)
        assert placement.macro_overlap_area() == pytest.approx(0.0)
        assert placement.macros_inside_die()

    def test_footprints_preserved(self):
        placement = placement_with([Rect(0, 0, 10, 6), Rect(3, 2, 8, 8)])
        legalize_macros(placement)
        dims = sorted((p.rect.w, p.rect.h)
                      for p in placement.macros.values())
        assert dims == [(8, 8), (10, 6)]
