"""Unit + property tests for rectangles and points."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry.rect import Point, Rect, total_overlap_area

coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False,
                   allow_infinity=False)
sides = st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                  allow_infinity=False)
rects = st.builds(Rect, coords, coords, sides, sides)


class TestPoint:
    def test_manhattan(self):
        assert Point(0, 0).manhattan(Point(3, 4)) == 7

    @given(coords, coords, coords, coords)
    def test_manhattan_symmetric(self, x0, y0, x1, y1):
        a, b = Point(x0, y0), Point(x1, y1)
        assert a.manhattan(b) == pytest.approx(b.manhattan(a))


class TestRect:
    def test_basic_properties(self):
        r = Rect(1, 2, 3, 4)
        assert r.x2 == 4
        assert r.y2 == 6
        assert r.area == 12
        assert r.center == Point(2.5, 4.0)

    def test_negative_sides_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, -1, 5)
        with pytest.raises(ValueError):
            Rect(0, 0, 5, -0.1)

    def test_contains_point(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains_point(Point(5, 5))
        assert r.contains_point(Point(0, 0))
        assert not r.contains_point(Point(10.1, 5))

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(1, 1, 3, 3))
        assert outer.contains_rect(outer)
        assert not outer.contains_rect(Rect(8, 8, 3, 3))

    def test_overlap_detection(self):
        a = Rect(0, 0, 4, 4)
        assert a.overlaps(Rect(2, 2, 4, 4))
        assert not a.overlaps(Rect(4, 0, 4, 4))      # edge touch
        assert not a.overlaps(Rect(5, 5, 1, 1))

    def test_intersection(self):
        a = Rect(0, 0, 4, 4)
        b = Rect(2, 1, 4, 4)
        inter = a.intersection(b)
        assert inter == Rect(2, 1, 2, 3)
        assert a.intersection(Rect(10, 10, 1, 1)).area == 0

    @given(rects, rects)
    def test_intersection_within_both(self, a, b):
        inter = a.intersection(b)
        if inter.area > 0:
            assert a.contains_rect(inter, tol=1e-6)
            assert b.contains_rect(inter, tol=1e-6)

    @given(rects, rects)
    def test_overlap_iff_positive_intersection(self, a, b):
        if a.overlaps(b):
            assert a.intersection(b).area > 0


class TestHelpers:
    def test_total_overlap_area(self):
        rects = [Rect(0, 0, 4, 4), Rect(2, 0, 4, 4), Rect(100, 0, 1, 1)]
        assert total_overlap_area(rects) == pytest.approx(8.0)

    def test_total_overlap_area_disjoint(self):
        rects = [Rect(0, 0, 1, 1), Rect(2, 0, 1, 1)]
        assert total_overlap_area(rects) == 0.0
