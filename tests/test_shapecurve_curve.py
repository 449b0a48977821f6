"""Tests for shape curves: Pareto pruning, queries, composition."""

import pytest
from hypothesis import given, strategies as st

from repro.shapecurve.curve import (
    ComposeCache,
    ShapeCurve,
    _downsample,
    compose_many,
)
from repro.slicing.tree import EvalStats

sides = st.floats(min_value=0.5, max_value=200.0, allow_nan=False)
points = st.lists(st.tuples(sides, sides), min_size=1, max_size=12)


class TestConstruction:
    def test_pareto_pruning(self):
        curve = ShapeCurve([(4, 4), (2, 8), (8, 2), (5, 5)])
        assert (5, 5) not in curve.points          # dominated by (4,4)
        assert set(curve.points) == {(2, 8), (4, 4), (8, 2)}

    def test_points_sorted_by_width(self):
        curve = ShapeCurve([(8, 2), (2, 8), (4, 4)])
        widths = [w for w, _h in curve.points]
        assert widths == sorted(widths)

    def test_trivial(self):
        assert ShapeCurve.trivial().is_trivial
        assert ShapeCurve.trivial().feasible(0.001, 0.001)

    def test_for_rect_rotatable(self):
        curve = ShapeCurve.for_rect(4, 2)
        assert set(curve.points) == {(4, 2), (2, 4)}

    def test_for_rect_square(self):
        assert ShapeCurve.for_rect(3, 3).points == ((3, 3),)

    def test_for_rect_fixed(self):
        assert ShapeCurve.for_rect(4, 2, rotatable=False).points \
            == ((4, 2),)

    def test_equality_and_hash(self):
        a = ShapeCurve([(2, 8), (4, 4)])
        b = ShapeCurve([(4, 4), (2, 8), (5, 5)])
        assert a == b
        assert hash(a) == hash(b)


class TestQueries:
    curve = ShapeCurve([(2, 8), (4, 4), (8, 2)])

    def test_feasible(self):
        assert self.curve.feasible(4, 4)
        assert self.curve.feasible(100, 2)
        assert not self.curve.feasible(3, 3)
        assert not self.curve.feasible(1, 100)

    def test_min_height_for_width(self):
        assert self.curve.min_height_for_width(4) == 4
        assert self.curve.min_height_for_width(5) == 4
        assert self.curve.min_height_for_width(8) == 2
        assert self.curve.min_height_for_width(1) is None

    def test_min_width_for_height(self):
        assert self.curve.min_width_for_height(4) == 4
        assert self.curve.min_width_for_height(1) is None

    def test_extremes(self):
        assert self.curve.min_area == 16

    def test_trivial_queries(self):
        trivial = ShapeCurve.trivial()
        assert trivial.min_height_for_width(1) == 0.0
        assert trivial.min_area == 0.0


class TestTransforms:
    def test_with_rotations(self):
        curve = ShapeCurve([(2, 8)]).with_rotations()
        assert set(curve.points) == {(2, 8), (8, 2)}

    def test_inflated_area(self):
        curve = ShapeCurve([(4, 4)]).inflated(1.21)
        w, h = curve.points[0]
        assert w * h == pytest.approx(16 * 1.21)

    def test_inflated_rejects_negative(self):
        with pytest.raises(ValueError):
            ShapeCurve([(4, 4)]).inflated(-1)


class TestComposition:
    def test_horizontal_adds_width(self):
        a = ShapeCurve([(2, 3)])
        b = ShapeCurve([(4, 1)])
        c = a.compose_horizontal(b)
        assert c.points == ((6, 3),)

    def test_vertical_adds_height(self):
        a = ShapeCurve([(2, 3)])
        b = ShapeCurve([(4, 1)])
        c = a.compose_vertical(b)
        assert c.points == ((4, 4),)

    def test_trivial_identity(self):
        a = ShapeCurve([(2, 3)])
        assert a.compose_horizontal(ShapeCurve.trivial()) == a
        assert ShapeCurve.trivial().compose_vertical(a) == a

    def test_compose_many(self):
        curves = [ShapeCurve([(1, 1)])] * 3
        row = compose_many(curves, horizontal=True)
        col = compose_many(curves, horizontal=False)
        assert row.points == ((3, 1),)
        assert col.points == ((1, 3),)

    @given(points, points)
    def test_composition_area_superadditive(self, pa, pb):
        """Composed min area >= sum of component min areas."""
        a, b = ShapeCurve(pa), ShapeCurve(pb)
        for composed in (a.compose_horizontal(b), a.compose_vertical(b)):
            assert composed.min_area >= a.min_area + b.min_area - 1e-6

    @given(points, points)
    def test_composition_feasibility_sound(self, pa, pb):
        """Every composed point really holds both components side by
        side / stacked."""
        a, b = ShapeCurve(pa), ShapeCurve(pb)
        for w, h in a.compose_horizontal(b).points:
            # There must be a split w = wa + wb with both feasible.
            ok = any(a.feasible(wa, h) and b.feasible(w - wa, h)
                     for wa, _ha in a.points if wa <= w + 1e-9)
            assert ok

    @given(points)
    def test_pareto_invariant(self, pts):
        """No curve point dominates another."""
        curve = ShapeCurve(pts)
        for i, (w1, h1) in enumerate(curve.points):
            for j, (w2, h2) in enumerate(curve.points):
                if i != j:
                    assert not (w1 <= w2 and h1 <= h2)


def _front(n):
    """A strict Pareto front of n points."""
    return [(float(i + 1), float(n - i)) for i in range(n)]


class TestDownsample:
    @given(st.integers(min_value=2, max_value=60),
           st.integers(min_value=2, max_value=60))
    def test_exact_count(self, n, limit):
        """A thinned front has exactly min(limit, n) distinct points.

        The historical ``round(i*step)`` sampling could pick an index
        twice (e.g. n=5, limit=4 picks index 1 for both i=1 and i=2)
        and silently return fewer points, dropping knee points on small
        fronts."""
        out = _downsample(_front(n), limit)
        assert len(out) == min(limit, n)
        assert len(set(out)) == len(out)

    @given(st.integers(min_value=2, max_value=60),
           st.integers(min_value=1, max_value=60))
    def test_keeps_extremes_and_order(self, n, limit):
        front = _front(n)
        out = _downsample(front, limit)
        assert out[0] == front[0]
        if limit > 1:
            assert out[-1] == front[-1]
        assert out == sorted(out)          # still width-sorted
        assert set(out) <= set(front)      # a subset, no new points

    def test_regression_duplicate_round_indices(self):
        # Small fronts are where round() index collisions dropped
        # points; check them exhaustively instead of cherry-picking.
        for n in range(2, 20):
            for limit in range(2, n):
                out = _downsample(_front(n), limit)
                assert len(out) == limit, (n, limit)


class TestComposeCache:
    def test_hit_returns_identical_curve(self):
        stats = EvalStats()
        cache = ComposeCache(stats)
        a = ShapeCurve([(2, 3), (3, 2)])
        b = ShapeCurve([(4, 1)])
        first = cache.compose(a, b, horizontal=True)
        second = cache.compose(a, b, horizontal=True)
        assert first is second
        assert (stats.curve_compose_hits == 1
                and stats.curve_compose_misses == 1)
        assert first == a.compose_horizontal(b)

    def test_direction_and_limit_are_part_of_the_key(self):
        stats = EvalStats()
        cache = ComposeCache(stats)
        a = ShapeCurve([(2, 3), (3, 2)])
        b = ShapeCurve([(4, 1), (1, 4)])
        h = cache.compose(a, b, horizontal=True)
        v = cache.compose(a, b, horizontal=False)
        assert stats.curve_compose_misses == 2
        assert h == a.compose_horizontal(b)
        assert v == a.compose_vertical(b)

    def test_bounded_store_clears(self):
        cache = ComposeCache(EvalStats(), max_entries=2)
        curves = [ShapeCurve([(i + 1.0, 9.0 - i)]) for i in range(4)]
        for c in curves:
            cache.compose(c, curves[0], horizontal=True)
        assert len(cache) <= 2
        # Results stay correct after the clear.
        out = cache.compose(curves[3], curves[0], horizontal=True)
        assert out == curves[3].compose_horizontal(curves[0])
